#include "retrieval/index.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sigmund::retrieval {

namespace {

inline double Dot(const float* a, const float* b, int dim) {
  double sum = 0.0;
  for (int k = 0; k < dim; ++k) {
    sum += static_cast<double>(a[k]) * static_cast<double>(b[k]);
  }
  return sum;
}

inline double SquaredL2(const float* a, const float* b, int dim) {
  double sum = 0.0;
  for (int k = 0; k < dim; ++k) {
    const double d = static_cast<double>(a[k]) - static_cast<double>(b[k]);
    sum += d * d;
  }
  return sum;
}

// Keeps the best k (score desc, item asc) out of a candidate stream.
// Candidates arrive in no particular item order (ANN probes lists), so
// the partial sort enforces the deterministic order the interface
// promises. The comparator is a total order over distinct items, so the
// first k are exactly those of a full sort.
void SortAndTruncate(std::vector<core::ScoredItem>* items, int k) {
  const size_t keep =
      std::min(static_cast<size_t>(std::max(k, 0)), items->size());
  std::partial_sort(items->begin(),
                    items->begin() + static_cast<std::ptrdiff_t>(keep),
                    items->end(),
                    [](const core::ScoredItem& a, const core::ScoredItem& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.item < b.item;
                    });
  items->resize(keep);
}

}  // namespace

ExactIndex::ExactIndex(std::vector<float> vectors, int dim)
    : dim_(dim),
      num_items_(dim > 0 ? static_cast<int>(vectors.size()) / dim : 0),
      vectors_(std::move(vectors)) {}

std::vector<core::ScoredItem> ExactIndex::Search(const float* query, int k,
                                                 int nprobe,
                                                 SearchStats* stats) const {
  (void)nprobe;
  std::vector<core::ScoredItem> items;
  items.reserve(num_items_);
  for (int i = 0; i < num_items_; ++i) {
    items.push_back(
        {static_cast<data::ItemIndex>(i),
         Dot(query, vectors_.data() + static_cast<size_t>(i) * dim_, dim_)});
  }
  if (stats != nullptr) {
    stats->lists_probed = 1;
    stats->candidates_scanned = num_items_;
  }
  SortAndTruncate(&items, k);
  return items;
}

AnnIndex AnnIndex::Build(const std::vector<float>& vectors, int dim,
                         const Options& options) {
  AnnIndex index;
  index.dim_ = dim;
  index.num_items_ = dim > 0 ? static_cast<int>(vectors.size()) / dim : 0;
  const int n = index.num_items_;
  index.num_lists_ = std::max(1, std::min(options.num_lists, std::max(n, 1)));
  const int lists = index.num_lists_;

  // Strided initial centers: deterministic, spread across the item range,
  // and independent of any RNG state — same inputs, same index, always.
  index.centroids_.assign(static_cast<size_t>(lists) * dim, 0.0f);
  for (int c = 0; c < lists; ++c) {
    const int pick = n > 0 ? static_cast<int>(
                                 (static_cast<int64_t>(c) * n) / lists)
                           : 0;
    if (n > 0) {
      std::copy_n(vectors.data() + static_cast<size_t>(pick) * dim, dim,
                  index.centroids_.data() + static_cast<size_t>(c) * dim);
    }
  }

  // Lloyd iterations: assign by L2 distance (lowest-index centroid wins
  // ties), then recompute means. An emptied cluster keeps its previous
  // centroid — it simply attracts nothing until some point drifts back.
  std::vector<int32_t> assignment(n, 0);
  for (int iter = 0; iter < std::max(options.kmeans_iters, 1); ++iter) {
    for (int i = 0; i < n; ++i) {
      const float* v = vectors.data() + static_cast<size_t>(i) * dim;
      int best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (int c = 0; c < lists; ++c) {
        const double d =
            SquaredL2(v, index.centroids_.data() + static_cast<size_t>(c) * dim,
                      dim);
        if (d < best_dist) {
          best_dist = d;
          best = c;
        }
      }
      assignment[i] = best;
    }
    if (iter + 1 == std::max(options.kmeans_iters, 1)) break;
    std::vector<double> sums(static_cast<size_t>(lists) * dim, 0.0);
    std::vector<int> counts(lists, 0);
    for (int i = 0; i < n; ++i) {
      const float* v = vectors.data() + static_cast<size_t>(i) * dim;
      double* sum = sums.data() + static_cast<size_t>(assignment[i]) * dim;
      for (int k = 0; k < dim; ++k) sum[k] += v[k];
      ++counts[assignment[i]];
    }
    for (int c = 0; c < lists; ++c) {
      if (counts[c] == 0) continue;
      float* centroid = index.centroids_.data() + static_cast<size_t>(c) * dim;
      const double* sum = sums.data() + static_cast<size_t>(c) * dim;
      for (int k = 0; k < dim; ++k) {
        centroid[k] = static_cast<float>(sum[k] / counts[c]);
      }
    }
  }

  // Bucket into contiguous SoA lists via counting sort (stable: items
  // within a list stay in ascending item order).
  index.list_offsets_.assign(lists + 1, 0);
  for (int i = 0; i < n; ++i) ++index.list_offsets_[assignment[i] + 1];
  for (int c = 0; c < lists; ++c) {
    index.list_offsets_[c + 1] += index.list_offsets_[c];
  }
  index.list_ids_.resize(n);
  index.list_vectors_.resize(static_cast<size_t>(n) * dim);
  std::vector<int32_t> cursor(index.list_offsets_.begin(),
                              index.list_offsets_.end() - 1);
  for (int i = 0; i < n; ++i) {
    const int32_t slot = cursor[assignment[i]]++;
    index.list_ids_[slot] = i;
    std::copy_n(vectors.data() + static_cast<size_t>(i) * dim, dim,
                index.list_vectors_.data() + static_cast<size_t>(slot) * dim);
  }
  return index;
}

std::vector<core::ScoredItem> AnnIndex::Search(const float* query, int k,
                                               int nprobe,
                                               SearchStats* stats) const {
  // Rank lists by centroid dot product (score desc, index asc).
  std::vector<std::pair<double, int>> ranked;
  ranked.reserve(num_lists_);
  for (int c = 0; c < num_lists_; ++c) {
    ranked.emplace_back(
        Dot(query, centroids_.data() + static_cast<size_t>(c) * dim_, dim_),
        c);
  }
  // Only the probed lists need ranking; the rest stay unordered.
  const int probes = std::max(1, std::min(nprobe, num_lists_));
  std::partial_sort(ranked.begin(), ranked.begin() + probes, ranked.end(),
                    [](const std::pair<double, int>& a,
                       const std::pair<double, int>& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });

  int64_t scanned = 0;
  for (int p = 0; p < probes; ++p) {
    const int c = ranked[p].second;
    scanned += list_offsets_[c + 1] - list_offsets_[c];
  }
  std::vector<core::ScoredItem> items;
  items.reserve(static_cast<size_t>(scanned));
  for (int p = 0; p < probes; ++p) {
    const int c = ranked[p].second;
    for (int32_t slot = list_offsets_[c]; slot < list_offsets_[c + 1];
         ++slot) {
      items.push_back(
          {static_cast<data::ItemIndex>(list_ids_[slot]),
           Dot(query,
               list_vectors_.data() + static_cast<size_t>(slot) * dim_,
               dim_)});
    }
  }
  if (stats != nullptr) {
    stats->lists_probed = probes;
    stats->candidates_scanned = scanned;
  }
  SortAndTruncate(&items, k);
  return items;
}

void AnnIndex::SerializeTo(BinaryWriter* writer) const {
  writer->Write<int32_t>(dim_);
  writer->Write<int32_t>(num_items_);
  writer->Write<int32_t>(num_lists_);
  writer->WriteVector(centroids_);
  writer->WriteVector(list_offsets_);
  writer->WriteVector(list_ids_);
  writer->WriteVector(list_vectors_);
}

StatusOr<AnnIndex> AnnIndex::DeserializeFrom(BinaryReader* reader) {
  AnnIndex index;
  int32_t dim = 0, num_items = 0, num_lists = 0;
  if (!reader->Read(&dim) || !reader->Read(&num_items) ||
      !reader->Read(&num_lists) || !reader->ReadVector(&index.centroids_) ||
      !reader->ReadVector(&index.list_offsets_) ||
      !reader->ReadVector(&index.list_ids_) ||
      !reader->ReadVector(&index.list_vectors_)) {
    return DataLossError("truncated ANN index encoding");
  }
  index.dim_ = dim;
  index.num_items_ = num_items;
  index.num_lists_ = num_lists;
  // Cross-field consistency: every offset/size must line up, and every
  // stored id must be a valid item. A frame that passes its CRC but
  // violates these was encoded by a buggy or hostile writer; reject it
  // the same way a torn blob is rejected.
  if (dim <= 0 || num_items < 0 || num_lists <= 0 ||
      index.centroids_.size() !=
          static_cast<size_t>(num_lists) * static_cast<size_t>(dim) ||
      index.list_offsets_.size() != static_cast<size_t>(num_lists) + 1 ||
      index.list_ids_.size() != static_cast<size_t>(num_items) ||
      index.list_vectors_.size() !=
          static_cast<size_t>(num_items) * static_cast<size_t>(dim) ||
      index.list_offsets_.front() != 0 ||
      index.list_offsets_.back() != num_items) {
    return DataLossError("inconsistent ANN index encoding");
  }
  for (size_t c = 1; c < index.list_offsets_.size(); ++c) {
    if (index.list_offsets_[c] < index.list_offsets_[c - 1]) {
      return DataLossError("non-monotone ANN list offsets");
    }
  }
  for (int32_t id : index.list_ids_) {
    if (id < 0 || id >= num_items) {
      return DataLossError("out-of-range item id in ANN index");
    }
  }
  return index;
}

}  // namespace sigmund::retrieval
