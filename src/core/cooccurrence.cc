#include "core/cooccurrence.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace sigmund::core {

namespace {

// One undirected pair as a sortable key, smaller item in the high half.
uint64_t PairKey(data::ItemIndex a, data::ItemIndex b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

}  // namespace

CooccurrenceModel::PairRows CooccurrenceModel::PairRows::FromKeys(
    const std::vector<uint64_t>& keys, int num_items) {
  // Bucket each occurrence's larger item under its smaller one (a counting
  // sort on the smaller item), then sort each bucket: its runs are the
  // distinct pairs, ascending by (smaller, larger), with their counts.
  std::vector<int64_t> bucket(static_cast<size_t>(num_items) + 1, 0);
  for (uint64_t key : keys) ++bucket[(key >> 32) + 1];
  for (int i = 0; i < num_items; ++i) bucket[i + 1] += bucket[i];
  std::vector<data::ItemIndex> larger(keys.size());
  {
    std::vector<int64_t> cursor(bucket.begin(), bucket.end() - 1);
    for (uint64_t key : keys) {
      larger[cursor[key >> 32]++] =
          static_cast<data::ItemIndex>(key & 0xffffffffu);
    }
  }
  std::vector<data::ItemIndex> pair_a, pair_b;
  std::vector<int32_t> runs;
  for (data::ItemIndex a = 0; a < num_items; ++a) {
    const auto first = larger.begin() + bucket[a];
    const auto last = larger.begin() + bucket[a + 1];
    std::sort(first, last);
    for (auto it = first; it != last;) {
      const auto end = std::upper_bound(it, last, *it);
      pair_a.push_back(a);
      pair_b.push_back(*it);
      runs.push_back(static_cast<int32_t>(end - it));
      it = end;
    }
  }

  PairRows rows;
  rows.offsets.assign(static_cast<size_t>(num_items) + 1, 0);
  for (size_t p = 0; p < runs.size(); ++p) {
    ++rows.offsets[pair_a[p] + 1];
    ++rows.offsets[pair_b[p] + 1];
  }
  for (int i = 0; i < num_items; ++i) rows.offsets[i + 1] += rows.offsets[i];
  rows.items.resize(rows.offsets.back());
  rows.counts.resize(rows.offsets.back());
  // Pairs ascend by (smaller, larger) item, so row r first receives its
  // smaller partners in ascending order, then its larger ones: every row
  // comes out sorted.
  std::vector<int64_t> cursor(rows.offsets.begin(), rows.offsets.end() - 1);
  for (size_t p = 0; p < runs.size(); ++p) {
    const data::ItemIndex a = pair_a[p], b = pair_b[p];
    rows.items[cursor[a]] = b;
    rows.counts[cursor[a]++] = runs[p];
    rows.items[cursor[b]] = a;
    rows.counts[cursor[b]++] = runs[p];
  }
  return rows;
}

int64_t CooccurrenceModel::PairRows::Count(data::ItemIndex a,
                                           data::ItemIndex b) const {
  if (a < 0 || static_cast<size_t>(a) + 1 >= offsets.size()) return 0;
  const auto first = items.begin() + offsets[a];
  const auto last = items.begin() + offsets[a + 1];
  const auto it = std::lower_bound(first, last, b);
  return it != last && *it == b ? counts[it - items.begin()] : 0;
}

CooccurrenceModel CooccurrenceModel::Build(
    const std::vector<std::vector<data::Interaction>>& histories,
    int num_items, const Options& options) {
  CooccurrenceModel model;
  model.view_counts_.assign(num_items, 0);
  model.buy_counts_.assign(num_items, 0);
  // One key per pair occurrence; counted by FromKeys.
  std::vector<uint64_t> view_keys, buy_keys;

  for (const auto& history : histories) {
    // Split into sessions on time gaps; count co-views within a sliding
    // window inside each session.
    std::vector<data::ItemIndex> session_views;
    std::vector<data::ItemIndex> purchases;
    int64_t last_time = 0;

    auto flush_session = [&]() { session_views.clear(); };

    for (const data::Interaction& event : history) {
      if (!session_views.empty() &&
          event.timestamp - last_time > options.session_gap_seconds) {
        flush_session();
      }
      last_time = event.timestamp;

      if (event.action == data::ActionType::kConversion) {
        ++model.buy_counts_[event.item];
        for (data::ItemIndex prev : purchases) {
          if (prev != event.item) {
            buy_keys.push_back(PairKey(prev, event.item));
          }
        }
        purchases.push_back(event.item);
      }
      // Every event implies the item page was seen; count it as a view
      // exposure for co-view purposes.
      ++model.view_counts_[event.item];
      ++model.total_view_events_;
      int start = std::max<int>(
          0, static_cast<int>(session_views.size()) - options.window);
      for (size_t k = start; k < session_views.size(); ++k) {
        if (session_views[k] != event.item) {
          view_keys.push_back(PairKey(session_views[k], event.item));
        }
      }
      session_views.push_back(event.item);
    }
  }
  model.view_pairs_ = PairRows::FromKeys(view_keys, num_items);
  model.buy_pairs_ = PairRows::FromKeys(buy_keys, num_items);

  // Build per-item top-neighbor lists.
  auto fill = [&](const PairRows& pairs, const std::vector<int64_t>& counts,
                  std::vector<std::vector<Neighbor>>* out) {
    out->resize(num_items);
    for (data::ItemIndex a = 0; a < num_items; ++a) {
      std::vector<Neighbor>& neighbors = (*out)[a];
      neighbors.reserve(pairs.offsets[a + 1] - pairs.offsets[a]);
      for (int64_t e = pairs.offsets[a]; e < pairs.offsets[a + 1]; ++e) {
        const data::ItemIndex b = pairs.items[e];
        const int64_t count = pairs.counts[e];
        if (count < options.min_count) continue;
        // Cosine-style normalization: c_ab / sqrt(c_a * c_b).
        double denom = std::sqrt(static_cast<double>(
            std::max<int64_t>(1, counts[a]) *
            std::max<int64_t>(1, counts[b])));
        neighbors.push_back(Neighbor{b, count / denom, count});
      }
      // Items are distinct within a row, so the order is total and the
      // kept prefix is the same as a full sort's.
      const size_t keep = std::min<size_t>(
          neighbors.size(), std::max(0, options.max_neighbors));
      std::partial_sort(neighbors.begin(), neighbors.begin() + keep,
                        neighbors.end(),
                        [](const Neighbor& x, const Neighbor& y) {
                          if (x.score != y.score) return x.score > y.score;
                          return x.item < y.item;
                        });
      neighbors.resize(keep);
      neighbors.shrink_to_fit();
    }
  };
  fill(model.view_pairs_, model.view_counts_, &model.co_viewed_);
  fill(model.buy_pairs_, model.buy_counts_, &model.co_bought_);
  return model;
}

double CooccurrenceModel::Pmi(data::ItemIndex a, data::ItemIndex b) const {
  int64_t joint = CoViewCount(a, b);
  if (joint == 0 || total_view_events_ == 0) return -1e30;
  double p_joint = static_cast<double>(joint) / total_view_events_;
  double p_a = static_cast<double>(std::max<int64_t>(1, view_counts_[a])) /
               total_view_events_;
  double p_b = static_cast<double>(std::max<int64_t>(1, view_counts_[b])) /
               total_view_events_;
  return std::log(p_joint / (p_a * p_b));
}

const std::vector<CooccurrenceModel::Neighbor>& CooccurrenceModel::CoViewed(
    data::ItemIndex i) const {
  SIGCHECK_GE(i, 0);
  SIGCHECK_LT(i, num_items());
  return co_viewed_[i];
}

const std::vector<CooccurrenceModel::Neighbor>& CooccurrenceModel::CoBought(
    data::ItemIndex i) const {
  SIGCHECK_GE(i, 0);
  SIGCHECK_LT(i, num_items());
  return co_bought_[i];
}

std::vector<data::ItemIndex> CooccurrenceModel::ItemsByPopularity() const {
  std::vector<data::ItemIndex> items(num_items());
  for (int i = 0; i < num_items(); ++i) items[i] = i;
  std::sort(items.begin(), items.end(),
            [this](data::ItemIndex a, data::ItemIndex b) {
              if (view_counts_[a] != view_counts_[b]) {
                return view_counts_[a] > view_counts_[b];
              }
              return a < b;
            });
  return items;
}

}  // namespace sigmund::core
