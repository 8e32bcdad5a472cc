#include "core/recommendation_batch.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"

namespace sigmund::core {

namespace {

constexpr uint32_t kBatchMagic = 0x31425253;  // "SRB1"
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderBytes = 4 * sizeof(uint32_t);
constexpr size_t kEntryBytes = sizeof(int32_t) + sizeof(float);
constexpr size_t kRecordHeaderBytes =
    sizeof(int32_t) + RecommendationBatch::kNumLists * sizeof(uint32_t);

template <typename T>
T Load(const char* bytes) {
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

// memcpy for possibly empty ranges: an empty vector's data() may be null,
// which memcpy does not allow even for zero bytes.
void CopyBytes(void* out, const void* in, size_t bytes) {
  if (bytes > 0) std::memcpy(out, in, bytes);
}

template <typename T>
char* Store(char* out, const T* values, size_t count) {
  CopyBytes(out, values, count * sizeof(T));
  return out + count * sizeof(T);
}

// An item's lists in batch slot order.
std::array<const std::vector<ScoredItem>*, RecommendationBatch::kNumLists>
ListsOf(const ItemRecommendations& recs) {
  return {&recs.view_based, &recs.purchase_based, &recs.view_based_late};
}

// A validated per-item record, still in its encoded bytes.
struct RecordView {
  int32_t query = 0;
  uint32_t sizes[RecommendationBatch::kNumLists] = {};
  size_t total = 0;
  const char* ids = nullptr;     // `total` i32
  const char* scores = nullptr;  // `total` f32
};

// The query and every recommended item must lie in [0, num_items).
Status ParseItemRecord(std::string_view bytes, int32_t num_items,
                       RecordView* view) {
  if (bytes.size() < kRecordHeaderBytes) {
    return DataLossError("truncated recommendation record");
  }
  view->query = Load<int32_t>(bytes.data());
  uint64_t total = 0;  // three u32 sizes cannot overflow u64
  for (int l = 0; l < RecommendationBatch::kNumLists; ++l) {
    view->sizes[l] = Load<uint32_t>(bytes.data() + 4 + 4 * l);
    total += view->sizes[l];
  }
  if (bytes.size() - kRecordHeaderBytes != total * kEntryBytes) {
    return DataLossError("recommendation record size mismatch");
  }
  if (view->query < 0 || view->query >= num_items) {
    return DataLossError(StrFormat("query item %d outside [0, %d)",
                                   view->query, num_items));
  }
  view->total = static_cast<size_t>(total);
  view->ids = bytes.data() + kRecordHeaderBytes;
  view->scores = view->ids + view->total * sizeof(int32_t);
  for (size_t k = 0; k < view->total; ++k) {
    const int32_t id = Load<int32_t>(view->ids + k * sizeof(int32_t));
    if (id < 0 || id >= num_items) {
      return DataLossError(
          StrFormat("recommended item %d outside [0, %d)", id, num_items));
    }
    if (!std::isfinite(Load<float>(view->scores + k * sizeof(float)))) {
      return DataLossError("non-finite recommendation score");
    }
  }
  return OkStatus();
}

}  // namespace

RecommendationBatch::RecommendationBatch() : offsets_(1, 0) {}

RecommendationBatch RecommendationBatch::FromLists(
    const std::vector<ItemRecommendations>& recs) {
  int64_t largest = -1;
  for (const ItemRecommendations& rec : recs) {
    SIGCHECK(rec.query >= 0) << "negative query item " << rec.query;
    largest = std::max<int64_t>(largest, rec.query);
    for (const std::vector<ScoredItem>* list : ListsOf(rec)) {
      for (const ScoredItem& item : *list) {
        largest = std::max<int64_t>(largest, item.item);
      }
    }
  }
  SIGCHECK(largest < std::numeric_limits<int32_t>::max())
      << "item id " << largest << " leaves no room for the item count";
  const int32_t n = static_cast<int32_t>(largest + 1);
  std::vector<std::string> records;
  records.reserve(n);
  std::vector<bool> listed(n, false);
  for (const ItemRecommendations& rec : recs) {
    records.push_back(EncodeItemRecord(rec));
    listed[rec.query] = true;
  }
  for (int32_t q = 0; q < n; ++q) {
    if (listed[q]) continue;
    ItemRecommendations gap;
    gap.query = q;
    records.push_back(EncodeItemRecord(gap));
  }
  StatusOr<RecommendationBatch> batch = FromItemRecords(
      std::vector<std::string_view>(records.begin(), records.end()), n);
  SIGCHECK(batch.ok()) << batch.status().ToString();
  return std::move(batch).value();
}

StatusOr<RecommendationBatch> RecommendationBatch::FromItemRecords(
    const std::vector<std::string_view>& records, int32_t num_items) {
  const int32_t n = std::max(num_items, 0);
  if (records.size() != static_cast<size_t>(n)) {
    return DataLossError(StrFormat("%zu recommendation records for %d items",
                                   records.size(), n));
  }
  std::vector<RecordView> views(records.size());
  size_t total = 0;
  for (size_t k = 0; k < records.size(); ++k) {
    SIGMUND_RETURN_IF_ERROR(ParseItemRecord(records[k], n, &views[k]));
    total += views[k].total;
  }
  // n records in [0, n) with no query twice: every query has one.
  std::vector<const RecordView*> row(n, nullptr);
  for (const RecordView& view : views) {
    if (row[view.query] != nullptr) {
      return DataLossError(
          StrFormat("two records for query item %d", view.query));
    }
    row[view.query] = &view;
  }

  RecommendationBatch batch;
  batch.n_ = n;
  batch.offsets_.reserve(kNumLists * static_cast<size_t>(n) + 1);
  batch.ids_.resize(total);
  batch.scores_.resize(total);
  size_t filled = 0;
  for (const RecordView* view : row) {
    // A record's lists are already contiguous and in slot order.
    CopyBytes(batch.ids_.data() + filled, view->ids,
              view->total * sizeof(int32_t));
    CopyBytes(batch.scores_.data() + filled, view->scores,
              view->total * sizeof(float));
    for (int l = 0; l < kNumLists; ++l) {
      filled += view->sizes[l];
      batch.offsets_.push_back(static_cast<uint32_t>(filled));
    }
  }
  return batch;
}

StatusOr<RecommendationBatch> RecommendationBatch::Decode(
    std::string_view payload) {
  if (payload.size() < kHeaderBytes) {
    return DataLossError("truncated recommendation batch header");
  }
  const char* bytes = payload.data();
  if (Load<uint32_t>(bytes) != kBatchMagic) {
    return DataLossError("bad recommendation batch magic");
  }
  if (Load<uint32_t>(bytes + 4) != kFormatVersion) {
    return DataLossError("unsupported recommendation batch version");
  }
  const uint32_t n = Load<uint32_t>(bytes + 8);
  if (Load<uint32_t>(bytes + 12) != kNumLists) {
    return DataLossError("recommendation batch list count is not 3");
  }
  // All arithmetic in u64: n <= UINT32_MAX keeps every product exact.
  const uint64_t table_entries = uint64_t{kNumLists} * n + 1;
  const uint64_t body = payload.size() - kHeaderBytes;
  if (n > static_cast<uint32_t>(std::numeric_limits<int32_t>::max()) ||
      table_entries * sizeof(uint32_t) > body ||
      (body - table_entries * sizeof(uint32_t)) % kEntryBytes != 0) {
    return DataLossError(StrFormat(
        "recommendation batch item count %u disagrees with its %zu bytes", n,
        payload.size()));
  }
  const size_t entries = static_cast<size_t>(
      (body - table_entries * sizeof(uint32_t)) / kEntryBytes);

  RecommendationBatch batch;
  batch.n_ = static_cast<int32_t>(n);
  batch.offsets_.resize(static_cast<size_t>(table_entries));
  batch.ids_.resize(entries);
  batch.scores_.resize(entries);
  const char* in = bytes + kHeaderBytes;
  CopyBytes(batch.offsets_.data(), in,
            batch.offsets_.size() * sizeof(uint32_t));
  in += batch.offsets_.size() * sizeof(uint32_t);
  CopyBytes(batch.ids_.data(), in, entries * sizeof(int32_t));
  in += entries * sizeof(int32_t);
  CopyBytes(batch.scores_.data(), in, entries * sizeof(float));

  if (batch.offsets_.front() != 0 || batch.offsets_.back() != entries) {
    return DataLossError("recommendation batch offsets out of range");
  }
  for (size_t k = 1; k < batch.offsets_.size(); ++k) {
    if (batch.offsets_[k] < batch.offsets_[k - 1]) {
      return DataLossError("recommendation batch offsets not monotone");
    }
  }
  for (int32_t id : batch.ids_) {
    if (id < 0 || id >= batch.n_) {
      return DataLossError(StrFormat(
          "recommended item %d outside the batch's %d items", id, batch.n_));
    }
  }
  for (float score : batch.scores_) {
    if (!std::isfinite(score)) {
      return DataLossError("non-finite recommendation score");
    }
  }
  return batch;
}

std::string RecommendationBatch::Encode() const {
  std::string out(kHeaderBytes + offsets_.size() * sizeof(uint32_t) +
                      ids_.size() * kEntryBytes,
                  '\0');
  const uint32_t header[4] = {kBatchMagic, kFormatVersion,
                              static_cast<uint32_t>(n_), kNumLists};
  char* p = Store(out.data(), header, 4);
  p = Store(p, offsets_.data(), offsets_.size());
  p = Store(p, ids_.data(), ids_.size());
  Store(p, scores_.data(), scores_.size());
  return out;
}

int32_t RecommendationBatch::num_listed_items() const {
  int32_t listed = 0;
  for (size_t row = 0; row + kNumLists < offsets_.size(); row += kNumLists) {
    listed += offsets_[row + kNumLists] > offsets_[row];
  }
  return listed;
}

size_t RecommendationBatch::ListSize(data::ItemIndex query,
                                     RecommendationList list) const {
  const size_t slot = Slot(query, list);
  return offsets_[slot + 1] - offsets_[slot];
}

std::vector<ScoredItem> RecommendationBatch::List(
    data::ItemIndex query, RecommendationList list) const {
  const size_t slot = Slot(query, list);
  const size_t begin = offsets_[slot];
  const size_t end = offsets_[slot + 1];
  std::vector<ScoredItem> out;
  out.reserve(end - begin);
  for (size_t k = begin; k < end; ++k) {
    out.push_back(ScoredItem{ids_[k], scores_[k]});
  }
  return out;
}

const std::vector<ScoredItem>& ListOf(const ItemRecommendations& recs,
                                      RecommendationList list) {
  return *ListsOf(recs)[static_cast<size_t>(list)];
}

std::string EncodeItemRecord(const ItemRecommendations& recs) {
  const auto lists = ListsOf(recs);
  size_t total = 0;
  for (const auto* list : lists) total += list->size();
  std::string out(kRecordHeaderBytes + total * kEntryBytes, '\0');
  char* p = Store(out.data(), &recs.query, 1);
  for (const auto* list : lists) {
    const uint32_t size = static_cast<uint32_t>(list->size());
    p = Store(p, &size, 1);
  }
  for (const auto* list : lists) {
    for (const ScoredItem& item : *list) p = Store(p, &item.item, 1);
  }
  for (const auto* list : lists) {
    for (const ScoredItem& item : *list) {
      const float score = static_cast<float>(item.score);
      p = Store(p, &score, 1);
    }
  }
  return out;
}

StatusOr<ItemRecommendations> DecodeItemRecord(std::string_view bytes) {
  RecordView view;
  SIGMUND_RETURN_IF_ERROR(ParseItemRecord(
      bytes, std::numeric_limits<int32_t>::max(), &view));
  ItemRecommendations recs;
  recs.query = view.query;
  std::vector<ScoredItem>* lists[RecommendationBatch::kNumLists] = {
      &recs.view_based, &recs.purchase_based, &recs.view_based_late};
  size_t k = 0;
  for (int l = 0; l < RecommendationBatch::kNumLists; ++l) {
    lists[l]->reserve(view.sizes[l]);
    for (uint32_t j = 0; j < view.sizes[l]; ++j, ++k) {
      lists[l]->push_back(
          ScoredItem{Load<int32_t>(view.ids + k * sizeof(int32_t)),
                     Load<float>(view.scores + k * sizeof(float))});
    }
  }
  return recs;
}

}  // namespace sigmund::core
