#ifndef SIGMUND_CORE_RECOMMENDATION_BATCH_H_
#define SIGMUND_CORE_RECOMMENDATION_BATCH_H_

#include <stdint.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/inference.h"

namespace sigmund::core {

// The materialized lists of one query item (Fig. 1, §III-D1). The value
// is the list's slot in a batch row.
enum class RecommendationList : int {
  kViewBased = 0,
  kPurchaseBased = 1,
  kViewBasedLate = 2,
};

// One retailer's materialized recommendations in columnar form. This is
// both the payload of the batch file the inference job writes (inside its
// CRC frame) and the serving store's in-memory shard (DESIGN.md §7.1):
//
//   header   u32 magic "SRB1" | u32 format version | u32 n | u32 lists (3)
//   offsets  u32[3n + 1]; list l of query item q is entries
//            [offsets[3q + l], offsets[3q + l + 1])
//   ids      i32[offsets[3n]]
//   scores   f32[offsets[3n]]
//
// Host-endian like every binary payload here. The query id is the row
// index, so an item without a record simply has three empty lists. Scores
// are ranked in double and stored as f32 (~7 significant digits).
class RecommendationBatch {
 public:
  static constexpr int kNumLists = 3;

  // The empty batch (n = 0).
  RecommendationBatch();

  // Columns for in-memory lists, in any order: each item is encoded with
  // EncodeItemRecord, an item without lists gets an empty record, and the
  // records go through FromItemRecords, so the rules are the same. n is
  // one past the largest query or recommended item id, which makes the
  // batch's Encode() bytes pass Decode. SIGCHECKs that every query is
  // non-negative and that FromItemRecords accepts the records (no query
  // listed twice, no negative item id, no non-finite score).
  static RecommendationBatch FromLists(
      const std::vector<ItemRecommendations>& recs);

  // Concatenates per-item records (EncodeItemRecord), in any order, into
  // a batch of n = num_items without decoding them into lists. The batch
  // is complete and obeys Decode's rules: kDataLoss unless there is
  // exactly one well-formed record for every query item in [0, n), every
  // recommended id lies in [0, n) and every score is finite.
  static StatusOr<RecommendationBatch> FromItemRecords(
      const std::vector<std::string_view>& records, int32_t num_items);

  // Validating decoder for a batch payload. kDataLoss, never an
  // out-of-bounds read, when the header is wrong, n disagrees with the
  // payload size, an offset is non-monotone or out of range, an item id
  // lies outside [0, n), or a score is non-finite.
  static StatusOr<RecommendationBatch> Decode(std::string_view payload);

  std::string Encode() const;

  int32_t num_items() const { return n_; }
  // Query items with at least one recommended item in any list.
  int32_t num_listed_items() const;

  // Length and contents of one list; `query` must lie in [0, n).
  size_t ListSize(data::ItemIndex query, RecommendationList list) const;
  std::vector<ScoredItem> List(data::ItemIndex query,
                               RecommendationList list) const;

 private:
  // Index of `list` of `query` in offsets_.
  static size_t Slot(data::ItemIndex query, RecommendationList list) {
    return kNumLists * static_cast<size_t>(query) + static_cast<size_t>(list);
  }

  int32_t n_ = 0;
  std::vector<uint32_t> offsets_;  // kNumLists * n_ + 1 entries
  std::vector<int32_t> ids_;
  std::vector<float> scores_;
};

// The list of `recs` in slot `list`.
const std::vector<ScoredItem>& ListOf(const ItemRecommendations& recs,
                                      RecommendationList list);

// Per-item binary record: the inference mapper's output value and the
// tiered store's flash record. Same column order as one batch row:
//
//   i32 query | u32 list sizes[3] | i32 ids[total] | f32 scores[total]
std::string EncodeItemRecord(const ItemRecommendations& recs);

// kDataLoss on a size mismatch, a query or item id outside
// [0, INT32_MAX), or a non-finite score.
StatusOr<ItemRecommendations> DecodeItemRecord(std::string_view bytes);

}  // namespace sigmund::core

#endif  // SIGMUND_CORE_RECOMMENDATION_BATCH_H_
