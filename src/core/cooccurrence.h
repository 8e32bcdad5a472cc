#ifndef SIGMUND_CORE_COOCCURRENCE_H_
#define SIGMUND_CORE_COOCCURRENCE_H_

#include <stdint.h>

#include <vector>

#include "data/retailer_data.h"
#include "data/types.h"

namespace sigmund::core {

// Item-item co-occurrence model (§III-E): co-view and co-buy counts with
// PMI-style scoring. This is the simple, scalable recommender that works
// well for popular (head) items and is combined with factorization for the
// tail; it also feeds candidate selection (cv(i), cb(i), §III-D1) and the
// exclusion negative sampler (§III-B3).
//
// Pair counts live in per-item CSR rows (row offsets plus neighbour ids
// sorted ascending, with their counts), probed by binary search; every
// pair appears in both items' rows.
//
// Immutable after Build(); thread-safe for reads.
class CooccurrenceModel {
 public:
  struct Options {
    // Views within one session co-occur. Sessions are split on gaps.
    int64_t session_gap_seconds = 1800;
    // Sliding-window cap within a session (bounds O(L^2) for long sessions).
    int window = 8;
    // Neighbors kept per item in the top lists.
    int max_neighbors = 50;
    // Minimum raw count for a pair to enter the top lists.
    int64_t min_count = 1;
  };

  // A scored neighbor of an item.
  struct Neighbor {
    data::ItemIndex item = data::kInvalidItem;
    double score = 0.0;  // cosine-normalized co-count
    int64_t count = 0;
  };

  // Builds the model from (training) histories.
  static CooccurrenceModel Build(
      const std::vector<std::vector<data::Interaction>>& histories,
      int num_items, const Options& options);

  int num_items() const { return static_cast<int>(view_counts_.size()); }

  // Raw pair counts (symmetric).
  int64_t CoViewCount(data::ItemIndex a, data::ItemIndex b) const {
    return view_pairs_.Count(a, b);
  }
  int64_t CoBuyCount(data::ItemIndex a, data::ItemIndex b) const {
    return buy_pairs_.Count(a, b);
  }

  // Pointwise mutual information of a co-view pair; very negative when the
  // pair never co-occurred.
  double Pmi(data::ItemIndex a, data::ItemIndex b) const;

  // Top co-viewed / co-bought neighbors (descending score).
  const std::vector<Neighbor>& CoViewed(data::ItemIndex i) const;
  const std::vector<Neighbor>& CoBought(data::ItemIndex i) const;

  // Per-item totals.
  const std::vector<int64_t>& view_counts() const { return view_counts_; }
  const std::vector<int64_t>& buy_counts() const { return buy_counts_; }

  // Items ranked by total interaction count, descending (the "head").
  std::vector<data::ItemIndex> ItemsByPopularity() const;

 private:
  // Symmetric pair counts as sorted per-item rows.
  struct PairRows {
    std::vector<int64_t> offsets;  // row a = [offsets[a], offsets[a + 1])
    std::vector<data::ItemIndex> items;  // ascending within a row
    std::vector<int32_t> counts;

    // Builds the rows from one key per pair occurrence: the smaller item
    // in the high 32 bits, the larger in the low.
    static PairRows FromKeys(const std::vector<uint64_t>& keys,
                             int num_items);
    int64_t Count(data::ItemIndex a, data::ItemIndex b) const;
  };

  PairRows view_pairs_;
  PairRows buy_pairs_;
  std::vector<int64_t> view_counts_;
  std::vector<int64_t> buy_counts_;
  std::vector<std::vector<Neighbor>> co_viewed_;
  std::vector<std::vector<Neighbor>> co_bought_;
  int64_t total_view_events_ = 0;
};

}  // namespace sigmund::core

#endif  // SIGMUND_CORE_COOCCURRENCE_H_
