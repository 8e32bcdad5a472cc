#ifndef SIGMUND_CORE_TRAINING_DATA_H_
#define SIGMUND_CORE_TRAINING_DATA_H_

#include <stdint.h>

#include <span>
#include <vector>

#include "common/random.h"
#include "core/model.h"
#include "data/retailer_data.h"

namespace sigmund::core {

// Indexed view over one retailer's *training* histories, precomputed once
// per training run. Provides:
//   - uniform sampling of training positions (user, index) where index >= 1
//     so the context is non-empty (Fig. 2 of the paper),
//   - context construction for any position,
//   - per-user seen-item sets (negatives must be unseen), stored as sorted
//     CSR rows (row offsets plus sorted item ids) and probed by binary
//     search,
//   - per-user tier buckets: items whose strongest observed action is a
//     given tier, for the tier constraints search>view, cart>search,
//     conversion>cart (§III-B1).
//
// Does not own the histories; the caller keeps them alive. Immutable after
// construction (safe for concurrent Hogwild readers).
class TrainingData {
 public:
  struct Position {
    data::UserIndex user = 0;
    int index = 0;  // event index within the user's history
  };

  TrainingData(const std::vector<std::vector<data::Interaction>>* histories,
               int num_items);

  int num_items() const { return num_items_; }
  int num_users() const { return static_cast<int>(histories_->size()); }
  const std::vector<std::vector<data::Interaction>>& histories() const {
    return *histories_;
  }

  // Number of sampleable positions (events with a non-empty context).
  int64_t num_positions() const {
    return static_cast<int64_t>(positions_.size());
  }

  // Uniform over sampleable positions.
  Position SamplePosition(Rng* rng) const;

  const data::Interaction& EventAt(Position p) const {
    return (*histories_)[p.user][p.index];
  }

  // Writes into `out` the user's context immediately before position `p`:
  // the last `window` (action, item) pairs preceding it, oldest first.
  // `out` is caller-owned so a training loop can reuse one buffer.
  void ContextAt(Position p, int window, Context* out) const;

  // Writes into `out` the full context of a user (all training events,
  // capped to `window`), used at evaluation time for the hold-out example.
  void FullContext(data::UserIndex user, int window, Context* out) const;

  // True if the user interacted with the item in training.
  bool Seen(data::UserIndex user, data::ItemIndex item) const;

  // The distinct items the user interacted with in training, ascending.
  std::span<const data::ItemIndex> SeenItems(data::UserIndex user) const {
    return {seen_items_.data() + seen_offsets_[user],
            seen_items_.data() + seen_offsets_[user + 1]};
  }

  // Items whose strongest action by `user` is exactly `strength`
  // (0=view .. 3=conversion).
  const std::vector<data::ItemIndex>& TierBucket(data::UserIndex user,
                                                 int strength) const;

  // Samples an item the user interacted with at a strictly lower tier than
  // `action` (preferring exactly one tier below). kInvalidItem if none.
  data::ItemIndex SampleLowerTierItem(data::UserIndex user,
                                      data::ActionType action,
                                      Rng* rng) const;

  // Item interaction counts over the training data (popularity).
  const std::vector<int64_t>& item_counts() const { return item_counts_; }

 private:
  const std::vector<std::vector<data::Interaction>>* histories_;
  int num_items_;
  std::vector<Position> positions_;
  // SeenItems(u) = seen_items_[seen_offsets_[u], seen_offsets_[u + 1]).
  std::vector<int64_t> seen_offsets_;
  std::vector<data::ItemIndex> seen_items_;
  // tier_buckets_[user][strength] = items with max strength == strength.
  std::vector<std::vector<std::vector<data::ItemIndex>>> tier_buckets_;
  std::vector<int64_t> item_counts_;
};

}  // namespace sigmund::core

#endif  // SIGMUND_CORE_TRAINING_DATA_H_
