#include "core/training_data.h"

#include <algorithm>

#include "common/logging.h"

namespace sigmund::core {

TrainingData::TrainingData(
    const std::vector<std::vector<data::Interaction>>* histories,
    int num_items)
    : histories_(histories), num_items_(num_items) {
  SIGCHECK(histories != nullptr);
  const int users = static_cast<int>(histories->size());
  seen_offsets_.reserve(users + 1);
  seen_offsets_.push_back(0);
  tier_buckets_.resize(users);
  item_counts_.assign(num_items, 0);

  // (item, strength) of one user's events, sorted so each item's run ends
  // with its strongest action.
  std::vector<std::pair<data::ItemIndex, int>> events;
  for (data::UserIndex u = 0; u < users; ++u) {
    const auto& history = (*histories)[u];
    events.clear();
    for (int idx = 0; idx < static_cast<int>(history.size()); ++idx) {
      const data::Interaction& event = history[idx];
      SIGCHECK_GE(event.item, 0);
      SIGCHECK_LT(event.item, num_items);
      if (idx >= 1) positions_.push_back(Position{u, idx});
      ++item_counts_[event.item];
      events.emplace_back(event.item, data::ActionStrength(event.action));
    }
    std::sort(events.begin(), events.end());
    tier_buckets_[u].assign(data::kNumActionTypes, {});
    for (size_t k = 0; k < events.size(); ++k) {
      if (k + 1 < events.size() && events[k + 1].first == events[k].first) {
        continue;
      }
      // Last of the item's run: its max observed strength. Items arrive
      // ascending, so the seen row and every tier bucket stay sorted.
      seen_items_.push_back(events[k].first);
      tier_buckets_[u][events[k].second].push_back(events[k].first);
    }
    seen_offsets_.push_back(static_cast<int64_t>(seen_items_.size()));
  }
}

TrainingData::Position TrainingData::SamplePosition(Rng* rng) const {
  SIGCHECK(!positions_.empty());
  return positions_[rng->Uniform(positions_.size())];
}

void TrainingData::ContextAt(Position p, int window, Context* out) const {
  const auto& history = (*histories_)[p.user];
  out->clear();
  for (int idx = std::max(0, p.index - window); idx < p.index; ++idx) {
    out->push_back(ContextEntry{history[idx].item, history[idx].action});
  }
}

void TrainingData::FullContext(data::UserIndex user, int window,
                               Context* out) const {
  const auto& history = (*histories_)[user];
  ContextAt(Position{user, static_cast<int>(history.size())}, window, out);
}

bool TrainingData::Seen(data::UserIndex user, data::ItemIndex item) const {
  const std::span<const data::ItemIndex> row = SeenItems(user);
  return std::binary_search(row.begin(), row.end(), item);
}

const std::vector<data::ItemIndex>& TrainingData::TierBucket(
    data::UserIndex user, int strength) const {
  SIGCHECK_GE(strength, 0);
  SIGCHECK_LT(strength, data::kNumActionTypes);
  return tier_buckets_[user][strength];
}

data::ItemIndex TrainingData::SampleLowerTierItem(data::UserIndex user,
                                                  data::ActionType action,
                                                  Rng* rng) const {
  // Prefer exactly one tier below ("for every searched item, we sample a
  // negative item that is viewed but not searched"), fall back further.
  for (int strength = data::ActionStrength(action) - 1; strength >= 0;
       --strength) {
    const auto& bucket = tier_buckets_[user][strength];
    if (!bucket.empty()) return bucket[rng->Uniform(bucket.size())];
  }
  return data::kInvalidItem;
}

}  // namespace sigmund::core
