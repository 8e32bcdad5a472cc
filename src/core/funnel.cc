#include "core/funnel.h"

#include <algorithm>

namespace sigmund::core {

const char* FunnelStageName(FunnelStage stage) {
  switch (stage) {
    case FunnelStage::kEarly:
      return "early";
    case FunnelStage::kLate:
      return "late";
  }
  return "unknown";
}

FunnelStage ClassifyFunnelStage(const Context& context,
                                const data::Catalog* catalog,
                                const FunnelOptions& options) {
  const int n = static_cast<int>(context.size());
  const int start = std::max(0, n - options.window);

  // The window holds at most `window` entries (8 by default), so counting
  // each entry's earlier repeats by a linear scan is cheaper than building
  // maps, and allocates nothing on the serving path.
  for (int j = start; j < n; ++j) {
    const ContextEntry& entry = context[j];
    // A cart (or conversion) means the purchase decision is essentially
    // made: late funnel by definition.
    if (entry.action == data::ActionType::kCart ||
        entry.action == data::ActionType::kConversion) {
      return FunnelStage::kLate;
    }
    int item_views = 1;
    for (int i = start; i < j; ++i) {
      if (context[i].item == entry.item) ++item_views;
    }
    if (item_views >= options.min_repeat_views) {
      return FunnelStage::kLate;
    }
    if (catalog != nullptr) {
      const data::CategoryId category = catalog->item(entry.item).category;
      int category_events = 1;
      for (int i = start; i < j; ++i) {
        if (catalog->item(context[i].item).category == category) {
          ++category_events;
        }
      }
      if (category_events >= options.min_category_focus) {
        return FunnelStage::kLate;
      }
    }
  }
  return FunnelStage::kEarly;
}

}  // namespace sigmund::core
