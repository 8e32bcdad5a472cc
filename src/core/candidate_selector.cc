#include "core/candidate_selector.h"

#include <algorithm>
#include <iterator>
#include <map>

#include "common/logging.h"

namespace sigmund::core {

RepurchaseEstimator RepurchaseEstimator::Build(
    const std::vector<std::vector<data::Interaction>>& histories,
    const data::Catalog& catalog, const Options& options) {
  const int num_categories = catalog.taxonomy().num_categories();
  std::vector<int64_t> buyers(num_categories, 0);
  std::vector<int64_t> repeat_buyers(num_categories, 0);
  std::vector<double> gap_day_sum(num_categories, 0.0);
  std::vector<int64_t> gap_count(num_categories, 0);

  for (const auto& history : histories) {
    // Conversion timestamps per category for this user.
    std::map<data::CategoryId, std::vector<int64_t>> purchases;
    for (const data::Interaction& event : history) {
      if (event.action != data::ActionType::kConversion) continue;
      purchases[catalog.item(event.item).category].push_back(event.timestamp);
    }
    for (auto& [category, times] : purchases) {
      ++buyers[category];
      if (times.size() > 1) {
        ++repeat_buyers[category];
        std::sort(times.begin(), times.end());
        for (size_t k = 1; k < times.size(); ++k) {
          gap_day_sum[category] += (times[k] - times[k - 1]) / 86400.0;
          ++gap_count[category];
        }
      }
    }
  }

  RepurchaseEstimator estimator;
  estimator.repurchasable_.assign(num_categories, false);
  estimator.mean_days_.assign(num_categories, 0.0);
  for (data::CategoryId c = 0; c < num_categories; ++c) {
    if (buyers[c] >= options.min_buyers &&
        static_cast<double>(repeat_buyers[c]) / buyers[c] >=
            options.min_repeat_fraction) {
      estimator.repurchasable_[c] = true;
      estimator.mean_days_[c] =
          gap_count[c] > 0 ? gap_day_sum[c] / gap_count[c] : 0.0;
    }
  }
  return estimator;
}

bool RepurchaseEstimator::IsRepurchasable(data::CategoryId c) const {
  SIGCHECK_GE(c, 0);
  SIGCHECK_LT(c, static_cast<data::CategoryId>(repurchasable_.size()));
  return repurchasable_[c];
}

double RepurchaseEstimator::MeanDaysBetween(data::CategoryId c) const {
  SIGCHECK_GE(c, 0);
  SIGCHECK_LT(c, static_cast<data::CategoryId>(mean_days_.size()));
  return mean_days_[c];
}

int RepurchaseEstimator::CountRepurchasable() const {
  int count = 0;
  for (bool r : repurchasable_) count += r;
  return count;
}

void CandidateSelector::AppendSubtree(data::CategoryId c,
                                      std::vector<data::ItemIndex>* out) const {
  const auto& items = catalog_->ItemsInCategory(c);
  out->insert(out->end(), items.begin(), items.end());
  for (data::CategoryId child : catalog_->taxonomy().children(c)) {
    AppendSubtree(child, out);
  }
}

std::vector<data::ItemIndex> CandidateSelector::CollectSubtrees(
    std::vector<data::CategoryId> roots) const {
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  const data::Taxonomy& taxonomy = catalog_->taxonomy();
  std::vector<data::ItemIndex> items;
  for (data::CategoryId root : roots) {
    // Skip a root that lies under another root: its items come with that
    // subtree.
    const std::vector<data::CategoryId>& path = taxonomy.PathToRoot(root);
    const bool nested =
        std::any_of(path.begin() + 1, path.end(), [&](data::CategoryId a) {
          return std::binary_search(roots.begin(), roots.end(), a);
        });
    if (!nested) AppendSubtree(root, &items);
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return items;
}

std::vector<data::ItemIndex> CandidateSelector::Finalize(
    data::ItemIndex query, const std::vector<data::ItemIndex>& pool,
    const Options& options) const {
  std::vector<data::ItemIndex> result;
  result.reserve(std::min<size_t>(pool.size(), options.max_candidates));
  const int32_t query_facet = catalog_->item(query).facet;
  for (data::ItemIndex item : pool) {
    if (options.late_funnel && catalog_->item(item).facet != query_facet) {
      continue;
    }
    result.push_back(item);
    if (static_cast<int>(result.size()) >= options.max_candidates) break;
  }
  return result;
}

std::vector<data::ItemIndex> CandidateSelector::ViewPool(
    data::ItemIndex i, const Options& options) const {
  std::vector<data::CategoryId> roots;
  const auto& neighbors = cooccurrence_->CoViewed(i);
  const int expand = std::min<int>(options.max_co_items,
                                   static_cast<int>(neighbors.size()));
  for (int n = 0; n < expand; ++n) {
    roots.push_back(LcaRoot(neighbors[n].item, options.view_lca_k));
  }
  if (roots.empty()) {
    // Cold item: no co-view data; use its own taxonomy neighborhood.
    roots.push_back(LcaRoot(i, options.view_lca_k));
  }
  std::vector<data::ItemIndex> pool = CollectSubtrees(std::move(roots));
  auto self = std::lower_bound(pool.begin(), pool.end(), i);
  if (self != pool.end() && *self == i) pool.erase(self);
  return pool;
}

std::vector<data::ItemIndex> CandidateSelector::ViewBased(
    data::ItemIndex i, const Options& options) const {
  return Finalize(i, ViewPool(i, options), options);
}

std::vector<data::ItemIndex> CandidateSelector::PurchaseBased(
    data::ItemIndex i, const Options& options) const {
  const data::CategoryId category = catalog_->item(i).category;
  const bool repurchasable = repurchase_->IsRepurchasable(category);

  std::vector<data::CategoryId> roots;
  const auto& neighbors = cooccurrence_->CoBought(i);
  const int expand = std::min<int>(options.max_co_items,
                                   static_cast<int>(neighbors.size()));
  for (int n = 0; n < expand; ++n) {
    roots.push_back(LcaRoot(neighbors[n].item, options.purchase_lca_k));
  }
  if (roots.empty()) {
    // No co-purchase data: fall back to a wider taxonomy neighborhood so
    // cold items still get accessory candidates.
    roots.push_back(LcaRoot(i, options.purchase_lca_k + 1));
  }
  const std::vector<data::ItemIndex> pool = CollectSubtrees(std::move(roots));

  // Everything within lca_1 of i (same category), i itself included.
  std::vector<data::ItemIndex> own;
  AppendSubtree(category, &own);
  std::sort(own.begin(), own.end());
  std::vector<data::ItemIndex> merged;
  if (!repurchasable) {
    // Remove substitutes.
    std::set_difference(pool.begin(), pool.end(), own.begin(), own.end(),
                        std::back_inserter(merged));
  } else {
    // Re-purchasable: keep same-category items and the item itself for
    // periodic re-recommendation.
    std::set_union(pool.begin(), pool.end(), own.begin(), own.end(),
                   std::back_inserter(merged));
  }
  return Finalize(i, merged, options);
}

}  // namespace sigmund::core
