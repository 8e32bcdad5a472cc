#ifndef SIGMUND_CORE_CANDIDATE_SELECTOR_H_
#define SIGMUND_CORE_CANDIDATE_SELECTOR_H_

#include <vector>

#include "core/cooccurrence.h"
#include "data/catalog.h"
#include "data/retailer_data.h"

namespace sigmund::core {

// Detects re-purchasable categories (diapers, water, ...) by counting
// users who repeat purchases within the same category, and estimates the
// average time between purchases for periodic recommendations (§III-D1).
class RepurchaseEstimator {
 public:
  struct Options {
    // A category is re-purchasable when at least this fraction of its
    // buyers bought from it more than once...
    double min_repeat_fraction = 0.3;
    // ...and it has at least this many buyers (avoid tiny-sample flukes).
    int min_buyers = 5;
  };

  static RepurchaseEstimator Build(
      const std::vector<std::vector<data::Interaction>>& histories,
      const data::Catalog& catalog, const Options& options);

  bool IsRepurchasable(data::CategoryId c) const;

  // Mean days between consecutive same-category purchases (0 when the
  // category is not re-purchasable).
  double MeanDaysBetween(data::CategoryId c) const;

  // Number of re-purchasable categories found.
  int CountRepurchasable() const;

 private:
  std::vector<bool> repurchasable_;
  std::vector<double> mean_days_;
};

// Candidate selection (§III-D1): instead of scoring a retailer's whole
// catalog per context — quadratic in catalog size — Sigmund selects ~1e3
// likely candidates per item from the taxonomy and co-occurrence
// neighborhoods, making inference cost linear in the number of items.
class CandidateSelector {
 public:
  struct Options {
    // LCA expansion radius for view-based candidates (paper: k=2 trades
    // off precision vs. coverage well).
    int view_lca_k = 2;
    // Expansion radius for purchase-based candidates (paper: lca1 best).
    int purchase_lca_k = 1;
    // Co-viewed/co-bought neighbors expanded per query item.
    int max_co_items = 10;
    // Hard cap on returned candidates (~1000 in the paper).
    int max_candidates = 1000;
    // Late-funnel users: constrain candidates to the query item's facets.
    bool late_funnel = false;
  };

  // Pointers must outlive the selector; not owned.
  CandidateSelector(const data::Catalog* catalog,
                    const CooccurrenceModel* cooccurrence,
                    const RepurchaseEstimator* repurchase)
      : catalog_(catalog), cooccurrence_(cooccurrence),
        repurchase_(repurchase) {}

  // View-based (substitutes, before the purchase decision):
  //   C = union_{j in cv(i)} lca_k(j),
  // falling back to lca_k(i) for items with no co-view data (coverage for
  // cold items). Equals Finalize(i, ViewPool(i, options), options).
  std::vector<data::ItemIndex> ViewBased(data::ItemIndex i,
                                         const Options& options) const;

  // The view-based pool before the facet filter and cap: ascending,
  // deduplicated, without `i`. It does not depend on options.late_funnel,
  // so one pool serves both the plain and the late-funnel list.
  std::vector<data::ItemIndex> ViewPool(data::ItemIndex i,
                                        const Options& options) const;

  // Purchase-based (accessories/complements, after the purchase):
  //   C = union_{j in cb(i)} lca_1(j) \ lca_1(i),
  // except for re-purchasable categories, where same-category items
  // (including i itself) stay in — the item is recommended again after the
  // estimated inter-purchase interval.
  std::vector<data::ItemIndex> PurchaseBased(data::ItemIndex i,
                                             const Options& options) const;

  // Applies the late-funnel facet filter (against `query`'s facet) and the
  // max_candidates cap to an ascending, deduplicated pool.
  std::vector<data::ItemIndex> Finalize(
      data::ItemIndex query, const std::vector<data::ItemIndex>& pool,
      const Options& options) const;

 private:
  // Root of the subtree of categories within LCA distance k of item i.
  data::CategoryId LcaRoot(data::ItemIndex i, int k) const {
    return catalog_->taxonomy().LcaRoot(catalog_->item(i).category, k);
  }

  // Ascending, deduplicated items of the subtrees under `roots`. Roots are
  // deduplicated first, and roots inside another root's subtree dropped,
  // so each category's items are collected once.
  std::vector<data::ItemIndex> CollectSubtrees(
      std::vector<data::CategoryId> roots) const;

  // Appends the items of every category in the subtree under `c`.
  void AppendSubtree(data::CategoryId c,
                     std::vector<data::ItemIndex>* out) const;

  const data::Catalog* catalog_;
  const CooccurrenceModel* cooccurrence_;
  const RepurchaseEstimator* repurchase_;
};

}  // namespace sigmund::core

#endif  // SIGMUND_CORE_CANDIDATE_SELECTOR_H_
