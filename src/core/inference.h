#ifndef SIGMUND_CORE_INFERENCE_H_
#define SIGMUND_CORE_INFERENCE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/candidate_selector.h"
#include "core/model.h"

namespace sigmund::core {

// A recommended item with its model score.
struct ScoredItem {
  data::ItemIndex item = data::kInvalidItem;
  double score = 0.0;
};

// Offline-materialized recommendations for one query item: the substitute
// list (shown before the purchase decision) and the accessory/complement
// list (shown after), per Fig. 1 of the paper, plus an optional
// late-funnel substitute variant constrained to the query item's facets
// (§III-D1).
struct ItemRecommendations {
  data::ItemIndex query = data::kInvalidItem;
  std::vector<ScoredItem> view_based;
  std::vector<ScoredItem> purchase_based;
  // Facet-constrained substitutes for late-funnel users; empty unless the
  // inference job materialized them.
  std::vector<ScoredItem> view_based_late;

  // Human-readable debug encoding ("query|id:score,...|...|..."; %.6g
  // scores). No pipeline or serving path uses it: batches, mapper records
  // and flash records are binary (core/recommendation_batch.h).
  std::string Serialize() const;
  static StatusOr<ItemRecommendations> Deserialize(const std::string& text);
};

// Ranks candidate-selected items with the BPR model and materializes
// top-K recommendations per item (§III-D). This is the computation the
// inference MapReduce runs in its map phase.
class InferenceEngine {
 public:
  struct Options {
    int top_k = 10;
    CandidateSelector::Options selector;
    // Also materialize the facet-constrained late-funnel substitute list
    // (§III-D1).
    bool materialize_late_funnel = false;
  };

  // Pointers are borrowed and must outlive the engine. The engine builds
  // the model's phi(i) table here and scores every candidate against it,
  // so the model must be final (trained or loaded) before the engine is
  // constructed.
  InferenceEngine(const BprModel* model, const CandidateSelector* selector);

  // Ranks `candidates` for an arbitrary user context, highest score first.
  std::vector<ScoredItem> RankCandidates(
      const Context& context, const std::vector<data::ItemIndex>& candidates,
      int top_k) const;

  // Recommendations for the single-item context `i` (view-based uses a
  // view context, purchase-based a conversion context).
  ItemRecommendations RecommendForItem(data::ItemIndex i,
                                       const Options& options) const;

  // Materializes recommendations for every item in the catalog, on the
  // calling thread.
  std::vector<ItemRecommendations> MaterializeAll(
      const Options& options) const;

  // Naive alternative that scores the full catalog instead of selected
  // candidates — quadratic; kept as the baseline for the scaling
  // experiment (§IV-C1).
  ItemRecommendations RecommendForItemFullScan(data::ItemIndex i,
                                               int top_k) const;

  const BprModel& model() const { return *model_; }

 private:
  const BprModel* model_;
  const CandidateSelector* selector_;
  std::vector<float> phi_;  // model_->BuildPhiTable()
};

}  // namespace sigmund::core

#endif  // SIGMUND_CORE_INFERENCE_H_
