#include "core/inference.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace sigmund::core {

namespace {

std::string SerializeList(const std::vector<ScoredItem>& items) {
  std::string out;
  for (size_t k = 0; k < items.size(); ++k) {
    if (k > 0) out += ',';
    out += StrFormat("%d:%.6g", items[k].item, items[k].score);
  }
  return out;
}

StatusOr<std::vector<ScoredItem>> DeserializeList(const std::string& text) {
  std::vector<ScoredItem> items;
  if (text.empty()) return items;
  for (const std::string& piece : StrSplit(text, ',')) {
    std::vector<std::string> kv = StrSplit(piece, ':');
    int64_t item = 0;
    double score = 0.0;
    if (kv.size() != 2 || !ParseInt64(kv[0], &item) ||
        !ParseDouble(kv[1], &score)) {
      return DataLossError("malformed scored item: " + piece);
    }
    items.push_back(ScoredItem{static_cast<data::ItemIndex>(item), score});
  }
  return items;
}

}  // namespace

std::string ItemRecommendations::Serialize() const {
  return StrFormat("%d|%s|%s|%s", query, SerializeList(view_based).c_str(),
                   SerializeList(purchase_based).c_str(),
                   SerializeList(view_based_late).c_str());
}

StatusOr<ItemRecommendations> ItemRecommendations::Deserialize(
    const std::string& text) {
  std::vector<std::string> parts = StrSplit(text, '|');
  if (parts.size() != 4) {
    return DataLossError("malformed recommendations");
  }
  int64_t query = 0;
  if (!ParseInt64(parts[0], &query)) {
    return DataLossError("malformed query item");
  }
  ItemRecommendations recs;
  recs.query = static_cast<data::ItemIndex>(query);
  StatusOr<std::vector<ScoredItem>> view = DeserializeList(parts[1]);
  if (!view.ok()) return view.status();
  StatusOr<std::vector<ScoredItem>> purchase = DeserializeList(parts[2]);
  if (!purchase.ok()) return purchase.status();
  StatusOr<std::vector<ScoredItem>> late = DeserializeList(parts[3]);
  if (!late.ok()) return late.status();
  recs.view_based = std::move(view).value();
  recs.purchase_based = std::move(purchase).value();
  recs.view_based_late = std::move(late).value();
  return recs;
}

InferenceEngine::InferenceEngine(const BprModel* model,
                                 const CandidateSelector* selector)
    : model_(model), selector_(selector) {
  SIGCHECK(model != nullptr);
  SIGCHECK(selector != nullptr);
  phi_ = model->BuildPhiTable();
}

std::vector<ScoredItem> InferenceEngine::RankCandidates(
    const Context& context, const std::vector<data::ItemIndex>& candidates,
    int top_k) const {
  const int d = model_->dim();
  // Per-thread buffers: concurrent map tasks rank on several threads.
  thread_local std::vector<float> user_vec;
  thread_local std::vector<ScoredItem> scored;
  user_vec.resize(d);
  model_->UserEmbedding(context, user_vec.data());

  scored.clear();
  for (data::ItemIndex item : candidates) {
    scored.push_back(ScoredItem{
        item, model_->ScoreWithPhi(user_vec.data(),
                                   phi_.data() + static_cast<size_t>(item) * d)});
  }
  const size_t keep = std::min<size_t>(top_k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    [](const ScoredItem& a, const ScoredItem& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.item < b.item;
                    });
  return std::vector<ScoredItem>(scored.begin(), scored.begin() + keep);
}

ItemRecommendations InferenceEngine::RecommendForItem(
    data::ItemIndex i, const Options& options) const {
  ItemRecommendations recs;
  recs.query = i;
  const Context view_context = {{i, data::ActionType::kView}};
  // One view-based pool, finalized for the plain and the late-funnel list.
  const std::vector<data::ItemIndex> view_pool =
      selector_->ViewPool(i, options.selector);
  recs.view_based =
      RankCandidates(view_context,
                     selector_->Finalize(i, view_pool, options.selector),
                     options.top_k);
  recs.purchase_based =
      RankCandidates(Context{{i, data::ActionType::kConversion}},
                     selector_->PurchaseBased(i, options.selector),
                     options.top_k);
  if (options.materialize_late_funnel) {
    CandidateSelector::Options late = options.selector;
    late.late_funnel = true;
    recs.view_based_late =
        RankCandidates(view_context, selector_->Finalize(i, view_pool, late),
                       options.top_k);
  }
  return recs;
}

std::vector<ItemRecommendations> InferenceEngine::MaterializeAll(
    const Options& options) const {
  const int n = model_->catalog().num_items();
  std::vector<ItemRecommendations> all(n);
  for (data::ItemIndex i = 0; i < n; ++i) {
    all[i] = RecommendForItem(i, options);
  }
  return all;
}

ItemRecommendations InferenceEngine::RecommendForItemFullScan(
    data::ItemIndex i, int top_k) const {
  std::vector<data::ItemIndex> everything;
  everything.reserve(model_->catalog().num_items());
  for (data::ItemIndex j = 0; j < model_->catalog().num_items(); ++j) {
    if (j != i) everything.push_back(j);
  }
  ItemRecommendations recs;
  recs.query = i;
  recs.view_based = RankCandidates(Context{{i, data::ActionType::kView}},
                                   everything, top_k);
  recs.purchase_based = RankCandidates(
      Context{{i, data::ActionType::kConversion}}, everything, top_k);
  return recs;
}

}  // namespace sigmund::core
