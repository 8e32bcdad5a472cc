#include "core/evaluator.h"

#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace sigmund::core {

std::string MetricSet::ToString() const {
  return StrFormat(
      "map@k=%.4f p@k=%.4f recall@k=%.4f ndcg@k=%.4f auc=%.4f "
      "mean_rank=%.1f n=%lld",
      map_at_k, precision_at_k, recall_at_k, ndcg_at_k, auc, mean_rank,
      static_cast<long long>(num_examples));
}

double Evaluator::EstimateRank(const BprModel& model,
                               const std::vector<float>& phi_table,
                               const TrainingData& train,
                               data::UserIndex user, const float* user_vec,
                               data::ItemIndex target, const Options& options,
                               Rng* rng) {
  const int d = model.dim();
  const int n = model.catalog().num_items();
  const double target_score = model.ScoreWithPhi(
      user_vec, phi_table.data() + static_cast<size_t>(target) * d);

  const bool sampled = options.item_sample_fraction < 1.0;
  int64_t higher = 0;
  int64_t considered = 0;
  // The user's seen row is sorted, so one cursor walks it alongside j.
  const std::span<const data::ItemIndex> seen = train.SeenItems(user);
  auto next_seen = seen.begin();
  for (data::ItemIndex j = 0; j < n; ++j) {
    if (j == target) continue;
    if (options.exclude_seen) {
      while (next_seen != seen.end() && *next_seen < j) ++next_seen;
      if (next_seen != seen.end() && *next_seen == j) continue;
    }
    if (sampled && !rng->Bernoulli(options.item_sample_fraction)) continue;
    ++considered;
    double score = model.ScoreWithPhi(
        user_vec, phi_table.data() + static_cast<size_t>(j) * d);
    if (score > target_score) ++higher;
  }
  if (!sampled) return 1.0 + higher;
  if (considered == 0) return 1.0;
  // Scale the sampled higher-count back to the full catalog.
  return 1.0 + higher / options.item_sample_fraction;
}

MetricSet Evaluator::Evaluate(const BprModel& model,
                              const TrainingData& train,
                              const std::vector<data::HoldoutExample>& holdout,
                              const Options& options) {
  MetricSet metrics;
  if (holdout.empty()) return metrics;

  Rng rng(options.seed);
  const std::vector<float> phi_table = model.BuildPhiTable();
  std::vector<float> user_vec(model.dim());
  const int n = model.catalog().num_items();

  Context context;
  for (const data::HoldoutExample& example : holdout) {
    train.FullContext(example.user, model.params().context_window, &context);
    model.UserEmbedding(context, user_vec.data());
    double rank = EstimateRank(model, phi_table, train, example.user,
                               user_vec.data(), example.held_out, options,
                               &rng);
    ++metrics.num_examples;
    metrics.mean_rank += rank;
    if (rank <= options.k) {
      // With a single relevant item, AP = 1/rank when it appears in the
      // top k, else 0; P@k counts it among k slots; recall = hit rate.
      metrics.map_at_k += 1.0 / rank;
      metrics.precision_at_k += 1.0 / options.k;
      metrics.recall_at_k += 1.0;
      metrics.ndcg_at_k += 1.0 / std::log2(rank + 1.0);
    }
    // AUC: fraction of distractors ranked below the held-out item.
    double distractors = std::max(1, n - 1);
    metrics.auc += (distractors - (rank - 1.0)) / distractors;
  }

  const double count = metrics.num_examples;
  metrics.map_at_k /= count;
  metrics.precision_at_k /= count;
  metrics.recall_at_k /= count;
  metrics.ndcg_at_k /= count;
  metrics.auc /= count;
  metrics.mean_rank /= count;
  return metrics;
}

}  // namespace sigmund::core
