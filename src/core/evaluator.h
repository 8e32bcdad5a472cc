#ifndef SIGMUND_CORE_EVALUATOR_H_
#define SIGMUND_CORE_EVALUATOR_H_

#include <string>
#include <vector>

#include "core/model.h"
#include "core/training_data.h"
#include "data/retailer_data.h"

namespace sigmund::core {

// Ranking metrics over a hold-out set (§III-C2). MAP@10 is the selection
// metric; AUC is computed but deliberately not used for selection (the
// paper: equal positional weighting, tiny differences for big retailers).
struct MetricSet {
  double map_at_k = 0.0;
  double precision_at_k = 0.0;
  double recall_at_k = 0.0;  // hit rate, since exactly one item is held out
  double ndcg_at_k = 0.0;
  double auc = 0.0;
  double mean_rank = 0.0;
  int64_t num_examples = 0;

  std::string ToString() const;
};

// Scores hold-out examples by ranking the held-out item against the
// catalog (or a sampled fraction of it, the paper's 10% CPU-saving
// estimate for large retailers).
class Evaluator {
 public:
  struct Options {
    int k = 10;
    // Fraction of the catalog used as ranking distractors; 1.0 = exact.
    double item_sample_fraction = 1.0;
    // Exclude items the user already interacted with from the ranking.
    bool exclude_seen = true;
    uint64_t seed = 7;
  };

  // `train` provides each hold-out user's context and seen-set; `holdout`
  // comes from SplitLeaveLastOut on the same retailer.
  static MetricSet Evaluate(const BprModel& model, const TrainingData& train,
                            const std::vector<data::HoldoutExample>& holdout,
                            const Options& options);

  // Rank of `target` for the given user vector: 1 + #distractors scoring
  // strictly higher. With sampling, the rank is estimated by scaling the
  // sampled higher-count by 1/fraction. `phi_table` must hold the
  // model's BuildPhiTable().
  static double EstimateRank(const BprModel& model,
                             const std::vector<float>& phi_table,
                             const TrainingData& train, data::UserIndex user,
                             const float* user_vec, data::ItemIndex target,
                             const Options& options, Rng* rng);
};

}  // namespace sigmund::core

#endif  // SIGMUND_CORE_EVALUATOR_H_
