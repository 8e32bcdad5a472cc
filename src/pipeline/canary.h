#ifndef SIGMUND_PIPELINE_CANARY_H_
#define SIGMUND_PIPELINE_CANARY_H_

#include <functional>

#include "common/metrics.h"
#include "data/ctr_simulator.h"
#include "data/retailer_data.h"
#include "data/world_generator.h"
#include "serving/store.h"

namespace sigmund::pipeline {

// Canary rollout with live-signal rollback — the rung of the safe-rollout
// ladder between the offline MAP gate and full promotion (DESIGN.md §7).
// The offline gate catches models that regressed on hold-out data; it
// cannot catch a batch that *evaluates* well but *serves* badly (poisoned
// materialization, corrupt candidate set, catalog mishap downstream of
// training). The canary catches those with live signal: a configurable
// fraction of simulated traffic is routed to the staged batch while the
// rest keeps hitting the active one, clicks are drawn from the
// ground-truth CTR oracle (data::CtrSimulator — the stand-in for the
// paper's online experiments, Fig. 6), and a simple sequential test
// compares the two arms. The batch is promoted only if canary CTR holds
// up against control; otherwise it is rolled back before it ever serves
// 100% of traffic.
//
// Deterministic: every impression, arm assignment and click is drawn from
// an Rng seeded by (options.seed, day, retailer), so same-seed reruns
// produce byte-identical verdicts.
class CanaryController {
 public:
  // What one canary impression was served, when routed through a serving
  // path that can shed or degrade (the Frontend). `status` with
  // kResourceExhausted = the request was shed by admission control;
  // `degraded` = the items came from a fallback (last-known-good,
  // popularity, brownout), not the batch under evaluation.
  struct CanaryServe {
    Status status;
    std::vector<core::ScoredItem> items;
    bool degraded = false;
  };

  struct Options {
    // Master switch; off = every staged batch promotes unexamined (the
    // pre-canary behavior).
    bool enabled = false;
    // Fraction of simulated impressions routed to the staged batch.
    double canary_fraction = 0.1;
    // Total simulated impressions per (retailer, day) evaluation.
    int max_impressions = 600;
    // Run the sequential check every this many impressions.
    int check_every = 50;
    // Promote iff canary CTR >= min_relative_ctr * control CTR (once
    // control has at least min_clicks clicks; below that the comparison
    // is noise and the batch promotes).
    double min_relative_ctr = 0.8;
    int min_clicks = 8;
    // Sequential early stop: |z| of the two-proportion test at which the
    // verdict is called before max_impressions (<= 0 disables).
    double early_stop_z = 3.0;
    uint64_t seed = 1;
    // Which rollout plane this controller gates — "batch" (materialized
    // recommendation batches) or "retrieval" (online ANN indexes). Pure
    // labeling: every canary_* counter carries plane=<this>, so the two
    // ladders stay separable in RunProfile and the daily report.
    std::string plane = "batch";
    // Click model of the simulated users.
    data::CtrSimulator::Config ctr;
    // Ground-truth oracle per retailer (the hidden preference model that
    // generated the data; used only for evaluation, never training).
    // Returning null skips the canary for that retailer.
    std::function<const data::GroundTruthModel*(data::RetailerId)> oracle;
    // Optional serve hook routing canary impressions through the full
    // serving plane (admission control + degradation ladder) instead of
    // straight off the store. `version` is the canary version for the
    // canary arm, 0 (active) for control. Shed (kResourceExhausted) and
    // degraded serves are EXCLUDED from both arms — an overloaded plane
    // sheds or falls back regardless of which batch is staged, so letting
    // those samples count as "impression, no click" would tank canary CTR
    // and auto-roll-back perfectly good batches during load spikes.
    // Excluded samples are counted in
    // canary_samples_ignored_total{reason=shed|degraded}.
    std::function<CanaryServe(data::RetailerId, const core::Context&,
                              int64_t version)>
        serve_hook;
  };

  enum class Verdict {
    kPromoted = 0,
    kRolledBack = 1,
    kSkipped = 2,  // canary off, no oracle, or nothing to compare against
  };

  struct Outcome {
    Verdict verdict = Verdict::kSkipped;
    int canary_impressions = 0;
    int control_impressions = 0;
    int canary_clicks = 0;
    int control_clicks = 0;
    bool early_stopped = false;
    // Impressions excluded from both arms because the serving plane shed
    // or degraded them (only nonzero when a serve_hook is installed).
    int ignored_samples = 0;

    double CanaryCtr() const {
      return canary_impressions > 0
                 ? static_cast<double>(canary_clicks) / canary_impressions
                 : 0.0;
    }
    double ControlCtr() const {
      return control_impressions > 0
                 ? static_cast<double>(control_clicks) / control_impressions
                 : 0.0;
    }
  };

  // `metrics` (borrowed) is required: verdicts/impressions/clicks land in
  // canary_* counters.
  CanaryController(const Options& options, obs::MetricRegistry* metrics);

  // Evaluates staged version `canary_version` of `retailer` against the
  // store's active version, simulating `data`'s users. `day` salts the
  // RNG so each day's traffic differs deterministically. Never mutates
  // the store: the caller activates or discards based on the verdict.
  Outcome Evaluate(data::RetailerId retailer,
                   const serving::RecommendationStore& store,
                   int64_t canary_version, const data::RetailerData& data,
                   int day) const;

  const Options& options() const { return options_; }

 private:
  void Count(const Outcome& outcome) const;

  Options options_;
  obs::MetricRegistry* metrics_;
};

const char* VerdictName(CanaryController::Verdict verdict);

}  // namespace sigmund::pipeline

#endif  // SIGMUND_PIPELINE_CANARY_H_
