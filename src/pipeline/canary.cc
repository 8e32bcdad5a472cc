#include "pipeline/canary.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/stats.h"

namespace sigmund::pipeline {

const char* VerdictName(CanaryController::Verdict verdict) {
  switch (verdict) {
    case CanaryController::Verdict::kPromoted:
      return "promoted";
    case CanaryController::Verdict::kRolledBack:
      return "rolled_back";
    case CanaryController::Verdict::kSkipped:
      return "skipped";
  }
  return "unknown";
}

CanaryController::CanaryController(const Options& options,
                                   obs::MetricRegistry* metrics)
    : options_(options),
      metrics_(obs::RequireRegistry(metrics, "CanaryController")) {}

void CanaryController::Count(const Outcome& outcome) const {
  const std::string& plane = options_.plane;
  metrics_
      ->GetCounter("canary_verdicts_total",
                   {{"plane", plane},
                    {"verdict", VerdictName(outcome.verdict)}})
      ->Add(1);
  if (outcome.canary_impressions + outcome.control_impressions == 0) return;
  metrics_
      ->GetCounter("canary_impressions_total",
                   {{"arm", "canary"}, {"plane", plane}})
      ->Add(outcome.canary_impressions);
  metrics_
      ->GetCounter("canary_impressions_total",
                   {{"arm", "control"}, {"plane", plane}})
      ->Add(outcome.control_impressions);
  metrics_
      ->GetCounter("canary_clicks_total",
                   {{"arm", "canary"}, {"plane", plane}})
      ->Add(outcome.canary_clicks);
  metrics_
      ->GetCounter("canary_clicks_total",
                   {{"arm", "control"}, {"plane", plane}})
      ->Add(outcome.control_clicks);
  if (outcome.early_stopped) {
    metrics_->GetCounter("canary_early_stops_total", {{"plane", plane}})
        ->Add(1);
  }
}

namespace {

// Two-proportion z statistic of canary vs. control CTR (the shared
// sequential-test math in common/stats.h, also used by the data sentry's
// drift checks).
double CtrZ(int canary_clicks, int canary_n, int control_clicks,
            int control_n) {
  return TwoProportionZ(canary_clicks, canary_n, control_clicks, control_n);
}

}  // namespace

CanaryController::Outcome CanaryController::Evaluate(
    data::RetailerId retailer, const serving::RecommendationStore& store,
    int64_t canary_version, const data::RetailerData& data, int day) const {
  Outcome outcome;
  const data::GroundTruthModel* truth =
      options_.oracle ? options_.oracle(retailer) : nullptr;
  // Nothing to canary against: no oracle, an empty world, or no active
  // batch yet (the first batch ships straight to 100%).
  if (!options_.enabled || truth == nullptr || data.num_users() == 0 ||
      data.num_items() == 0 || store.RetailerVersion(retailer) == 0) {
    outcome.verdict = Verdict::kSkipped;
    Count(outcome);
    return outcome;
  }

  data::CtrSimulator simulator(truth, options_.ctr);
  // Seeded per (seed, day, retailer): each day's traffic differs but
  // same-seed reruns are byte-identical.
  Rng rng(SplitMix64(options_.seed * 0x9E3779B97F4A7C15ULL ^
                     SplitMix64((static_cast<uint64_t>(day) << 32) ^
                                static_cast<uint64_t>(retailer))));

  bool decided = false;
  for (int i = 0; i < options_.max_impressions && !decided; ++i) {
    const bool canary_arm = rng.UniformDouble() < options_.canary_fraction;
    const data::UserIndex user =
        static_cast<data::UserIndex>(rng.Uniform(data.num_users()));
    const std::vector<data::Interaction>& history = data.histories[user];
    const data::ItemIndex context_item =
        history.empty()
            ? static_cast<data::ItemIndex>(rng.Uniform(data.num_items()))
            : history[rng.Uniform(history.size())].item;
    const core::Context context{{context_item, data::ActionType::kView}};
    std::vector<data::ItemIndex> ranked;
    if (options_.serve_hook) {
      // Serving-plane path: impressions the plane shed or answered from a
      // fallback say nothing about the staged batch — exclude them from
      // both arms so overload cannot masquerade as a bad canary.
      CanaryServe served = options_.serve_hook(
          retailer, context, canary_arm ? canary_version : 0);
      const bool shed =
          served.status.code() == StatusCode::kResourceExhausted;
      if (shed || (served.status.ok() && served.degraded)) {
        ++outcome.ignored_samples;
        metrics_
            ->GetCounter("canary_samples_ignored_total",
                         {{"plane", options_.plane},
                          {"reason", shed ? "shed" : "degraded"}})
            ->Add(1);
        continue;
      }
      if (served.status.ok()) {
        ranked.reserve(served.items.size());
        for (const core::ScoredItem& item : served.items) {
          ranked.push_back(item.item);
        }
      }
    } else {
      StatusOr<std::vector<core::ScoredItem>> list =
          store.ServeContextAtVersion(retailer, context,
                                      canary_arm ? canary_version : 0);
      if (list.ok()) {
        ranked.reserve(list->size());
        for (const core::ScoredItem& item : *list) {
          ranked.push_back(item.item);
        }
      }
    }
    const bool clicked =
        !ranked.empty() &&
        simulator.SimulateImpression(user, ranked, &rng) >= 0;
    if (canary_arm) {
      ++outcome.canary_impressions;
      if (clicked) ++outcome.canary_clicks;
    } else {
      ++outcome.control_impressions;
      if (clicked) ++outcome.control_clicks;
    }

    // Sequential check: call the verdict early once the z boundary is
    // crossed, so a clearly bad batch stops burning canary traffic.
    if (options_.early_stop_z > 0.0 && options_.check_every > 0 &&
        (i + 1) % options_.check_every == 0) {
      const double z = CtrZ(outcome.canary_clicks, outcome.canary_impressions,
                            outcome.control_clicks,
                            outcome.control_impressions);
      if (z <= -options_.early_stop_z &&
          outcome.control_clicks >= options_.min_clicks) {
        outcome.verdict = Verdict::kRolledBack;
        outcome.early_stopped = true;
        decided = true;
      } else if (z >= options_.early_stop_z) {
        outcome.verdict = Verdict::kPromoted;
        outcome.early_stopped = true;
        decided = true;
      }
    }
  }

  if (!decided) {
    // Final call: too little control signal passes (tiny retailers bounce
    // around zero clicks); otherwise the canary must hold its CTR. An
    // empty canary arm also passes: when every canary sample was excluded
    // (the whole plane shed or fell back, e.g. during a load spike) there
    // is no signal about the batch at all, and rolling back on a measured
    // CTR of 0/0 would be exactly the spurious-overload-rollback this
    // exclusion exists to prevent.
    if (outcome.control_clicks < options_.min_clicks ||
        outcome.canary_impressions == 0) {
      outcome.verdict = Verdict::kPromoted;
    } else {
      outcome.verdict = outcome.CanaryCtr() >=
                                options_.min_relative_ctr * outcome.ControlCtr()
                            ? Verdict::kPromoted
                            : Verdict::kRolledBack;
    }
  }
  Count(outcome);
  return outcome;
}

}  // namespace sigmund::pipeline
