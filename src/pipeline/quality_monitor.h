#ifndef SIGMUND_PIPELINE_QUALITY_MONITOR_H_
#define SIGMUND_PIPELINE_QUALITY_MONITOR_H_

#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "data/types.h"

namespace sigmund::pipeline {

// Per-retailer quality guardrail. The paper's introduction promises that
// "recommendation quality is monitored and maintained" (§I, §III): with
// thousands of unattended models retraining daily, a silent regression —
// bad data day, diverged trial, catalog mishap — must not reach serving.
//
// The monitor keeps a trailing window of each retailer's best hold-out
// MAP@10 and flags a daily result that falls too far below the trailing
// best; the service then keeps serving yesterday's recommendations for
// that retailer instead of loading the regressed batch.
class QualityMonitor {
 public:
  struct Options {
    // A day regresses if its MAP < (1 - max_relative_drop) * trailing best.
    double max_relative_drop = 0.5;
    // Days of history kept per retailer.
    int history_days = 7;
    // Below this MAP the trailing best is considered noise and everything
    // passes (tiny retailers bounce around 0).
    double min_meaningful_map = 0.01;
  };

  enum class Verdict {
    kFirstObservation = 0,  // no history yet — always accepted
    kOk = 1,
    kRegressed = 2,
  };

  // `metrics` (borrowed) is required: every Record() call bumps
  // quality_verdicts_total{verdict=...}. Verdicts never depend on the
  // registry, only feed it.
  QualityMonitor(const Options& options, obs::MetricRegistry* metrics);

  // Records today's best hold-out MAP for a retailer and returns the
  // verdict. Regressed observations are recorded too (so a persistent
  // new plateau eventually becomes the baseline once the old history
  // ages out).
  Verdict Record(data::RetailerId retailer, double map_at_10);

  // Best MAP in the trailing window (0 if unknown retailer).
  double TrailingBest(data::RetailerId retailer) const;

  int days_observed(data::RetailerId retailer) const;

  // Crash-recovery snapshot of the trailing-MAP history (DESIGN.md §13):
  // a guardrail that forgets its baselines on restart would wave a
  // regressed batch straight into serving. Deterministic encoding; the
  // restored monitor produces bit-identical verdicts.
  std::string SerializeState() const;
  Status RestoreState(std::string_view bytes);

 private:
  Options options_;
  obs::MetricRegistry* metrics_;
  std::map<data::RetailerId, std::deque<double>> history_;
};

const char* VerdictName(QualityMonitor::Verdict verdict);

}  // namespace sigmund::pipeline

#endif  // SIGMUND_PIPELINE_QUALITY_MONITOR_H_
