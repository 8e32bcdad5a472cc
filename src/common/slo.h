#ifndef SIGMUND_COMMON_SLO_H_
#define SIGMUND_COMMON_SLO_H_

#include <stdint.h>

#include <deque>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace sigmund::obs {

// ---------------------------------------------------------------------------
// SLO burn-rate alerting over MetricRegistry deltas (Google-SRE-workbook
// multi-window multi-burn-rate policy).
//
// An objective declares what fraction of events must be good (e.g.
// availability 99.9%, or p99-style "latency under 50ms for 99% of
// requests"). The engine is fed periodic registry snapshots; for each
// objective it keeps a short history of (total, bad) counter values and
// computes the burn rate over a short and a long trailing window:
//
//   burn = (delta_bad / delta_total) / (1 - objective)
//
// burn == 1 means the error budget is being consumed exactly at the rate
// that exhausts it over the SLO period; burn >> 1 pages. An alert fires
// when BOTH windows exceed fire_burn_rate (the long window keeps blips
// from paging, the short window makes the alert resolve fast once the
// incident ends) and resolves when both fall back under
// resolve_burn_rate. Fire/resolve transitions append to the alert log
// and are surfaced in DailyReport / RunProfile JSON.
//
// Evaluation is pure bookkeeping over snapshots the caller already takes
// — the engine never touches the serving path, so wiring it in is
// provably passive (chaos_test asserts byte-identical outputs).
// ---------------------------------------------------------------------------

// One declared objective. Exactly one of the two modes is used:
//  * counter mode: bad_counter / total_counter (availability-style);
//  * latency mode: latency_histogram + threshold_micros — "good" events
//    landed in buckets whose upper bound is <= the threshold.
struct SloObjective {
  std::string name;  // e.g. "availability", "latency_user_facing"

  // Counter mode. Labels select instruments the way
  // RegistrySnapshot::CounterValue does: every label combination
  // carrying all of the given labels is summed.
  std::string total_counter;
  Labels total_labels;
  std::string bad_counter;
  Labels bad_labels;

  // Latency mode (used when latency_histogram is non-empty).
  std::string latency_histogram;
  Labels latency_labels;
  double threshold_micros = 0;

  // Fraction of events that must be good (0.999 = 99.9%).
  double objective = 0.999;
};

// One fire/resolve transition.
struct AlertEvent {
  int64_t time_micros = 0;
  std::string objective;
  bool firing = false;  // true = fired, false = resolved
  double burn_short = 0;
  double burn_long = 0;
};

class SloEngine {
 public:
  struct Options {
    std::vector<SloObjective> objectives;
    // Trailing evaluation windows. Defaults are scaled for simulated
    // serving scenarios; production values would be 5m/1h.
    int64_t short_window_micros = 5'000'000;
    int64_t long_window_micros = 60'000'000;
    // Fire when both windows burn at >= this rate...
    double fire_burn_rate = 2.0;
    // ...resolve when both are back at <= this rate.
    double resolve_burn_rate = 1.0;
  };

  // `metrics` (borrowed) is required: burn-rate gauges and alert
  // counters land in it.
  SloEngine(const Options& options, MetricRegistry* metrics);
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  // Ingests one snapshot taken at `now_micros` (monotonic, same clock
  // domain across calls) and updates burn rates + alert states. Returns
  // the number of state transitions (fires + resolves) this evaluation.
  int Evaluate(const RegistrySnapshot& snapshot, int64_t now_micros);

  // Current state, per objective in declaration order.
  struct ObjectiveState {
    std::string name;
    bool firing = false;
    double burn_short = 0;
    double burn_long = 0;
  };
  std::vector<ObjectiveState> States() const;

  // Every fire/resolve transition so far, in time order.
  const std::vector<AlertEvent>& alert_log() const { return alert_log_; }
  int FiringCount() const;
  int64_t FiredTotal() const { return fired_total_; }
  int64_t ResolvedTotal() const { return resolved_total_; }

  // {"objectives": [...], "alerts": [...]} — the RunProfile "slo"
  // section.
  std::string ToJson() const;

  const Options& options() const { return options_; }

 private:
  struct Sample {
    int64_t time_micros = 0;
    int64_t total = 0;
    int64_t bad = 0;
  };
  struct Tracker {
    std::deque<Sample> samples;  // time-ordered
    bool firing = false;
    double burn_short = 0;
    double burn_long = 0;
  };

  // (total, bad) for objective `o` out of `snapshot`.
  static Sample Measure(const SloObjective& o,
                        const RegistrySnapshot& snapshot,
                        int64_t now_micros);
  // Burn rate over the trailing window ending at the newest sample.
  static double Burn(const SloObjective& o, const Tracker& tracker,
                     int64_t window_micros);

  Options options_;
  MetricRegistry* metrics_;
  std::vector<Tracker> trackers_;  // parallel to options_.objectives
  std::vector<AlertEvent> alert_log_;
  int64_t fired_total_ = 0;
  int64_t resolved_total_ = 0;
};

}  // namespace sigmund::obs

#endif  // SIGMUND_COMMON_SLO_H_
