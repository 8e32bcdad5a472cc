#ifndef SIGMUND_SERVING_LOADGEN_H_
#define SIGMUND_SERVING_LOADGEN_H_

#include <stdint.h>

#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/slo.h"
#include "common/trace.h"
#include "serving/admission.h"

namespace sigmund::serving {

// Deterministic discrete-event load harness for the admission-controlled
// serving plane (DESIGN.md §8). Simulates millions of users against an
// AdmissionController over a SimClock — nothing sleeps, and a same-seed
// rerun replays byte-identical arrivals, admissions, sheds and
// completions (asserted via LoadGenReport::decision_hash).
//
// Traffic model:
//  - Open-loop user-facing arrivals at `open_rps` (exponential
//    inter-arrival), optionally modulated by a diurnal sine and a flash
//    crowd window — load that does NOT slow down when the server does,
//    which is what makes congestion collapse possible.
//  - A closed-loop population of `closed_users`, each issuing a request,
//    thinking for ~`think_seconds`, and repeating — load with natural
//    back-pressure.
//  - Low-priority probe and canary streams at fixed rates, used to check
//    that shedding is strictly priority-ordered.
//  - Client retries on shed with backoff — the retry-storm ingredient —
//    optionally capped by a client-side retry budget.
//
// Service model: the simulated backend serves `server_capacity` requests
// at full speed; past that, service time inflates linearly with
// concurrency (each in-flight request gets a 1/c share of the machine).
// So an unprotected plane (huge static concurrency limit) melts under
// sustained overload, while the adaptive limiter holds latency near its
// target and goodput near capacity.
struct LoadGenOptions {
  uint64_t seed = 1;
  double duration_seconds = 60.0;

  // --- Traffic mix.
  int num_retailers = 100;
  // Power-law retailer popularity: retailer r drawn ∝ 1/(r+1)^exponent.
  double zipf_exponent = 1.1;
  double open_rps = 0.0;
  int closed_users = 0;
  double think_seconds = 1.0;
  double probe_rps = 0.0;
  double canary_rps = 0.0;

  // --- Load shape (applies to the open-loop stream).
  // rate(t) = open_rps × (1 + amplitude·sin(2πt/period)) × flash(t).
  double diurnal_amplitude = 0.0;
  double diurnal_period_seconds = 86400.0;
  // flash(t) = flash_factor inside [flash_at, flash_at + flash_duration).
  double flash_at_seconds = -1.0;
  double flash_duration_seconds = 0.0;
  double flash_factor = 1.0;

  // --- Client retry behavior on shed responses (user-facing only).
  int client_retries = 0;
  double retry_backoff_seconds = 0.05;
  // Client-side retry budget ratio; < 0 = unlimited retries (storm mode).
  double retry_budget_ratio = -1.0;

  // --- Service model.
  int64_t service_micros = 2000;
  int64_t service_jitter_micros = 500;
  int server_capacity = 16;
  // End-to-end deadline per request (arrival-relative); 0 = none. A
  // completion past its deadline is counted, but not goodput.
  int64_t deadline_micros = 50000;

  // The admission plane under test. An "unprotected" baseline is modeled
  // by pinning min/max/initial limit to a huge value.
  AdmissionController::Options admission;

  // --- Request tracing (tail-based sampling). Provably passive: every
  // keep decision is a pure hash of (trace id, trace.seed), so enabling
  // tracing changes neither the simulation RNG stream nor any admission
  // decision — decision_hash is byte-identical with tracing on or off.
  bool trace_requests = false;
  obs::RequestTracer::Options trace;

  // --- SLO burn-rate evaluation over the run's metrics. Evaluation
  // events live in their own event-sequence space, so enabling them
  // never perturbs the tie-break order of simulation events (passivity,
  // again asserted via decision_hash).
  bool slo_enabled = false;
  obs::SloEngine::Options slo;
  double slo_eval_interval_seconds = 0.25;
};

struct LoadGenPriorityStats {
  int64_t offered = 0;    // fresh arrivals (retries not included)
  int64_t retries = 0;    // re-offers after a shed
  int64_t admitted = 0;   // entered service
  int64_t shed = 0;       // refused (immediately or from the queue)
  int64_t completed = 0;
  int64_t good = 0;       // completed within deadline
  int64_t late = 0;
};

struct LoadGenReport {
  LoadGenPriorityStats priorities[kNumRequestPriorities];
  std::map<std::string, int64_t> shed_by_reason;
  int64_t total_offered = 0;
  int64_t total_completed = 0;
  double offered_rps = 0.0;
  // Good (in-deadline) completions per second of simulated time — THE
  // overload metric: stays near capacity on a healthy plane, falls toward
  // zero in congestion collapse.
  double goodput_rps = 0.0;
  double p50_latency_micros = 0.0;
  double p99_latency_micros = 0.0;
  // Strict priority-ordered shedding evidence: every probe admission
  // happened at occupancy <= this ...
  double max_occupancy_probe_admitted = 0.0;
  // ... and every user-facing *capacity* shed (watermark or queue-full;
  // deadline/CoDel sheds are timing, not priority) at occupancy >= this
  // (2.0 = no user request was ever capacity-shed). Ordered shedding ⇒
  // the first stays below the second.
  double min_occupancy_user_shed = 2.0;
  int64_t retries_suppressed = 0;  // blocked by the client retry budget
  int final_concurrency_limit = 0;
  double final_pressure = 0.0;
  // FNV-1a over every (time, stream, outcome) decision; byte-identical
  // across same-seed reruns.
  uint64_t decision_hash = 0;

  // --- Tracing (zero / empty unless trace_requests). A request is
  // "terminally shed" when its final outcome was a shed (no retry left);
  // the tail sampler keeps 100% of those, so terminal_sheds ==
  // shed_traces_kept, and likewise every late completion is kept.
  int64_t traces_started = 0;
  int64_t traces_kept = 0;
  int64_t terminal_sheds = 0;
  int64_t shed_traces_kept = 0;
  int64_t deadline_overruns = 0;  // completions past their deadline
  int64_t late_traces_kept = 0;
  // Kept traces, oldest first (bounded by trace.max_kept_traces).
  std::vector<obs::RequestTraceRecord> kept_traces;

  // --- SLO alerting (zero / empty unless slo_enabled).
  int64_t slo_alerts_fired = 0;
  int64_t slo_alerts_resolved = 0;
  std::vector<obs::AlertEvent> slo_alerts;
  std::string slo_json;  // SloEngine::ToJson(); "" when disabled
};

// Runs one simulation. `metrics` (borrowed) receives the
// AdmissionController's counters/gauges, so a DailyReport built around a
// load test shows the shed/brownout story end to end; null counts into a
// registry the simulation owns.
LoadGenReport RunLoadGenerator(const LoadGenOptions& options,
                               obs::MetricRegistry* metrics = nullptr);

}  // namespace sigmund::serving

#endif  // SIGMUND_SERVING_LOADGEN_H_
