#ifndef SIGMUND_SERVING_FRONTEND_H_
#define SIGMUND_SERVING_FRONTEND_H_

#include <list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/calibration.h"
#include "core/funnel.h"
#include "serving/admission.h"
#include "serving/store.h"

namespace sigmund::serving {

// One serving request: "recommendations given a user and the associated
// context" (§II-A of the paper).
struct RecommendationRequest {
  data::RetailerId retailer = 0;
  core::Context context;
  // Stable user identity for sticky experiment splits (retrieval A/B arm
  // assignment); -1 = anonymous, in which case the latest context item
  // stands in as the split key.
  data::UserIndex user = -1;
  int max_results = 10;
  // Minimum calibrated click probability to display a recommendation
  // (§VII future work); <= 0 disables thresholding (always show top-K).
  double display_threshold = 0.0;
  // Priority class for admission control: under overload the lowest class
  // is shed first (user-facing > canary > health-probe).
  RequestPriority priority = RequestPriority::kUserFacing;
  // Caller-owned request trace to annotate (inactive = none). When left
  // inactive and the frontend has a `request_tracer`, Handle() starts,
  // populates, and submits its own trace for the request.
  obs::TraceContext trace;
};

// Where the served list came from — the store itself, or a rung of the
// degradation ladder.
enum class ServingSource {
  kStore,           // healthy path
  kLastKnownGood,   // store failed; replayed this retailer's last good list
  kPopularity,      // no last-known-good either; static popularity list
  // Brownout rung 3: the store is healthy but the plane is saturated, so
  // the cached last-known-good list is served without a store call.
  kBrownoutLastKnownGood,
  // Healthy serve from the online embedding-retrieval plane (ANN index)
  // instead of the materialized store — the A/B treatment arm.
  kOnlineRetrieval,
};

const char* ServingSourceName(ServingSource source);

struct RecommendationResponse {
  std::vector<core::ScoredItem> items;
  // Diagnostics for logging/experimentation.
  core::FunnelStage funnel = core::FunnelStage::kEarly;
  bool post_purchase = false;
  int suppressed_by_threshold = 0;
  // Degradation diagnostics: true when the response was served from a
  // fallback instead of the store.
  bool degraded = false;
  ServingSource source = ServingSource::kStore;
  // The serving batch version the items came from: the store's active
  // version for kStore, the version cached alongside a last-known-good
  // list for kLastKnownGood, 0 for popularity fallbacks (which belong to
  // no snapshot). Makes every degraded/fallback/canary serve attributable
  // to a concrete snapshot in logs and RunProfile.
  int64_t batch_version = 0;
  // Brownout ladder rung this response was served under (0 = healthy;
  // 1 = max_results shrunk; 2 = calibration thresholding skipped too;
  // 3 = answered from last-known-good without touching the store).
  int brownout_rung = 0;
  // When the store lookup finished past the request deadline: how late it
  // was, in micros (0 otherwise). Lets brownout triggers key on the size
  // of tail overruns rather than just failure counts.
  int64_t overrun_micros = 0;
};

// Frontend::Options. Declared at namespace scope so that the Frontend
// constructor can default it.
struct FrontendOptions {
  // Per-request deadline (microseconds on `clock`); 0 = none. A store
  // lookup that finishes past the deadline counts as a failure.
  int64_t request_deadline_micros = 0;
  // Consecutive store errors (per retailer) that trip the breaker;
  // 0 = breaker disabled.
  int breaker_failure_threshold = 0;
  // How long a tripped breaker stays open before the next probe.
  double breaker_open_seconds = 30.0;

  // LRU cap on per-retailer state entries (breaker + fallback cache);
  // 0 = unbounded (legacy). Evictions are counted in
  // serving_state_evictions_total; the live size is the
  // serving_state_entries gauge.
  int max_retailer_states = 0;

  // Admission control (borrowed; null = accept everything, the legacy
  // behavior). Shed requests return kResourceExhausted and are counted
  // by reason/priority in serving_shed_total.
  AdmissionController* admission = nullptr;

  // Brownout ladder: rung thresholds on the controller's sustained
  // pressure signal (EWMA occupancy in [0, 1]). Rungs only engage when
  // `admission` is wired.
  double brownout_shrink_pressure = 0.85;      // rung 1
  double brownout_skip_threshold_pressure = 0.92;  // rung 2
  double brownout_serve_lkg_pressure = 0.97;   // rung 3
  // Rung >= 1 caps max_results at this.
  int brownout_max_results = 3;

  // Client retries of transient store failures per request; 0 = none.
  // Every retry must withdraw from `retry_budget`, so sustained retry
  // volume is capped at a fraction of real request volume.
  int store_retries = 0;
  RetryBudget::Options retry_budget;

  // Online retrieval plane (borrowed; null = off). When set, a sticky
  // hash split of (retailer, user) routes `retrieval_ab_fraction` of
  // requests to this reader (the ANN-index path) instead of the
  // materialized store — but only for retailers whose reader has an
  // active index version, so rolling an index back (version -> 0)
  // instantly returns the whole retailer to the materialized plane. A
  // retrieval lookup that fails falls back to the materialized store in
  // the same request before the degradation ladder is consulted.
  const ServingReader* retrieval_store = nullptr;
  // Fraction of eligible traffic served by the retrieval plane.
  // Monotone ramp-up: raising it only moves users *into* the arm.
  double retrieval_ab_fraction = 0.0;
  // Seed of the sticky split; changing it reshuffles arm membership.
  uint64_t retrieval_ab_seed = 0x5e72;

  // Request tracer (borrowed; null = tracing off). Every Handle() whose
  // request carries no caller trace builds one span tree — admission
  // decision, brownout rung, store lookup with retry/hedge annotations,
  // deadline overrun, fallback source — and submits it to the tracer's
  // tail sampler; kept traces become exemplars on
  // serving_request_micros. Requests that do carry a caller trace are
  // annotated in place (submission stays with the caller).
  obs::RequestTracer* request_tracer = nullptr;
};

// The request path in front of the store: picks the right materialized
// list (pre/post purchase, early/late funnel), applies the calibrated
// display threshold, and truncates to max_results.
//
// Robustness (degradation ladder, serving rungs): a per-request deadline
// turns slow store lookups into failures; a per-retailer circuit breaker
// trips after `breaker_failure_threshold` consecutive store errors and
// short-circuits requests (no store call) until `breaker_open_seconds`
// pass, then lets one probe through (half-open); failed or
// short-circuited requests fall back to the retailer's last successfully
// served list, then to a static popularity list, before giving up and
// returning the error.
//
// Overload robustness (DESIGN.md §8): when an AdmissionController is
// wired in, every request passes admission first — shed requests return
// kResourceExhausted without touching the store — and the controller's
// sustained-pressure signal drives a brownout ladder that degrades
// response quality in rungs (shrink max_results, skip calibration
// thresholding, answer from last-known-good) before anything sheds.
// Transient store failures may be retried, but only inside a
// Finagle-style retry budget so retries can never multiply offered load.
//
// Thread-safe; the fallback cache and breaker state are internally
// synchronized, and the per-retailer state map is LRU-bounded by
// `max_retailer_states` so serving 100k retailers cannot leak memory.
class Frontend {
 public:
  using Options = FrontendOptions;

  // `store` is required — any ServingReader: a plain RecommendationStore,
  // a ReplicatedStoreGroup, or a test's fake. `calibrator` may be nullptr
  // (no thresholding). `metrics` (borrowed) is required: every Handle()
  // records a serving_request_micros latency sample and bumps
  // serving_requests_total{outcome=ok|shed|error, version=...} (version =
  // the serving batch version the request was answered from), plus the
  // breaker/fallback/admission counters described in Options. `clock` is
  // the time source for latency, deadlines and breaker cooldowns
  // (nullptr = RealClock).
  Frontend(const ServingReader* store,
           const core::ScoreCalibrator* calibrator,
           obs::MetricRegistry* metrics, const Clock* clock = nullptr,
           const Options& options = Options());

  StatusOr<RecommendationResponse> Handle(
      const RecommendationRequest& request) const;

  // Installs a popularity fallback list for `retailer` — the ladder's
  // last rung, served when the store fails and no last-known-good list
  // exists yet.
  void SetPopularityFallback(data::RetailerId retailer,
                             std::vector<core::ScoredItem> items);

  // True if `retailer`'s circuit breaker is currently open (requests are
  // short-circuited to fallbacks).
  bool BreakerOpen(data::RetailerId retailer) const;

  // Live per-retailer state entries (breaker + fallback cache).
  int NumRetailerStates() const;

 private:
  // Per-retailer serving health: breaker state + fallback cache.
  struct RetailerState {
    int consecutive_failures = 0;
    bool breaker_open = false;
    double open_until_seconds = 0.0;
    bool has_last_known_good = false;
    std::vector<core::ScoredItem> last_known_good;
    // Batch version the cached last-known-good list was served from.
    int64_t last_known_good_version = 0;
    bool has_popularity = false;
    std::vector<core::ScoredItem> popularity;
    // Position in the LRU list (most-recent at front).
    std::list<data::RetailerId>::iterator lru_it;
  };

  // Finds-or-creates `retailer`'s state, marks it most-recently-used, and
  // LRU-evicts past the cap. Caller holds mu_.
  RetailerState& TouchLocked(data::RetailerId retailer) const;

  const ServingReader* store_;
  const core::ScoreCalibrator* calibrator_;
  const Clock* clock_;
  Options options_;
  obs::MetricRegistry* metrics_;
  obs::Histogram* request_micros_;
  obs::Counter* retrieval_fallbacks_;
  obs::Counter* deadline_exceeded_;
  obs::Histogram* overrun_micros_;
  obs::Counter* breaker_trips_;
  obs::Counter* breaker_short_circuits_;
  obs::Counter* state_evictions_;
  obs::Gauge* state_entries_;
  obs::Counter* client_retries_;
  obs::Counter* retry_budget_exhausted_;
  mutable RetryBudget retry_budget_tokens_;

  mutable std::mutex mu_;
  mutable std::map<data::RetailerId, RetailerState> state_;
  mutable std::list<data::RetailerId> lru_;  // front = most recent
};

}  // namespace sigmund::serving

#endif  // SIGMUND_SERVING_FRONTEND_H_
