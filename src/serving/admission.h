#ifndef SIGMUND_SERVING_ADMISSION_H_
#define SIGMUND_SERVING_ADMISSION_H_

#include <stdint.h>

#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "data/types.h"

namespace sigmund::serving {

// ---------------------------------------------------------------------------
// Overload robustness for the serving plane (DESIGN.md §8).
//
// The Frontend on its own accepts unbounded concurrent load: past the
// store's capacity every request slows every other request down until
// nothing finishes inside its deadline — classic congestion collapse,
// where offered load keeps rising and *goodput* (requests completed in
// time) falls to zero. This header is the missing control loop:
//
//   AdmissionController  per-retailer token buckets, a global adaptive
//                        concurrency limiter, a bounded deadline-aware
//                        queue with CoDel-style shedding, and priority
//                        classes so probe traffic sheds strictly before
//                        user traffic.
//   RetryBudget          Finagle-style token budget so client retries and
//                        hedged reads can never multiply offered load past
//                        a configured fraction of real traffic.
//
// Everything is driven by an injected Clock, so the million-user load
// harness (loadgen.h) runs over SimClock and same-seed reruns make
// byte-identical admit/shed decisions.
// ---------------------------------------------------------------------------

// Priority class of a serving request. Higher value = more important;
// under pressure the lowest class is shed first (health probes are
// synthetic, canary traffic is sacrificial by definition, user-facing
// requests shed only when nothing else is left to shed).
enum class RequestPriority {
  kHealthProbe = 0,
  kCanary = 1,
  kUserFacing = 2,
};
inline constexpr int kNumRequestPriorities = 3;

const char* RequestPriorityName(RequestPriority priority);

// Why a request was shed (the `reason` label on serving_shed_total).
enum class ShedReason {
  kNone = 0,
  kRateLimited,    // the retailer's token bucket was empty
  kWatermark,      // occupancy above this priority class's admission bar
  kQueueFull,      // queue at capacity with nothing lower-priority to evict
  kQueueDeadline,  // deadline passed while waiting for a slot
  kCodel,          // standing queue: sojourn above target for a whole interval
};

const char* ShedReasonName(ShedReason reason);

// Deterministic token bucket: `rate` tokens/second accrue up to `burst`.
// Refill is computed from clock micros (nothing sleeps), so identical
// request timings yield identical admit decisions. Not internally
// synchronized — the AdmissionController guards its buckets.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double tokens_per_second, double burst)
      : rate_(tokens_per_second), burst_(burst), tokens_(burst) {}

  // Takes `cost` tokens if available at `now_micros`; false = rate-limited.
  bool TryTake(int64_t now_micros, double cost = 1.0);

  double tokens() const { return tokens_; }

 private:
  double rate_ = 0.0;
  double burst_ = 0.0;
  double tokens_ = 0.0;
  int64_t last_micros_ = 0;
  bool started_ = false;
};

// Finagle-style retry budget: every real request deposits `ratio` tokens,
// every retry (or hedge) withdraws one. Sustained retry volume is thereby
// capped at `ratio` × request volume no matter how hard clients hammer —
// a retry storm cannot multiply offered load onto an already-melting
// backend. `initial_tokens` is a small reserve so a cold or low-traffic
// process can still afford the occasional retry. Thread-safe.
class RetryBudget {
 public:
  struct Options {
    double ratio = 0.1;           // tokens deposited per recorded request
    double initial_tokens = 10.0; // starting reserve
    double max_tokens = 1000.0;   // cap on banked tokens
  };

  RetryBudget() : RetryBudget(Options()) {}
  explicit RetryBudget(const Options& options);

  void RecordRequest();
  // True = the retry/hedge is inside budget (a token was withdrawn).
  bool TryWithdraw(double cost = 1.0);

  double tokens() const;

 private:
  mutable std::mutex mu_;
  Options options_;
  double tokens_;
};

// Global adaptive concurrency limiter, AIMD on observed latency against a
// target (TCP-Vegas style: the no-load latency is tracked as min_latency
// and `EstimatedQueue()` = limit × (1 − min/smoothed) estimates how much
// of the window is standing queue). Every `window` completed requests:
// smoothed latency at or under target → limit += additive_increase;
// over target → limit ×= multiplicative_decrease. Not internally
// synchronized — the AdmissionController guards it.
class AdaptiveConcurrencyLimiter {
 public:
  struct Options {
    int initial_limit = 32;
    int min_limit = 1;
    int max_limit = 1024;
    // The latency the limiter defends. Completions above it shrink the
    // window multiplicatively. Feed it SERVICE latency (time from
    // admission to completion), never time spent waiting in this
    // controller's own queue — otherwise shrinking the limit lengthens
    // the queue wait, which reads as higher latency, which shrinks the
    // limit again: a death spiral down to min_limit.
    int64_t target_latency_micros = 20000;
    double additive_increase = 1.0;
    double multiplicative_decrease = 0.85;
    int window = 32;           // samples per adjustment
    double ewma_alpha = 0.2;   // smoothing of observed latency
  };

  AdaptiveConcurrencyLimiter() : AdaptiveConcurrencyLimiter(Options()) {}
  explicit AdaptiveConcurrencyLimiter(const Options& options);

  // Feeds one completed request's observed latency (service + queueing).
  void Record(int64_t latency_micros);

  int limit() const { return static_cast<int>(limit_); }
  double smoothed_latency_micros() const { return smoothed_; }
  int64_t min_latency_micros() const { return min_latency_; }
  // Vegas-style standing-queue estimate in request slots.
  double EstimatedQueue() const;

 private:
  Options options_;
  double limit_;
  double smoothed_ = 0.0;
  int64_t min_latency_ = 0;  // 0 = no sample yet
  int samples_in_window_ = 0;
};

// The serving plane's admission decision, end to end: token-bucket rate
// limits per retailer, the global adaptive concurrency limiter, priority
// watermarks, and a bounded deadline-aware priority queue with
// CoDel-style shedding of standing queues.
//
// Two usage modes share one instance:
//  - The synchronous Frontend path calls Offer(..., may_queue=false):
//    the request is admitted (slot taken) or shed, never queued.
//  - The event-driven load harness calls Offer(..., may_queue=true) and
//    feeds completions to Release(), which returns the queued requests
//    that were admitted into the freed slot (and any shed while waiting).
//
// Shedding is strictly priority-ordered: a class is refused admission
// once occupancy — (in_flight + queued) / (limit + queue_capacity) —
// reaches its watermark (probes first, canaries second), and when the
// queue is full the lowest-priority queued request is evicted before a
// higher-priority arrival is shed. Thread-safe.
class AdmissionController {
 public:
  struct Options {
    // Per-retailer token bucket over *user-facing* traffic; <= 0 disables
    // rate limiting. (Probe/canary volume is bounded by watermarks
    // instead, so synthetic traffic can never eat a retailer's tokens and
    // invert the shed order.)
    double retailer_tokens_per_second = 0.0;
    double retailer_burst = 50.0;

    AdaptiveConcurrencyLimiter::Options limiter;

    // Bounded request queue; 0 = no queue (saturation sheds immediately,
    // the right setting for the synchronous Frontend path).
    int queue_capacity = 0;
    // CoDel-style standing-queue control: once the sojourn time of
    // dequeued requests stays above `codel_target_micros` for a full
    // `codel_interval_micros`, the queue head is shed (and keeps being
    // shed once per interval until the sojourn drops back under target).
    int64_t codel_target_micros = 5000;
    int64_t codel_interval_micros = 100000;

    // Admission watermarks: the occupancy at-or-above which the class is
    // shed. User-facing traffic has no watermark — it sheds only when the
    // limiter and queue are genuinely full.
    double probe_watermark = 0.7;
    double canary_watermark = 0.9;

    // EWMA horizon of the occupancy signal exposed as Pressure() — the
    // input to the Frontend's brownout ladder. Updated on every
    // Offer/Release, so "sustained" pressure rises smoothly instead of
    // flapping per request.
    double pressure_alpha = 0.05;
  };

  // One request's identity while it waits in (or is shed from) the queue.
  struct Ticket {
    uint64_t id = 0;
    RequestPriority priority = RequestPriority::kUserFacing;
    data::RetailerId retailer = 0;
    int64_t enqueue_micros = 0;
    int64_t deadline_micros = 0;  // absolute; 0 = none
    ShedReason shed_reason = ShedReason::kNone;  // set on the shed list
  };

  enum class Outcome { kAdmitted = 0, kQueued = 1, kShed = 2 };

  struct Admission {
    Outcome outcome = Outcome::kShed;
    ShedReason reason = ShedReason::kNone;
    uint64_t id = 0;  // ticket id for queued requests
    // Controller state sampled at decision time (race-free: taken under
    // the controller lock in the same critical section as the decision),
    // so shed traces can annotate exactly the queue/limiter picture the
    // decision saw.
    int in_flight = 0;     // after this decision
    int queue_depth = 0;   // after this decision
    int limit = 0;         // concurrency limit at decision time
    double pressure = 0;   // EWMA pressure after this decision
  };

  // What a completion freed up: queued requests admitted into the slot
  // (start serving them now) and requests shed while draining (deadline
  // passed or CoDel fired).
  struct Drained {
    std::vector<Ticket> admitted;
    std::vector<Ticket> shed;
  };

  // `metrics` (borrowed) is required. `clock` null = RealClock.
  AdmissionController(const Options& options, obs::MetricRegistry* metrics,
                      const Clock* clock);

  // Admission decision for one request. `deadline_micros` is absolute on
  // the controller's clock (0 = none) and bounds time spent queued.
  // `may_queue=false` (synchronous callers) turns would-queue into a shed.
  Admission Offer(data::RetailerId retailer, RequestPriority priority,
                  int64_t deadline_micros = 0, bool may_queue = true);

  // One admitted request finished after `latency_micros` of SERVICE time
  // (admission to completion — not queue wait; see Options on the death
  // spiral): frees its slot, feeds the limiter, drains the queue.
  Drained Release(int64_t latency_micros);

  int in_flight() const;
  int queue_depth() const;
  int concurrency_limit() const;
  // (in_flight + queued) / (limit + queue_capacity), in [0, 1].
  double Occupancy() const;
  // EWMA of occupancy — the brownout ladder's "sustained pressure" input.
  double Pressure() const;

 private:
  double OccupancyLocked() const;
  void UpdatePressureLocked();
  // Samples queue depth / in-flight / limit / pressure into `admission`
  // and refreshes the per-request gauges. Caller holds mu_.
  void SampleLocked(Admission* admission);
  void CountShed(RequestPriority priority, ShedReason reason);
  void CountAdmitted(RequestPriority priority);
  // Pops deadline-expired / CoDel-shed heads and admits queued requests
  // into free slots. Caller holds mu_.
  void DrainLocked(Drained* drained);

  Options options_;
  obs::MetricRegistry* metrics_;
  const Clock* clock_;
  obs::Gauge* limit_gauge_;
  obs::Gauge* queue_gauge_;
  obs::Gauge* pressure_gauge_;
  obs::Gauge* in_flight_gauge_;

  mutable std::mutex mu_;
  AdaptiveConcurrencyLimiter limiter_;
  std::map<data::RetailerId, TokenBucket> buckets_;
  // FIFO per priority class; drain pops the highest class first, queue
  // overflow evicts from the lowest non-empty class below the arrival.
  std::deque<Ticket> queues_[kNumRequestPriorities];
  int queue_size_ = 0;
  int in_flight_ = 0;
  uint64_t next_ticket_ = 1;
  double pressure_ = 0.0;
  // CoDel state: when the head sojourn first exceeded target (0 = it is
  // currently under target).
  int64_t codel_first_above_micros_ = 0;
};

}  // namespace sigmund::serving

#endif  // SIGMUND_SERVING_ADMISSION_H_
