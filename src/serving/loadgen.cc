#include "serving/loadgen.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"

namespace sigmund::serving {
namespace {

enum EventKind : int {
  kOpenArrival = 0,
  kProbeArrival = 1,
  kCanaryArrival = 2,
  kClosedArrival = 3,
  kCompletion = 4,  // payload = request index
  kRetry = 5,       // payload = request index
  kSloTick = 6,     // periodic SLO evaluation (separate seq space)
};

// SLO ticks take their tie-break seqs from a disjoint space above every
// possible simulation seq, so enabling SLO evaluation cannot shift the
// FIFO order of same-micro simulation events — the decision_hash stays
// byte-identical with the engine on or off.
constexpr uint64_t kSloSeqBase = 1ULL << 62;

struct Event {
  int64_t time = 0;
  uint64_t seq = 0;  // tie-break so simultaneous events stay FIFO
  int kind = 0;
  int64_t payload = 0;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct Request {
  RequestPriority priority = RequestPriority::kUserFacing;
  data::RetailerId retailer = 0;
  int64_t arrival_micros = 0;
  int64_t service_start_micros = 0;  // when it was admitted into a slot
  int64_t deadline_micros = 0;       // absolute; 0 = none
  int attempt = 0;
  bool closed_loop = false;
  obs::RequestTrace trace;     // inactive when tracing is off
  int64_t service_span = 0;    // open "service" span while in a slot
};

class Sim {
 public:
  Sim(const LoadGenOptions& options, obs::MetricRegistry* metrics)
      : options_(options),
        rng_(SplitMix64(options.seed ^ 0x5EEDF00DULL)),
        registry_(metrics != nullptr ? metrics : &owned_registry_),
        controller_(options.admission, registry_, &clock_),
        end_micros_(
            static_cast<int64_t>(options.duration_seconds * 1e6)) {
    hash_ = kFnv64OffsetBasis;
    if (options_.trace_requests) {
      tracer_ = std::make_unique<obs::RequestTracer>(options_.trace,
                                                     registry_, &clock_);
    }
    if (options_.slo_enabled) {
      slo_ = std::make_unique<obs::SloEngine>(options_.slo, registry_);
    }
    // Zipf cumulative weights over retailers.
    const int n = std::max(1, options_.num_retailers);
    zipf_cdf_.resize(n);
    double total = 0.0;
    for (int r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1),
                              options_.zipf_exponent);
      zipf_cdf_[r] = total;
    }
    for (int r = 0; r < n; ++r) zipf_cdf_[r] /= total;
    if (options_.retry_budget_ratio >= 0.0) {
      RetryBudget::Options budget;
      budget.ratio = options_.retry_budget_ratio;
      retry_budget_ = std::make_unique<RetryBudget>(budget);
    }
    if (tracer_ != nullptr || slo_ != nullptr) {
      // Cached instrument pointers — the hot path never takes the
      // registry lock. Only materialized when tracing/SLO is on, so the
      // baseline simulation does no extra work at all.
      requests_ok_ = registry_->GetCounter("serving_requests_total",
                                           {{"outcome", "ok"}});
      requests_late_ = registry_->GetCounter("serving_requests_total",
                                             {{"outcome", "late"}});
      requests_shed_ = registry_->GetCounter("serving_requests_total",
                                             {{"outcome", "shed"}});
      for (int p = 0; p < kNumRequestPriorities; ++p) {
        latency_hist_[p] = registry_->GetHistogram(
            "serving_latency_micros",
            {{"priority",
              RequestPriorityName(static_cast<RequestPriority>(p))}});
      }
    }
  }

  LoadGenReport Run() {
    // Prime the arrival streams. Closed users start staggered across one
    // think interval, so a million users don't arrive on the same micro.
    if (options_.open_rps > 0.0) {
      Schedule(NextArrivalGap(OpenRate(0)), kOpenArrival, 0);
    }
    if (options_.probe_rps > 0.0) {
      Schedule(NextArrivalGap(options_.probe_rps), kProbeArrival, 0);
    }
    if (options_.canary_rps > 0.0) {
      Schedule(NextArrivalGap(options_.canary_rps), kCanaryArrival, 0);
    }
    const int64_t think_micros =
        static_cast<int64_t>(options_.think_seconds * 1e6);
    for (int u = 0; u < options_.closed_users; ++u) {
      Schedule(rng_.Uniform(static_cast<uint64_t>(
                   std::max<int64_t>(1, think_micros))),
               kClosedArrival, u);
    }
    if (slo_ != nullptr) ScheduleSloTick(SloIntervalMicros());

    while (!events_.empty()) {
      const Event event = events_.top();
      events_.pop();
      clock_.SetMicros(event.time);
      Dispatch(event);
    }
    return Finish();
  }

 private:
  LoadGenPriorityStats& Stats(RequestPriority priority) {
    return report_.priorities[static_cast<int>(priority)];
  }

  void Mix(uint64_t v) { hash_ = Fnv1a64Mix(hash_, v); }

  void Schedule(int64_t time, int kind, int64_t payload) {
    events_.push(Event{time, next_seq_++, kind, payload});
  }

  int64_t SloIntervalMicros() const {
    return std::max<int64_t>(
        1, static_cast<int64_t>(options_.slo_eval_interval_seconds * 1e6));
  }

  // SLO ticks draw seqs from kSloSeqBase so they sort after every
  // same-micro simulation event and never consume a simulation seq.
  void ScheduleSloTick(int64_t time) {
    events_.push(Event{time, kSloSeqBase + slo_seq_++, kSloTick, 0});
  }

  // Exponential inter-arrival gap for a Poisson stream at `rate`/sec.
  int64_t NextArrivalGap(double rate) {
    if (rate <= 0.0) return end_micros_ + 1;
    const double u = rng_.UniformDouble();
    const double gap_seconds = -std::log(1.0 - u) / rate;
    return std::max<int64_t>(1, static_cast<int64_t>(gap_seconds * 1e6));
  }

  double OpenRate(int64_t now) const {
    const double t = static_cast<double>(now) * 1e-6;
    double rate = options_.open_rps;
    if (options_.diurnal_amplitude != 0.0 &&
        options_.diurnal_period_seconds > 0.0) {
      rate *= 1.0 + options_.diurnal_amplitude *
                        std::sin(2.0 * M_PI * t /
                                 options_.diurnal_period_seconds);
    }
    if (options_.flash_at_seconds >= 0.0 &&
        t >= options_.flash_at_seconds &&
        t < options_.flash_at_seconds + options_.flash_duration_seconds) {
      rate *= options_.flash_factor;
    }
    return std::max(0.0, rate);
  }

  data::RetailerId ZipfRetailer() {
    const double u = rng_.UniformDouble();
    const auto it =
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    return static_cast<data::RetailerId>(
        std::min<size_t>(it - zipf_cdf_.begin(), zipf_cdf_.size() - 1));
  }

  size_t MakeRequest(RequestPriority priority, int64_t now,
                     bool closed_loop) {
    Request request;
    request.priority = priority;
    request.retailer = ZipfRetailer();
    request.arrival_micros = now;
    request.deadline_micros =
        options_.deadline_micros > 0 ? now + options_.deadline_micros : 0;
    request.closed_loop = closed_loop;
    if (tracer_ != nullptr) {
      request.trace = tracer_->StartRequest(
          std::string("loadgen/") + RequestPriorityName(priority));
      request.trace.Annotate(0, "retailer",
                             std::to_string(request.retailer));
      ++report_.traces_started;
    }
    requests_.push_back(std::move(request));
    ++Stats(priority).offered;
    ++report_.total_offered;
    if (priority == RequestPriority::kUserFacing &&
        retry_budget_ != nullptr) {
      retry_budget_->RecordRequest();
    }
    return requests_.size() - 1;
  }

  int64_t ServiceMicros() {
    int64_t base = options_.service_micros;
    if (options_.service_jitter_micros > 0) {
      base += static_cast<int64_t>(rng_.Uniform(
          static_cast<uint64_t>(options_.service_jitter_micros + 1)));
    }
    // Past server capacity each in-flight request gets a fractional share
    // of the machine: this is the mechanism congestion collapse rides on.
    const double load =
        static_cast<double>(controller_.in_flight()) /
        static_cast<double>(std::max(1, options_.server_capacity));
    return static_cast<int64_t>(static_cast<double>(base) *
                                std::max(1.0, load));
  }

  void StartService(size_t index, int64_t now) {
    Request& request = requests_[index];
    ++Stats(request.priority).admitted;
    request.service_start_micros = now;
    if (request.trace.active()) {
      request.service_span = request.trace.StartSpan("service");
    }
    Schedule(now + ServiceMicros(), kCompletion,
             static_cast<int64_t>(index));
  }

  void HandleShed(size_t index, double occupancy, int64_t now,
                  ShedReason reason) {
    Request& request = requests_[index];
    ++Stats(request.priority).shed;
    ++report_.shed_by_reason[ShedReasonName(reason)];
    Mix(static_cast<uint64_t>(now));
    Mix(0xDEAD5EEDULL ^ static_cast<uint64_t>(reason));
    if (request.priority == RequestPriority::kUserFacing &&
        (reason == ShedReason::kWatermark ||
         reason == ShedReason::kQueueFull)) {
      report_.min_occupancy_user_shed =
          std::min(report_.min_occupancy_user_shed, occupancy);
    }
    // Client retry on shed (user-facing only): the retry-storm ingredient.
    if (request.priority == RequestPriority::kUserFacing &&
        request.attempt < options_.client_retries && now < end_micros_ &&
        (request.deadline_micros == 0 || now < request.deadline_micros)) {
      if (retry_budget_ != nullptr && !retry_budget_->TryWithdraw()) {
        ++report_.retries_suppressed;
        request.trace.Annotate(0, "retry", "suppressed_budget");
      } else {
        const int64_t backoff = static_cast<int64_t>(
            options_.retry_backoff_seconds * 1e6);
        Schedule(now + std::max<int64_t>(1, backoff), kRetry,
                 static_cast<int64_t>(index));
        return;  // the user is still waiting, not thinking
      }
    }
    // Terminal shed: the client gave up on this request.
    ++report_.terminal_sheds;
    if (requests_shed_ != nullptr) requests_shed_->Add(1);
    if (request.trace.active()) {
      request.trace.Annotate(0, "shed_reason", ShedReasonName(reason));
      request.trace.SetVerdict(obs::TraceVerdict::kShed);
      if (tracer_->Submit(std::move(request.trace))) {
        ++report_.traces_kept;
        ++report_.shed_traces_kept;  // == terminal_sheds: 100% kept
      }
    }
    FinishClosedLoop(index, now);
  }

  // A closed-loop user whose request reached a terminal state thinks,
  // then issues the next one.
  void FinishClosedLoop(size_t index, int64_t now) {
    if (!requests_[index].closed_loop || now >= end_micros_) return;
    const int64_t think = NextArrivalGap(
        options_.think_seconds > 0.0 ? 1.0 / options_.think_seconds : 0.0);
    Schedule(now + think, kClosedArrival, 0);
  }

  void OfferRequest(size_t index, int64_t now) {
    Request& request = requests_[index];
    const double occupancy = controller_.Occupancy();
    const AdmissionController::Admission admission = controller_.Offer(
        request.retailer, request.priority, request.deadline_micros,
        /*may_queue=*/true);
    Mix(static_cast<uint64_t>(now));
    Mix((static_cast<uint64_t>(request.priority) << 8) |
        static_cast<uint64_t>(admission.outcome));
    if (request.trace.active()) {
      // One "admission" span per offer (retries get their own), carrying
      // the queue/limiter state the decision saw.
      const int64_t span = request.trace.StartSpan("admission");
      request.trace.Annotate(span, "attempt",
                             std::to_string(request.attempt));
      request.trace.Annotate(span, "queue_depth",
                             std::to_string(admission.queue_depth));
      request.trace.Annotate(span, "in_flight",
                             std::to_string(admission.in_flight));
      request.trace.Annotate(span, "limit",
                             std::to_string(admission.limit));
      request.trace.Annotate(
          span, "outcome",
          admission.outcome == AdmissionController::Outcome::kAdmitted
              ? "admitted"
          : admission.outcome == AdmissionController::Outcome::kQueued
              ? "queued"
              : "shed");
      if (admission.outcome == AdmissionController::Outcome::kShed) {
        request.trace.Annotate(span, "shed_reason",
                               ShedReasonName(admission.reason));
      }
      request.trace.EndSpan(span);
    }
    switch (admission.outcome) {
      case AdmissionController::Outcome::kAdmitted:
        if (request.priority == RequestPriority::kHealthProbe) {
          report_.max_occupancy_probe_admitted =
              std::max(report_.max_occupancy_probe_admitted, occupancy);
        }
        StartService(index, now);
        return;
      case AdmissionController::Outcome::kQueued:
        queued_[admission.id] = index;
        return;
      case AdmissionController::Outcome::kShed:
        HandleShed(index, occupancy, now, admission.reason);
        return;
    }
  }

  void ProcessDrained(const AdmissionController::Drained& drained,
                      int64_t now) {
    for (const AdmissionController::Ticket& ticket : drained.admitted) {
      auto it = queued_.find(ticket.id);
      SIGCHECK(it != queued_.end());
      const size_t index = it->second;
      queued_.erase(it);
      if (requests_[index].priority == RequestPriority::kHealthProbe) {
        report_.max_occupancy_probe_admitted =
            std::max(report_.max_occupancy_probe_admitted,
                     controller_.Occupancy());
      }
      StartService(index, now);
    }
    for (const AdmissionController::Ticket& ticket : drained.shed) {
      auto it = queued_.find(ticket.id);
      SIGCHECK(it != queued_.end());
      const size_t index = it->second;
      queued_.erase(it);
      HandleShed(index, controller_.Occupancy(), now, ticket.shed_reason);
    }
  }

  void Complete(size_t index, int64_t now) {
    Request& request = requests_[index];
    const int64_t latency = now - request.arrival_micros;
    LoadGenPriorityStats& stats = Stats(request.priority);
    ++stats.completed;
    ++report_.total_completed;
    const bool good =
        request.deadline_micros == 0 || now <= request.deadline_micros;
    if (good) {
      ++stats.good;
      if (requests_ok_ != nullptr) requests_ok_->Add(1);
    } else {
      ++stats.late;
      ++report_.deadline_overruns;
      if (requests_late_ != nullptr) requests_late_->Add(1);
    }
    if (latency_hist_[static_cast<int>(request.priority)] != nullptr) {
      latency_hist_[static_cast<int>(request.priority)]->Observe(
          static_cast<double>(latency));
    }
    latencies_.push_back(latency);
    Mix(static_cast<uint64_t>(now));
    Mix(0xC0FFEEULL ^ static_cast<uint64_t>(latency));
    if (request.trace.active()) {
      request.trace.EndSpan(request.service_span);
      if (!good) {
        request.trace.Annotate(
            0, "overrun_micros",
            std::to_string(now - request.deadline_micros));
        request.trace.SetVerdict(obs::TraceVerdict::kDeadlineOverrun);
      }
      const uint64_t trace_id = request.trace.trace_id();
      if (tracer_->Submit(std::move(request.trace))) {
        ++report_.traces_kept;
        if (!good) ++report_.late_traces_kept;
        // Kept trace: make it the exemplar of the latency bucket this
        // completion landed in, so the p99 bucket links to a trace.
        if (latency_hist_[static_cast<int>(request.priority)] != nullptr) {
          latency_hist_[static_cast<int>(request.priority)]
              ->AttachExemplar(static_cast<double>(latency), trace_id);
        }
      }
    }
    // The limiter learns from SERVICE latency only; the end-to-end
    // latency above (which includes queue wait) is what the client sees
    // and what the goodput/deadline accounting uses.
    ProcessDrained(
        controller_.Release(now - request.service_start_micros), now);
    FinishClosedLoop(index, now);
  }

  void Dispatch(const Event& event) {
    switch (event.kind) {
      case kOpenArrival: {
        if (event.time >= end_micros_) return;
        OfferRequest(
            MakeRequest(RequestPriority::kUserFacing, event.time, false),
            event.time);
        const double rate = OpenRate(event.time);
        Schedule(event.time + NextArrivalGap(rate), kOpenArrival, 0);
        return;
      }
      case kProbeArrival: {
        if (event.time >= end_micros_) return;
        OfferRequest(
            MakeRequest(RequestPriority::kHealthProbe, event.time, false),
            event.time);
        Schedule(event.time + NextArrivalGap(options_.probe_rps),
                 kProbeArrival, 0);
        return;
      }
      case kCanaryArrival: {
        if (event.time >= end_micros_) return;
        OfferRequest(
            MakeRequest(RequestPriority::kCanary, event.time, false),
            event.time);
        Schedule(event.time + NextArrivalGap(options_.canary_rps),
                 kCanaryArrival, 0);
        return;
      }
      case kClosedArrival: {
        if (event.time >= end_micros_) return;
        OfferRequest(
            MakeRequest(RequestPriority::kUserFacing, event.time, true),
            event.time);
        return;
      }
      case kCompletion:
        Complete(static_cast<size_t>(event.payload), event.time);
        return;
      case kRetry: {
        const size_t index = static_cast<size_t>(event.payload);
        Request& request = requests_[index];
        ++request.attempt;
        ++Stats(request.priority).retries;
        OfferRequest(index, event.time);
        return;
      }
      case kSloTick: {
        slo_->Evaluate(registry_->Snapshot(), event.time);
        const int64_t next = event.time + SloIntervalMicros();
        if (next <= end_micros_) ScheduleSloTick(next);
        return;
      }
    }
  }

  LoadGenReport Finish() {
    report_.offered_rps = static_cast<double>(report_.total_offered) /
                          std::max(1e-9, options_.duration_seconds);
    int64_t good = 0;
    for (const LoadGenPriorityStats& stats : report_.priorities) {
      good += stats.good;
    }
    report_.goodput_rps = static_cast<double>(good) /
                          std::max(1e-9, options_.duration_seconds);
    if (!latencies_.empty()) {
      std::sort(latencies_.begin(), latencies_.end());
      report_.p50_latency_micros = static_cast<double>(
          latencies_[latencies_.size() / 2]);
      report_.p99_latency_micros = static_cast<double>(
          latencies_[latencies_.size() * 99 / 100]);
    }
    report_.final_concurrency_limit = controller_.concurrency_limit();
    report_.final_pressure = controller_.Pressure();
    report_.decision_hash = hash_;
    if (tracer_ != nullptr) {
      report_.kept_traces = tracer_->KeptTraces();
    }
    if (slo_ != nullptr) {
      report_.slo_alerts_fired = slo_->FiredTotal();
      report_.slo_alerts_resolved = slo_->ResolvedTotal();
      report_.slo_alerts = slo_->alert_log();
      report_.slo_json = slo_->ToJson();
    }
    return report_;
  }

  LoadGenOptions options_;
  SimClock clock_;
  Rng rng_;
  // The simulation always counts: owned_registry_ backs the controller,
  // tracer and SLO engine when the caller passed no registry of their own.
  obs::MetricRegistry owned_registry_;
  obs::MetricRegistry* registry_;
  AdmissionController controller_;
  std::unique_ptr<RetryBudget> retry_budget_;
  int64_t end_micros_;

  // Tracing / SLO (null when disabled).
  std::unique_ptr<obs::RequestTracer> tracer_;
  std::unique_ptr<obs::SloEngine> slo_;
  obs::Counter* requests_ok_ = nullptr;
  obs::Counter* requests_late_ = nullptr;
  obs::Counter* requests_shed_ = nullptr;
  obs::Histogram* latency_hist_[kNumRequestPriorities] = {};
  uint64_t slo_seq_ = 0;

  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  uint64_t next_seq_ = 0;
  std::vector<Request> requests_;
  std::unordered_map<uint64_t, size_t> queued_;
  std::vector<double> zipf_cdf_;
  std::vector<int64_t> latencies_;
  uint64_t hash_ = 0;
  LoadGenReport report_;
};

}  // namespace

LoadGenReport RunLoadGenerator(const LoadGenOptions& options,
                               obs::MetricRegistry* metrics) {
  Sim sim(options, metrics);
  return sim.Run();
}

}  // namespace sigmund::serving
