#include "serving/admission.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace sigmund::serving {

const char* RequestPriorityName(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kHealthProbe:
      return "health_probe";
    case RequestPriority::kCanary:
      return "canary";
    case RequestPriority::kUserFacing:
      return "user_facing";
  }
  return "unknown";
}

const char* ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone:
      return "none";
    case ShedReason::kRateLimited:
      return "rate_limited";
    case ShedReason::kWatermark:
      return "watermark";
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kQueueDeadline:
      return "queue_deadline";
    case ShedReason::kCodel:
      return "codel";
  }
  return "unknown";
}

// --- TokenBucket -------------------------------------------------------------

bool TokenBucket::TryTake(int64_t now_micros, double cost) {
  if (rate_ <= 0.0) return true;  // disabled
  if (!started_) {
    started_ = true;
    last_micros_ = now_micros;
  }
  if (now_micros > last_micros_) {
    tokens_ = std::min(
        burst_, tokens_ + static_cast<double>(now_micros - last_micros_) *
                              1e-6 * rate_);
    last_micros_ = now_micros;
  }
  if (tokens_ < cost) return false;
  tokens_ -= cost;
  return true;
}

// --- RetryBudget -------------------------------------------------------------

RetryBudget::RetryBudget(const Options& options)
    : options_(options), tokens_(options.initial_tokens) {}

void RetryBudget::RecordRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  tokens_ = std::min(options_.max_tokens, tokens_ + options_.ratio);
}

bool RetryBudget::TryWithdraw(double cost) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tokens_ < cost) return false;
  tokens_ -= cost;
  return true;
}

double RetryBudget::tokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tokens_;
}

// --- AdaptiveConcurrencyLimiter ----------------------------------------------

AdaptiveConcurrencyLimiter::AdaptiveConcurrencyLimiter(const Options& options)
    : options_(options),
      limit_(static_cast<double>(options.initial_limit)) {}

void AdaptiveConcurrencyLimiter::Record(int64_t latency_micros) {
  const double sample = static_cast<double>(latency_micros);
  smoothed_ = smoothed_ == 0.0
                  ? sample
                  : (1.0 - options_.ewma_alpha) * smoothed_ +
                        options_.ewma_alpha * sample;
  if (min_latency_ == 0 || latency_micros < min_latency_) {
    min_latency_ = latency_micros;
  }
  if (++samples_in_window_ < std::max(1, options_.window)) return;
  samples_in_window_ = 0;
  if (smoothed_ <= static_cast<double>(options_.target_latency_micros)) {
    limit_ += options_.additive_increase;
  } else {
    limit_ *= options_.multiplicative_decrease;
  }
  limit_ = std::clamp(limit_, static_cast<double>(options_.min_limit),
                      static_cast<double>(options_.max_limit));
}

double AdaptiveConcurrencyLimiter::EstimatedQueue() const {
  if (min_latency_ == 0 || smoothed_ <= 0.0) return 0.0;
  return limit_ * (1.0 - static_cast<double>(min_latency_) / smoothed_);
}

// --- AdmissionController -----------------------------------------------------

AdmissionController::AdmissionController(const Options& options,
                                         obs::MetricRegistry* metrics,
                                         const Clock* clock)
    : options_(options),
      metrics_(obs::RequireRegistry(metrics, "AdmissionController")),
      clock_(clock != nullptr ? clock : RealClock::Get()),
      limit_gauge_(metrics_->GetGauge("serving_concurrency_limit")),
      queue_gauge_(metrics_->GetGauge("serving_admission_queue_depth")),
      pressure_gauge_(metrics_->GetGauge("serving_admission_pressure")),
      in_flight_gauge_(metrics_->GetGauge("serving_limiter_in_flight")),
      limiter_(options.limiter) {
  limit_gauge_->Set(static_cast<double>(limiter_.limit()));
}

void AdmissionController::SampleLocked(Admission* admission) {
  admission->in_flight = in_flight_;
  admission->queue_depth = queue_size_;
  admission->limit = limiter_.limit();
  admission->pressure = pressure_;
  // Per-request gauge sampling: every admission decision refreshes the
  // queue-depth and in-flight gauges, so the exposition shows the state
  // the latest request saw (not just the last queue operation).
  queue_gauge_->Set(static_cast<double>(queue_size_));
  in_flight_gauge_->Set(static_cast<double>(in_flight_));
}

double AdmissionController::OccupancyLocked() const {
  const double capacity =
      static_cast<double>(limiter_.limit() + options_.queue_capacity);
  if (capacity <= 0.0) return 1.0;
  return std::min(1.0,
                  static_cast<double>(in_flight_ + queue_size_) / capacity);
}

void AdmissionController::UpdatePressureLocked() {
  pressure_ = (1.0 - options_.pressure_alpha) * pressure_ +
              options_.pressure_alpha * OccupancyLocked();
  pressure_gauge_->Set(pressure_);
}

void AdmissionController::CountShed(RequestPriority priority,
                                    ShedReason reason) {
  metrics_
      ->GetCounter("serving_shed_total",
                   {{"priority", RequestPriorityName(priority)},
                    {"reason", ShedReasonName(reason)}})
      ->Add(1);
}

void AdmissionController::CountAdmitted(RequestPriority priority) {
  metrics_
      ->GetCounter("serving_admitted_total",
                   {{"priority", RequestPriorityName(priority)}})
      ->Add(1);
}

AdmissionController::Admission AdmissionController::Offer(
    data::RetailerId retailer, RequestPriority priority,
    int64_t deadline_micros, bool may_queue) {
  const int64_t now = clock_->NowMicros();
  Admission admission;
  std::lock_guard<std::mutex> lock(mu_);
  UpdatePressureLocked();

  // Rate limit (user-facing traffic only; see Options).
  if (priority == RequestPriority::kUserFacing &&
      options_.retailer_tokens_per_second > 0.0) {
    auto [it, inserted] = buckets_.try_emplace(
        retailer, options_.retailer_tokens_per_second,
        options_.retailer_burst);
    if (!it->second.TryTake(now)) {
      admission.reason = ShedReason::kRateLimited;
      CountShed(priority, admission.reason);
      SampleLocked(&admission);
      return admission;
    }
  }

  // Priority watermark: probes and canaries are refused before the plane
  // is anywhere near full, so the capacity that is left under pressure is
  // spent on user traffic.
  const double occupancy = OccupancyLocked();
  const double watermark = priority == RequestPriority::kHealthProbe
                               ? options_.probe_watermark
                           : priority == RequestPriority::kCanary
                               ? options_.canary_watermark
                               : 2.0;  // user-facing: no watermark
  if (occupancy >= watermark) {
    admission.reason = ShedReason::kWatermark;
    CountShed(priority, admission.reason);
    SampleLocked(&admission);
    return admission;
  }

  if (in_flight_ < limiter_.limit()) {
    ++in_flight_;
    admission.outcome = Outcome::kAdmitted;
    CountAdmitted(priority);
    SampleLocked(&admission);
    return admission;
  }

  if (!may_queue || options_.queue_capacity <= 0) {
    admission.reason = ShedReason::kQueueFull;
    CountShed(priority, admission.reason);
    SampleLocked(&admission);
    return admission;
  }

  // Queue, evicting a lower-priority waiter when full.
  if (queue_size_ >= options_.queue_capacity) {
    int victim = -1;
    for (int p = 0; p < static_cast<int>(priority); ++p) {
      if (!queues_[p].empty()) {
        victim = p;
        break;
      }
    }
    if (victim < 0) {
      admission.reason = ShedReason::kQueueFull;
      CountShed(priority, admission.reason);
      SampleLocked(&admission);
      return admission;
    }
    // Evict the youngest waiter of the lowest class — it has the least
    // time invested and its class is losing a slot either way.
    CountShed(queues_[victim].back().priority, ShedReason::kQueueFull);
    queues_[victim].pop_back();
    --queue_size_;
  }
  Ticket ticket;
  ticket.id = next_ticket_++;
  ticket.priority = priority;
  ticket.retailer = retailer;
  ticket.enqueue_micros = now;
  ticket.deadline_micros = deadline_micros;
  queues_[static_cast<int>(priority)].push_back(ticket);
  ++queue_size_;
  admission.outcome = Outcome::kQueued;
  admission.id = ticket.id;
  SampleLocked(&admission);
  return admission;
}

void AdmissionController::DrainLocked(Drained* drained) {
  const int64_t now = clock_->NowMicros();
  while (queue_size_ > 0 && in_flight_ < limiter_.limit()) {
    // Highest priority class first, FIFO within the class.
    int p = kNumRequestPriorities - 1;
    while (queues_[p].empty()) --p;
    Ticket head = queues_[p].front();

    // A waiter whose deadline already passed is dead weight: the client
    // gave up, serving it would burn a slot for zero goodput.
    if (head.deadline_micros > 0 && now > head.deadline_micros) {
      queues_[p].pop_front();
      --queue_size_;
      head.shed_reason = ShedReason::kQueueDeadline;
      CountShed(head.priority, head.shed_reason);
      drained->shed.push_back(head);
      continue;
    }

    // CoDel-style standing-queue control on the sojourn time of the
    // request being dequeued: brief bursts pass untouched, but a sojourn
    // above target for a whole interval means the queue is not draining —
    // shed the head (freshest information: it waited the longest).
    const int64_t sojourn = now - head.enqueue_micros;
    if (sojourn > options_.codel_target_micros) {
      if (codel_first_above_micros_ == 0) {
        codel_first_above_micros_ = now;
      } else if (now - codel_first_above_micros_ >=
                 options_.codel_interval_micros) {
        codel_first_above_micros_ = now;  // one shed per interval
        queues_[p].pop_front();
        --queue_size_;
        head.shed_reason = ShedReason::kCodel;
        CountShed(head.priority, head.shed_reason);
        drained->shed.push_back(head);
        continue;
      }
    } else {
      codel_first_above_micros_ = 0;
    }

    queues_[p].pop_front();
    --queue_size_;
    ++in_flight_;
    CountAdmitted(head.priority);
    drained->admitted.push_back(head);
  }
  queue_gauge_->Set(static_cast<double>(queue_size_));
}

AdmissionController::Drained AdmissionController::Release(
    int64_t latency_micros) {
  Drained drained;
  std::lock_guard<std::mutex> lock(mu_);
  SIGCHECK(in_flight_ > 0);
  --in_flight_;
  limiter_.Record(latency_micros);
  limit_gauge_->Set(static_cast<double>(limiter_.limit()));
  DrainLocked(&drained);
  UpdatePressureLocked();
  in_flight_gauge_->Set(static_cast<double>(in_flight_));
  return drained;
}

int AdmissionController::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

int AdmissionController::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_size_;
}

int AdmissionController::concurrency_limit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return limiter_.limit();
}

double AdmissionController::Occupancy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return OccupancyLocked();
}

double AdmissionController::Pressure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pressure_;
}

}  // namespace sigmund::serving
