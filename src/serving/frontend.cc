#include "serving/frontend.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/retry.h"

namespace sigmund::serving {

const char* ServingSourceName(ServingSource source) {
  switch (source) {
    case ServingSource::kStore:
      return "store";
    case ServingSource::kLastKnownGood:
      return "last_known_good";
    case ServingSource::kPopularity:
      return "popularity";
    case ServingSource::kBrownoutLastKnownGood:
      return "brownout_last_known_good";
    case ServingSource::kOnlineRetrieval:
      return "online_retrieval";
  }
  return "unknown";
}

Frontend::Frontend(const ServingReader* store,
                   const core::ScoreCalibrator* calibrator,
                   obs::MetricRegistry* metrics, const Clock* clock,
                   const Options& options)
    : store_(store),
      calibrator_(calibrator),
      clock_(clock != nullptr ? clock : RealClock::Get()),
      options_(options),
      metrics_(obs::RequireRegistry(metrics, "Frontend")),
      request_micros_(metrics_->GetHistogram("serving_request_micros")),
      retrieval_fallbacks_(
          metrics_->GetCounter("serving_retrieval_fallbacks_total")),
      deadline_exceeded_(
          metrics_->GetCounter("serving_deadline_exceeded_total")),
      overrun_micros_(
          metrics_->GetHistogram("serving_deadline_overrun_micros")),
      breaker_trips_(metrics_->GetCounter("serving_breaker_trips_total")),
      breaker_short_circuits_(
          metrics_->GetCounter("serving_breaker_short_circuits_total")),
      state_evictions_(
          metrics_->GetCounter("serving_state_evictions_total")),
      state_entries_(metrics_->GetGauge("serving_state_entries")),
      client_retries_(metrics_->GetCounter("serving_client_retries_total")),
      retry_budget_exhausted_(
          metrics_->GetCounter("serving_retry_budget_exhausted_total")),
      retry_budget_tokens_(options.retry_budget) {
  SIGCHECK(store_ != nullptr) << "Frontend requires a store";
}

Frontend::RetailerState& Frontend::TouchLocked(
    data::RetailerId retailer) const {
  auto [it, inserted] = state_.try_emplace(retailer);
  if (inserted) {
    lru_.push_front(retailer);
    it->second.lru_it = lru_.begin();
  } else if (it->second.lru_it != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  }
  if (options_.max_retailer_states > 0 &&
      static_cast<int>(state_.size()) > options_.max_retailer_states) {
    // The just-touched entry sits at the LRU front, so the victim is
    // always some other retailer — the one coldest for the longest.
    const data::RetailerId victim = lru_.back();
    lru_.pop_back();
    state_.erase(victim);
    state_evictions_->Add(1);
  }
  state_entries_->Set(static_cast<double>(state_.size()));
  return it->second;
}

void Frontend::SetPopularityFallback(data::RetailerId retailer,
                                     std::vector<core::ScoredItem> items) {
  std::lock_guard<std::mutex> lock(mu_);
  RetailerState& state = TouchLocked(retailer);
  state.popularity = std::move(items);
  state.has_popularity = true;
}

bool Frontend::BreakerOpen(data::RetailerId retailer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = state_.find(retailer);
  return it != state_.end() && it->second.breaker_open &&
         clock_->NowSeconds() < it->second.open_until_seconds;
}

int Frontend::NumRetailerStates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(state_.size());
}

StatusOr<RecommendationResponse> Frontend::Handle(
    const RecommendationRequest& request) const {
  const int64_t start_micros = clock_->NowMicros();
  // The serving batch version this request is answered from; starts as
  // the retailer's active version and is rewritten when a fallback serves
  // an older snapshot. Labels the per-request counters so every serve —
  // healthy or degraded — is attributable to a concrete snapshot.
  int64_t batch_version = store_->RetailerVersion(request.retailer);
  bool admitted = false;
  // Request tracing: annotate the caller's trace when one is attached,
  // else start our own (submitted in finish; kept ones become exemplars).
  obs::RequestTrace owned_trace;
  obs::TraceContext trace = request.trace;
  if (!trace.active() && options_.request_tracer != nullptr) {
    owned_trace = options_.request_tracer->StartRequest("serving/handle");
    trace = owned_trace.Context();
  }
  // Set when the store lookup finished past the request deadline — drives
  // the kDeadlineOverrun verdict even when a fallback then serves.
  bool overran_deadline = false;
  // Which plane answered: "materialized" (the store), "online_retrieval"
  // (the ANN index), or "fallback" (any degradation-ladder rung). Labels
  // serving_requests_total so the A/B arms are separable in RunProfile.
  const char* serving_path = "materialized";
  // Records the request outcome + latency on every return path, and gives
  // the admission slot back with the observed latency so the concurrency
  // limiter learns from every admitted request.
  auto finish = [&](StatusOr<RecommendationResponse> result) {
    const int64_t latency = clock_->NowMicros() - start_micros;
    if (admitted && options_.admission != nullptr) {
      options_.admission->Release(latency);
    }
    if (trace.active()) {
      // Verdict precedence: shed > deadline overrun > error > healthy
      // (SetVerdict never downgrades a caller-set verdict to healthy).
      obs::TraceVerdict verdict = obs::TraceVerdict::kHealthy;
      if (!result.ok() &&
          result.status().code() == StatusCode::kResourceExhausted) {
        verdict = obs::TraceVerdict::kShed;
      } else if (overran_deadline) {
        verdict = obs::TraceVerdict::kDeadlineOverrun;
      } else if (!result.ok()) {
        verdict = obs::TraceVerdict::kError;
      }
      trace.SetVerdict(verdict);
    }
    request_micros_->Observe(static_cast<double>(latency));
    const char* outcome =
        result.ok() ? "ok"
        : result.status().code() == StatusCode::kResourceExhausted
            ? "shed"
            : "error";
    metrics_
        ->GetCounter("serving_requests_total",
                     {{"outcome", outcome},
                      {"path", serving_path},
                      {"version", std::to_string(batch_version)}})
        ->Add(1);
    if (owned_trace.active()) {
      const uint64_t trace_id = owned_trace.trace_id();
      if (options_.request_tracer->Submit(std::move(owned_trace))) {
        // Kept trace: link the latency bucket this request landed in to
        // the trace, so the exposition's p99 resolves to a real request.
        request_micros_->AttachExemplar(static_cast<double>(latency),
                                        trace_id);
      }
    }
    return result;
  };
  if (request.context.empty()) {
    return finish(InvalidArgumentError("empty context"));
  }
  if (request.max_results <= 0) {
    return finish(InvalidArgumentError("max_results must be positive"));
  }

  // Admission: shed requests return kResourceExhausted without touching
  // the store (or the per-retailer breaker/fallback state). The Frontend
  // is synchronous, so a request is admitted or shed — never queued.
  const int64_t deadline_micros =
      options_.request_deadline_micros > 0
          ? start_micros + options_.request_deadline_micros
          : 0;
  if (options_.admission != nullptr) {
    const int64_t admission_span = trace.StartSpan("admission");
    const obs::TraceContext admission_ctx{trace.trace, admission_span};
    const AdmissionController::Admission admission =
        options_.admission->Offer(request.retailer, request.priority,
                                  deadline_micros, /*may_queue=*/false);
    if (admission_ctx.active()) {
      // The queue/limiter picture the decision saw, sampled atomically
      // with it — what a shed trace needs to explain itself.
      admission_ctx.Annotate("priority",
                             RequestPriorityName(request.priority));
      admission_ctx.Annotate("queue_depth",
                             std::to_string(admission.queue_depth));
      admission_ctx.Annotate("in_flight",
                             std::to_string(admission.in_flight));
      admission_ctx.Annotate("limit", std::to_string(admission.limit));
      admission_ctx.Annotate("pressure",
                             std::to_string(admission.pressure));
    }
    if (admission.outcome != AdmissionController::Outcome::kAdmitted) {
      admission_ctx.Annotate("outcome", "shed");
      admission_ctx.Annotate("shed_reason",
                             ShedReasonName(admission.reason));
      trace.EndSpan(admission_span);
      return finish(ResourceExhaustedError(
          std::string("request shed: ") + ShedReasonName(admission.reason)));
    }
    admission_ctx.Annotate("outcome", "admitted");
    trace.EndSpan(admission_span);
    admitted = true;
  }

  RecommendationResponse response;
  const core::ContextEntry& latest = request.context.back();
  response.post_purchase =
      latest.action == data::ActionType::kCart ||
      latest.action == data::ActionType::kConversion;
  response.funnel =
      core::ClassifyFunnelStage(request.context, /*catalog=*/nullptr, {});

  // Online-retrieval A/B arm: a sticky, seed-stable hash split of
  // (retailer, user) sends retrieval_ab_fraction of traffic to the ANN
  // index — but only when the retailer actually has an active index, so
  // a rollback (version -> 0) instantly returns it to the materialized
  // plane without touching the split.
  bool retrieval_arm = false;
  int64_t retrieval_version = 0;
  if (options_.retrieval_store != nullptr &&
      options_.retrieval_ab_fraction > 0.0) {
    retrieval_version =
        options_.retrieval_store->RetailerVersion(request.retailer);
    if (retrieval_version > 0) {
      // Anonymous requests key on the latest context item instead (high
      // bit set so item keys can never collide with user keys).
      const uint64_t subject =
          request.user >= 0
              ? static_cast<uint64_t>(request.user)
              : 0x8000000000000000ULL |
                    static_cast<uint64_t>(static_cast<uint32_t>(latest.item));
      const uint64_t key = Fnv1a64Mix(
          Fnv1a64Mix(kFnv64OffsetBasis,
                     static_cast<uint64_t>(request.retailer)),
          subject);
      retrieval_arm = HashSplit(options_.retrieval_ab_seed, key,
                                options_.retrieval_ab_fraction);
      if (retrieval_arm) trace.Annotate("ab_arm", "online_retrieval");
    }
  }

  // Brownout ladder: under sustained limiter pressure the response gets
  // cheaper before anything sheds — fewer results (rung 1), no calibration
  // thresholding (rung 2), last-known-good without a store call (rung 3).
  int rung = 0;
  if (options_.admission != nullptr) {
    const double pressure = options_.admission->Pressure();
    if (pressure >= options_.brownout_serve_lkg_pressure) {
      rung = 3;
    } else if (pressure >= options_.brownout_skip_threshold_pressure) {
      rung = 2;
    } else if (pressure >= options_.brownout_shrink_pressure) {
      rung = 1;
    }
  }
  response.brownout_rung = rung;
  if (rung > 0) {
    metrics_
        ->GetCounter("serving_brownout_total",
                     {{"rung", std::to_string(rung)}})
        ->Add(1);
    trace.Annotate("brownout_rung", std::to_string(rung));
  }
  const int effective_max =
      rung >= 1 ? std::max(1, std::min(request.max_results,
                                       options_.brownout_max_results))
                : request.max_results;
  const bool apply_threshold = rung < 2;

  // Applies display thresholding + truncation and finishes the request.
  auto deliver = [&](const std::vector<core::ScoredItem>& list,
                     ServingSource source) {
    response.source = source;
    response.degraded = source != ServingSource::kStore &&
                        source != ServingSource::kOnlineRetrieval;
    response.batch_version = batch_version;
    serving_path = source == ServingSource::kOnlineRetrieval
                       ? "online_retrieval"
                   : source == ServingSource::kStore ? "materialized"
                                                     : "fallback";
    trace.Annotate("source", ServingSourceName(source));
    for (const core::ScoredItem& item : list) {
      if (static_cast<int>(response.items.size()) >= effective_max) {
        break;
      }
      if (apply_threshold && calibrator_ != nullptr &&
          request.display_threshold > 0.0 &&
          !calibrator_->ShouldDisplay(item.score,
                                      request.display_threshold)) {
        ++response.suppressed_by_threshold;
        continue;
      }
      response.items.push_back(item);
    }
    return finish(std::move(response));
  };

  // Serves the degradation ladder after a store failure (or an open
  // breaker): last-known-good list, then popularity, then the error.
  auto count_fallback = [&](const char* source) {
    metrics_
        ->GetCounter("serving_fallbacks_total",
                     {{"source", source},
                      {"version", std::to_string(batch_version)}})
        ->Add(1);
  };
  auto fall_back = [&](const Status& error) {
    std::lock_guard<std::mutex> lock(mu_);
    RetailerState& state = TouchLocked(request.retailer);
    if (state.has_last_known_good) {
      // The replayed list belongs to the snapshot it was cached from, not
      // to whatever the store considers active now.
      batch_version = state.last_known_good_version;
      count_fallback("last_known_good");
      return deliver(state.last_known_good, ServingSource::kLastKnownGood);
    }
    if (state.has_popularity) {
      batch_version = 0;  // the static list belongs to no snapshot
      count_fallback("popularity");
      return deliver(state.popularity, ServingSource::kPopularity);
    }
    return finish(StatusOr<RecommendationResponse>(error));
  };

  // Brownout rung 3: the plane is saturated, so answer from the cached
  // last-known-good list without spending a store lookup — the cheapest
  // response that is still this retailer's own ranking. Retailers with no
  // cached list yet fall through to the normal path.
  if (rung >= 3) {
    std::lock_guard<std::mutex> lock(mu_);
    RetailerState& state = TouchLocked(request.retailer);
    if (state.has_last_known_good) {
      batch_version = state.last_known_good_version;
      count_fallback("brownout_last_known_good");
      return deliver(state.last_known_good,
                     ServingSource::kBrownoutLastKnownGood);
    }
  }

  // Circuit breaker: while open, don't even touch the store. Once the
  // cooldown passes, let this request through as the half-open probe.
  const bool breaker_enabled = options_.breaker_failure_threshold > 0;
  bool short_circuited = false;
  if (breaker_enabled) {
    std::lock_guard<std::mutex> lock(mu_);
    RetailerState& state = TouchLocked(request.retailer);
    if (state.breaker_open &&
        clock_->NowSeconds() < state.open_until_seconds) {
      breaker_short_circuits_->Add(1);
      short_circuited = true;
    }
    // Past the cooldown the request proceeds as the half-open probe: a
    // success below closes the breaker, a failure re-opens it.
  }
  if (short_circuited) {
    trace.Annotate("breaker", "short_circuit");
    return fall_back(UnavailableError("circuit breaker open"));
  }

  bool served_from_retrieval = false;
  auto do_lookup = [&]() -> StatusOr<std::vector<core::ScoredItem>> {
    // A/B treatment: try the ANN plane first. A retrieval failure never
    // costs the user the request — it demotes this request back to the
    // materialized store (counted, so a sick index is visible) and the
    // normal ladder takes over from there.
    if (retrieval_arm) {
      const int64_t retrieval_span = trace.StartSpan("retrieval_lookup");
      const obs::TraceContext retrieval_ctx{trace.trace, retrieval_span};
      StatusOr<std::vector<core::ScoredItem>> result =
          options_.retrieval_store->ServeContext(request.retailer,
                                                 request.context,
                                                 retrieval_ctx);
      if (result.ok()) {
        trace.EndSpan(retrieval_span);
        served_from_retrieval = true;
        batch_version = retrieval_version;
        return result;
      }
      retrieval_ctx.Annotate("error", result.status().message());
      trace.EndSpan(retrieval_span);
      retrieval_fallbacks_->Add(1);
      retrieval_arm = false;  // retries go straight to the store
    }
    const int64_t lookup_span = trace.StartSpan("store_lookup");
    const obs::TraceContext lookup_ctx{trace.trace, lookup_span};
    StatusOr<std::vector<core::ScoredItem>> result =
        store_->ServeContext(request.retailer, request.context, lookup_ctx);
    if (!result.ok()) {
      lookup_ctx.Annotate("error", result.status().message());
    }
    trace.EndSpan(lookup_span);
    return result;
  };
  if (options_.store_retries > 0) retry_budget_tokens_.RecordRequest();
  StatusOr<std::vector<core::ScoredItem>> list = do_lookup();
  // Budgeted client retries: each attempt must withdraw a token banked by
  // real request volume, so a failing store sees at most
  // (1 + retry_budget.ratio) × offered load — retries can never become a
  // storm that finishes the backend off. Shed responses
  // (kResourceExhausted) are deliberately not retryable.
  for (int attempt = 0;
       attempt < options_.store_retries && !list.ok() &&
       IsRetryableError(list.status());
       ++attempt) {
    if (!retry_budget_tokens_.TryWithdraw()) {
      retry_budget_exhausted_->Add(1);
      trace.Annotate("retry_budget", "exhausted");
      break;
    }
    client_retries_->Add(1);
    trace.Annotate("retry_attempt", std::to_string(attempt + 1));
    list = do_lookup();
  }

  // Deadline: a lookup that finished too late is as bad as one that
  // failed — the client has already given up. The overrun size feeds a
  // histogram so tail blowups are visible, not just counted.
  if (list.ok() && options_.request_deadline_micros > 0) {
    const int64_t elapsed = clock_->NowMicros() - start_micros;
    if (elapsed > options_.request_deadline_micros) {
      deadline_exceeded_->Add(1);
      response.overrun_micros = elapsed - options_.request_deadline_micros;
      overrun_micros_->Observe(static_cast<double>(response.overrun_micros));
      overran_deadline = true;
      trace.Annotate("overrun_micros",
                     std::to_string(response.overrun_micros));
      list = UnavailableError("request deadline exceeded");
    }
  }

  if (list.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    RetailerState& state = TouchLocked(request.retailer);
    state.consecutive_failures = 0;
    state.breaker_open = false;
    state.last_known_good = *list;
    state.has_last_known_good = true;
    state.last_known_good_version = batch_version;
    return deliver(*list, served_from_retrieval
                              ? ServingSource::kOnlineRetrieval
                              : ServingSource::kStore);
  }

  // Store failure: advance the breaker, then descend the ladder.
  {
    std::lock_guard<std::mutex> lock(mu_);
    RetailerState& state = TouchLocked(request.retailer);
    ++state.consecutive_failures;
    if (breaker_enabled &&
        state.consecutive_failures >= options_.breaker_failure_threshold) {
      state.breaker_open = true;
      state.open_until_seconds =
          clock_->NowSeconds() + options_.breaker_open_seconds;
      breaker_trips_->Add(1);
    }
  }
  return fall_back(list.status());
}

}  // namespace sigmund::serving
