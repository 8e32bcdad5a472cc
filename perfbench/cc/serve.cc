// The serving phase: three request threads drive a Frontend over the
// service's serving planes (materialized store group + ANN retrieval arm)
// while one writer thread re-stages and activates retailer batches from
// their SFS files. A closed loop gives capacity; an open loop at a fixed
// offered rate gives latency, timed from each request's due time. The
// phase runs in short chunks after the timed days, so its medians span
// the whole run: the speed of a shared machine drifts over seconds.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "hooks.h"
#include "pipeline/config_record.h"
#include "serving/frontend.h"
#include "workloads.h"

namespace perfbench {

namespace core = sigmund::core;
namespace data = sigmund::data;
namespace serving = sigmund::serving;

namespace {

constexpr int kRequestThreads = 3;
// Open-loop offered rate (requests/s over all request threads). Chosen
// far below the closed-loop capacity of every workload (about 150,000-
// 300,000 requests/s on a 4-core machine), so the open loop measures
// latency, not queueing at saturation, even while the machine is slowed
// down by other tenants.
constexpr double kOpenLoopRate = 20000.0;
// The writer re-stages and activates retailer batches round-robin at this
// fixed item rate, well below the refresh speed the store reaches on a
// 4-core machine (~90,000 items/s), so the number of refreshes readers see
// per second does not depend on how fast a refresh is.
constexpr double kRefreshItemsPerS = 15000.0;
// Each chunk runs the closed loop, then the open loop, for these lengths.
// The open loop is one latency window: its quantiles need at least
// kMinP99Samples requests (10,000 at the offered rate).
constexpr double kClosedLoopS = 0.4;
constexpr double kOpenLoopS = 0.5;
constexpr double kRetrievalFraction = 0.2;
// Closed-loop capacity is the median throughput over buckets of this
// length.
constexpr double kCapacityBucketS = 0.05;
constexpr int kRequestsPerThread = 1 << 14;
// Closed-loop requests traced (handle span + store child span): 1 in N.
constexpr int kTraceEvery = 8;
// Ok materialized responses re-checked against the store: 1 in N.
constexpr int kCheckEvery = 64;

thread_local bool t_trace_request = false;

// ServingReader decorator: records a child span around each lookup made
// for a request the calling thread is tracing.
class SpannedReader : public serving::ServingReader {
 public:
  SpannedReader(const serving::ServingReader* inner, SpanRecorder* spans,
                const char* name)
      : inner_(inner), spans_(spans), name_(name) {}

  sigmund::StatusOr<std::vector<core::ScoredItem>> ServeContext(
      data::RetailerId retailer, const core::Context& context) const override {
    Scope span(t_trace_request ? spans_ : nullptr, name_);
    return inner_->ServeContext(retailer, context);
  }
  sigmund::StatusOr<std::vector<core::ScoredItem>> ServeContext(
      data::RetailerId retailer, const core::Context& context,
      sigmund::obs::TraceContext trace) const override {
    Scope span(t_trace_request ? spans_ : nullptr, name_);
    return inner_->ServeContext(retailer, context, trace);
  }
  int64_t RetailerVersion(data::RetailerId retailer) const override {
    return inner_->RetailerVersion(retailer);
  }

 private:
  const serving::ServingReader* inner_;
  SpanRecorder* spans_;
  const char* name_;
};

// Seeded request pool of one thread, drawn from the generated event logs:
// each request replays one logged event, picked uniformly over every event
// of every retailer, with the same user's preceding event as the earlier
// context entry. Retailer load, item popularity and the view / search /
// cart / conversion mix (and with it which store lists and paths are hit)
// therefore follow the world generator.
std::vector<serving::RecommendationRequest> MakeRequests(
    const std::vector<const data::RetailerData*>& retailers, uint64_t seed,
    int thread) {
  // Cumulative event counts: over retailers, and per retailer over users.
  std::vector<int64_t> retailer_events;
  std::vector<std::vector<int64_t>> user_events(retailers.size());
  int64_t total = 0;
  for (size_t r = 0; r < retailers.size(); ++r) {
    int64_t events = 0;
    for (const std::vector<data::Interaction>& history :
         retailers[r]->histories) {
      events += static_cast<int64_t>(history.size());
      user_events[r].push_back(events);
    }
    total += events;
    retailer_events.push_back(total);
  }
  SIGCHECK(total > 0);
  // Index of the first cumulative count above `k`.
  auto find = [](const std::vector<int64_t>& cumulative, int64_t k) {
    return static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), k) -
        cumulative.begin());
  };

  sigmund::Rng rng(sigmund::SplitMix64(seed * 31 + thread + 1));
  std::vector<serving::RecommendationRequest> requests(kRequestsPerThread);
  for (serving::RecommendationRequest& request : requests) {
    int64_t k = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(total)));
    const size_t r = find(retailer_events, k);
    if (r > 0) k -= retailer_events[r - 1];
    const size_t user = find(user_events[r], k);
    if (user > 0) k -= user_events[r][user - 1];
    const std::vector<data::Interaction>& history =
        retailers[r]->histories[user];
    request.retailer = retailers[r]->id;
    request.user = static_cast<data::UserIndex>(user);
    for (int64_t e = std::max<int64_t>(0, k - 1); e <= k; ++e) {
      request.context.push_back({history[e].item, history[e].action});
    }
  }
  return requests;
}

struct Sample {
  double due_s = 0.0;
  double send_s = 0.0;
  double end_s = 0.0;
  serving::ServingSource source = serving::ServingSource::kStore;
  bool ok = false;
};

// Per-thread tallies; merged after the threads join.
struct ThreadTally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t ok = 0;
  // Allocations over the closed-loop requests that recorded no span.
  int64_t allocs = 0;
  int64_t untraced = 0;
  std::vector<std::string> failures;
  std::vector<Sample> samples;         // open loop only
  std::vector<int64_t> ok_per_bucket;  // closed loop only
};

struct WriterLog {
  // [start, end] of each refresh (stage + activate call), seconds.
  std::vector<std::pair<double, double>> refreshes;
  int64_t items = 0;
  double stage_s = 0.0;
  std::vector<double> activate_us;
  std::vector<std::string> failures;
};

bool Served(const sigmund::StatusOr<serving::RecommendationResponse>& response) {
  return response.ok() &&
         (response->source == serving::ServingSource::kStore ||
          response->source == serving::ServingSource::kOnlineRetrieval);
}

// Classifies one response and runs the sampled output checks.
void Tally(const ServeInputs& inputs, const serving::RecommendationRequest& request,
           const sigmund::StatusOr<serving::RecommendationResponse>& response,
           const std::vector<int>& catalog_size, int64_t index,
           ThreadTally* tally) {
  ++tally->attempted;
  if (!Served(response)) {
    ++tally->failed;
    if (tally->failures.size() < 3) {
      tally->failures.push_back(
          response.ok()
              ? std::string("request served from fallback ") +
                    serving::ServingSourceName(response->source)
              : "request failed: " + response.status().ToString());
    }
    return;
  }
  ++tally->ok;
  if (response->source == serving::ServingSource::kOnlineRetrieval) {
    for (const core::ScoredItem& item : response->items) {
      if (item.item < 0 || item.item >= catalog_size[request.retailer]) {
        ++tally->failed;
        tally->failures.push_back(sigmund::StrFormat(
            "retrieval arm returned item %d outside retailer %d's catalog",
            item.item, request.retailer));
        return;
      }
    }
  } else if (index % kCheckEvery == 0) {
    sigmund::StatusOr<std::vector<core::ScoredItem>> expected =
        inputs.service->store().ServeContext(request.retailer,
                                             request.context);
    bool same = expected.ok();
    if (same) {
      const size_t n = std::min<size_t>(expected->size(),
                                        static_cast<size_t>(request.max_results));
      same = response->items.size() == n;
      for (size_t i = 0; same && i < n; ++i) {
        same = response->items[i].item == (*expected)[i].item;
      }
    }
    if (!same) {
      ++tally->failed;
      tally->failures.push_back(sigmund::StrFormat(
          "response for retailer %d item %d differs from the store's list",
          request.retailer, request.context.back().item));
    }
  }
}

// Waits until `t`: sleeps while it is far away, then spins, so sends go
// out on time.
void SpinUntil(double t) {
  for (;;) {
    const double now = NowSeconds();
    if (now >= t) return;
    if (t - now > 2e-3) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>((t - now - 1e-3) * 1e6)));
    }
  }
}

// Latency quantile (microseconds, from due time) of one chunk's open-loop
// window, appended to `out` when the window holds enough samples.
void AddWindowQuantile(const std::vector<const Sample*>& samples, double q,
                       std::vector<double>* out) {
  if (samples.size() < kMinP99Samples) return;
  std::vector<double> latency_us;
  for (const Sample* s : samples) {
    latency_us.push_back((s->end_s - s->due_s) * 1e6);
  }
  out->push_back(Quantile(std::move(latency_us), q));
}

}  // namespace

void RunServeChunk(const ServeInputs& inputs, ServeTotals* totals,
                   RunResult* result) {
  std::vector<int> catalog_size;
  for (const data::RetailerData* r : inputs.retailers) {
    if (static_cast<size_t>(r->id) >= catalog_size.size()) {
      catalog_size.resize(r->id + 1, 0);
    }
    catalog_size[r->id] = r->num_items();
  }
  std::vector<std::vector<serving::RecommendationRequest>> pools;
  for (int t = 0; t < kRequestThreads; ++t) {
    pools.push_back(MakeRequests(inputs.retailers, inputs.seed, t));
  }

  // Traced runs wrap both readers to record a child span per lookup;
  // untraced runs hand the frontend the service's readers directly.
  const serving::ServingReader* store = inputs.service->store_group();
  const serving::ServingReader* retrieval = inputs.service->retrieval_reader();
  SpannedReader spanned_store(store, inputs.spans, "serving.serve_context");
  SpannedReader spanned_retrieval(retrieval, inputs.spans,
                                  "retrieval.serve_context");
  if (inputs.spans != nullptr) {
    store = &spanned_store;
    retrieval = &spanned_retrieval;
  }
  sigmund::obs::MetricRegistry frontend_metrics;
  serving::Frontend::Options frontend_options;
  frontend_options.retrieval_store = retrieval;
  frontend_options.retrieval_ab_fraction = kRetrievalFraction;
  const serving::Frontend frontend(store, /*calibrator=*/nullptr,
                                   &frontend_metrics, /*clock=*/nullptr,
                                   frontend_options);

  // --- Writer: re-stage + activate retailer batches at kRefreshItemsPerS,
  // for the whole chunk, round-robin across chunks.
  std::atomic<bool> stop_writer{false};
  WriterLog writer_log;
  std::thread writer([&] {
    sigmund::serving::RecommendationStore* primary =
        inputs.service->mutable_store();
    double next = NowSeconds();
    while (!stop_writer.load()) {
      // The writer's cadence needs no microsecond precision, so it sleeps
      // rather than spin on a core the request threads could use.
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(0.0, next - NowSeconds())));
      const data::RetailerData* r =
          inputs.retailers[totals->next_refresh++ % inputs.retailers.size()];
      next += r->num_items() / kRefreshItemsPerS;
      const double t0 = NowSeconds();
      sigmund::StatusOr<int64_t> version = primary->StageRetailerFromFile(
          r->id, *inputs.fs, sigmund::pipeline::RecommendationPath(r->id));
      const double t1 = NowSeconds();
      sigmund::Status activated =
          version.ok() ? primary->ActivateVersion(r->id, *version)
                       : version.status();
      const double t2 = NowSeconds();
      if (!activated.ok()) {
        if (writer_log.failures.size() < 3) {
          writer_log.failures.push_back("batch refresh failed: " +
                                        activated.ToString());
        }
        continue;
      }
      writer_log.refreshes.emplace_back(t0, t2);
      writer_log.items += r->num_items();
      writer_log.stage_s += t1 - t0;
      writer_log.activate_us.push_back((t2 - t1) * 1e6);
    }
  });

  // --- Closed loop: each thread sends its next request when the previous
  // one completes.
  std::vector<ThreadTally> closed(kRequestThreads);
  const double closed_start = NowSeconds();
  const double closed_end = closed_start + kClosedLoopS;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kRequestThreads; ++t) {
      threads.emplace_back([&, t] {
        ThreadTally& tally = closed[t];
        const auto& pool = pools[t];
        for (int64_t i = 0; NowSeconds() < closed_end; ++i) {
          const serving::RecommendationRequest& request =
              pool[static_cast<size_t>(i) % pool.size()];
          const bool traced = inputs.spans != nullptr && i % kTraceEvery == 0;
          const int64_t allocs_before = ThreadAllocs();
          t_trace_request = traced;
          Scope span(traced ? inputs.spans : nullptr, "serving.handle");
          const sigmund::StatusOr<serving::RecommendationResponse> response =
              frontend.Handle(request);
          span.End();
          t_trace_request = false;
          if (!traced) {
            tally.allocs += ThreadAllocs() - allocs_before;
            ++tally.untraced;
          }
          const int64_t ok_before = tally.ok;
          Tally(inputs, request, response, catalog_size, i, &tally);
          const size_t bucket = static_cast<size_t>(
              (NowSeconds() - closed_start) / kCapacityBucketS);
          if (bucket >= tally.ok_per_bucket.size()) {
            tally.ok_per_bucket.resize(bucket + 1, 0);
          }
          tally.ok_per_bucket[bucket] += tally.ok - ok_before;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double closed_elapsed = NowSeconds() - closed_start;

  // --- Open loop: each thread sends on a fixed schedule, whether or not
  // its previous request has completed.
  std::vector<ThreadTally> open(kRequestThreads);
  const double open_start = NowSeconds() + 0.01;
  {
    const double period = kRequestThreads / kOpenLoopRate;
    std::vector<std::thread> threads;
    for (int t = 0; t < kRequestThreads; ++t) {
      threads.emplace_back([&, t, period] {
        ThreadTally& tally = open[t];
        const auto& pool = pools[t];
        const double offset = period * t / kRequestThreads;
        for (int64_t k = 0;; ++k) {
          const double due = open_start + offset + k * period;
          if (due >= open_start + kOpenLoopS) break;
          const serving::RecommendationRequest& request =
              pool[static_cast<size_t>(k) % pool.size()];
          SpinUntil(due);
          Sample sample;
          sample.due_s = due;
          sample.send_s = NowSeconds();
          sigmund::StatusOr<serving::RecommendationResponse> response =
              frontend.Handle(request);
          sample.end_s = NowSeconds();
          sample.ok = Served(response);
          if (response.ok()) sample.source = response->source;
          tally.samples.push_back(sample);
          Tally(inputs, request, response, catalog_size, k + 1, &tally);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  stop_writer.store(true);
  writer.join();

  // --- Verdict and totals.
  std::vector<Sample> samples;
  for (std::vector<ThreadTally>* phase : {&closed, &open}) {
    for (ThreadTally& tally : *phase) {
      result->attempted += tally.attempted;
      result->failed += tally.failed;
      for (const std::string& failure : tally.failures) result->Fail(failure);
      samples.insert(samples.end(), tally.samples.begin(), tally.samples.end());
    }
  }
  // Only whole capacity buckets count: the last one is cut short by the
  // deadline.
  std::vector<double> bucket_ok(
      std::max<size_t>(1, static_cast<size_t>(closed_elapsed / kCapacityBucketS)),
      0.0);
  for (const ThreadTally& tally : closed) {
    for (size_t b = 0; b < std::min(bucket_ok.size(), tally.ok_per_bucket.size());
         ++b) {
      bucket_ok[b] += static_cast<double>(tally.ok_per_bucket[b]);
    }
    totals->closed_requests += tally.attempted;
    totals->closed_allocs += tally.allocs;
    totals->closed_untraced += tally.untraced;
  }
  for (double ok : bucket_ok) totals->capacity_rps.push_back(ok / kCapacityBucketS);
  totals->closed_s += closed_elapsed;
  for (const std::string& failure : writer_log.failures) result->Fail(failure);
  if (writer_log.refreshes.empty()) result->Fail("writer refreshed no batch");
  totals->refreshes += writer_log.refreshes.size();
  totals->refresh_items += writer_log.items;
  totals->stage_s += writer_log.stage_s;
  totals->activate_us.insert(totals->activate_us.end(),
                             writer_log.activate_us.begin(),
                             writer_log.activate_us.end());

  std::vector<const Sample*> materialized, online;
  for (const Sample& s : samples) {
    totals->lag_us.push_back((s.send_s - s.due_s) * 1e6);
    if (!s.ok) continue;
    if (s.source == serving::ServingSource::kStore) {
      materialized.push_back(&s);
    } else {
      online.push_back(&s);
    }
    // Requests whose [send, end] interval overlaps a writer refresh.
    auto it = std::upper_bound(
        writer_log.refreshes.begin(), writer_log.refreshes.end(),
        std::make_pair(s.end_s, s.end_s));
    if (it != writer_log.refreshes.begin() && (--it)->second >= s.send_s) {
      totals->overlapping_us.push_back((s.end_s - s.due_s) * 1e6);
    }
  }
  totals->materialized += materialized.size();
  totals->online += online.size();
  AddWindowQuantile(materialized, 0.5, &totals->p50_us);
  AddWindowQuantile(materialized, 0.99, &totals->p99_us);
  AddWindowQuantile(online, 0.99, &totals->retrieval_p99_us);
  ++totals->chunks;

  if (inputs.spans == nullptr) return;
  // Direct store lookups, single-threaded, outside any frontend.
  const sigmund::serving::RecommendationStore& direct = inputs.service->store();
  for (const auto& pool : pools) {
    const int64_t t0 = NowNanos();
    int64_t found = 0;
    for (const serving::RecommendationRequest& request : pool) {
      found += direct.ServeContext(request.retailer, request.context).ok();
    }
    totals->lookup_ns.push_back(static_cast<double>(NowNanos() - t0) /
                                static_cast<double>(pool.size()));
    if (found == 0) result->Fail("direct store lookups found nothing");
  }
}

void ReportServing(const ServeTotals& totals, SpanRecorder* spans,
                   Metrics* layers, RunResult* result) {
  if (totals.chunks == 0) {
    result->Fail("no serving chunk ran");
    return;
  }
  std::printf(
      "serving: %zu chunks; closed loop %lld requests over %.2f s (%d "
      "threads); open loop %.0f req/s offered: %zu materialized samples in "
      "%zu windows of %.2f s, %zu retrieval-arm samples in %zu windows; "
      "writer refreshed %zu batches\n",
      totals.chunks, static_cast<long long>(totals.closed_requests),
      totals.closed_s, kRequestThreads, kOpenLoopRate, totals.materialized,
      totals.p50_us.size(), kOpenLoopS, totals.online,
      totals.retrieval_p99_us.size(), totals.refreshes);
  if (totals.p50_us.empty() || totals.retrieval_p99_us.empty()) {
    result->Fail("no open-loop window held enough samples for a p99");
  }

  if (spans == nullptr) return;
  const std::map<std::string, SpanTotals> span_totals =
      TotalsByName(spans->Spans());
  const auto handle = span_totals.find("serving.handle");
  layers->Set("serving.capacity_rps", Median(totals.capacity_rps), "req/s");
  // p50: median over the chunks' windows. p99: the quietest window's p99;
  // interference from other tenants of a shared machine lands in the tail
  // of whichever window it hits.
  layers->Set("serving.p50_us", Median(totals.p50_us), "us");
  layers->Set("serving.p99_us", Quantile(totals.p99_us, 0.0), "us");
  layers->Set("retrieval.p99_us", Quantile(totals.retrieval_p99_us, 0.0),
              "us");
  layers->Set("serving.serve_context_ns", Median(totals.lookup_ns), "ns");
  layers->Set("serving.handle_self_ns",
              handle != span_totals.end() && handle->second.count > 0
                  ? static_cast<double>(handle->second.self_ns) /
                        handle->second.count
                  : 0.0,
              "ns");
  layers->Set("serving.allocs_per_request",
              totals.closed_untraced > 0
                  ? static_cast<double>(totals.closed_allocs) /
                        totals.closed_untraced
                  : 0.0,
              "count");
  CheckP99Samples("serving.p99_overlapping_activate_us",
                  totals.overlapping_us.size(), result);
  layers->Set("serving.p99_overlapping_activate_us",
              Quantile(totals.overlapping_us, 0.99), "us");
  layers->Set("serving.stage_items_per_s",
              totals.stage_s > 0 ? totals.refresh_items / totals.stage_s : 0.0,
              "items/s");
  layers->Set("serving.activate_us", Median(totals.activate_us), "us");
  CheckP99Samples("serving.generator_lag_us", totals.lag_us.size(), result);
  layers->Set("serving.generator_lag_us", Quantile(totals.lag_us, 0.99), "us");
}

}  // namespace perfbench
