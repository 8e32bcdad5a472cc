// Request-scoped tracing with tail-based sampling, exemplar-linked
// histograms, and SLO burn-rate alerting (DESIGN.md §10): the
// RequestTracer keep policy, verdict precedence, Frontend span trees for
// shed / brownout / deadline-overrun requests, the SloEngine state
// machine, and the flash-crowd scenario where 100% of the interesting
// tail is kept, the p99 exemplar resolves to a kept trace, at least one
// SLO alert fires and resolves — and turning all of it off leaves the
// simulation's decision_hash byte-identical (passivity).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/slo.h"
#include "common/trace.h"
#include "fake_reader.h"
#include "serving/admission.h"
#include "serving/frontend.h"
#include "serving/loadgen.h"

namespace sigmund {
namespace {

using serving::AdmissionController;
using serving::Frontend;
using serving::RequestPriority;

// --- RequestTracer: tail-based sampling --------------------------------------

obs::RequestTracer::Options TracerOptions(double sample_rate,
                                          int max_kept = 4096,
                                          uint64_t seed = 0) {
  obs::RequestTracer::Options options;
  options.sample_rate = sample_rate;
  options.max_kept_traces = max_kept;
  options.seed = seed;
  return options;
}

TEST(RequestTracerTest, KeepsEveryNonHealthyTrace) {
  SimClock clock;
  obs::MetricRegistry metrics;
  obs::RequestTracer tracer(TracerOptions(/*sample_rate=*/0.0), &metrics,
                            &clock);
  const obs::TraceVerdict bad[] = {obs::TraceVerdict::kShed,
                                   obs::TraceVerdict::kError,
                                   obs::TraceVerdict::kDeadlineOverrun};
  for (obs::TraceVerdict verdict : bad) {
    obs::RequestTrace trace = tracer.StartRequest("req");
    trace.SetVerdict(verdict);
    EXPECT_TRUE(tracer.Submit(std::move(trace)));
  }
  // Healthy traces at sample_rate 0 are all dropped.
  for (int i = 0; i < 100; ++i) {
    obs::RequestTrace trace = tracer.StartRequest("req");
    EXPECT_FALSE(tracer.Submit(std::move(trace)));
  }
  EXPECT_EQ(tracer.KeptCount(), 3);
}

TEST(RequestTracerTest, HealthySamplingIsDeterministicAndSeedStable) {
  SimClock clock_a;
  SimClock clock_b;
  obs::MetricRegistry metrics;
  obs::RequestTracer a(TracerOptions(0.25, 1 << 16, /*seed=*/7), &metrics,
                       &clock_a);
  obs::RequestTracer b(TracerOptions(0.25, 1 << 16, /*seed=*/7), &metrics,
                       &clock_b);
  int kept = 0;
  for (int i = 0; i < 4000; ++i) {
    obs::RequestTrace ta = a.StartRequest("req");
    obs::RequestTrace tb = b.StartRequest("req");
    // The keep decision is a pure function of (trace id, seed): Submit
    // agrees with the WouldKeepHealthy oracle and across instances.
    const uint64_t id = ta.trace_id();
    const bool would = a.WouldKeepHealthy(id);
    EXPECT_EQ(a.Submit(std::move(ta)), would);
    EXPECT_EQ(b.Submit(std::move(tb)), would);
    kept += would ? 1 : 0;
  }
  // ~25% within a loose band (the hash is uniform, not exact).
  EXPECT_GT(kept, 4000 * 0.20);
  EXPECT_LT(kept, 4000 * 0.30);

  // A different seed makes different healthy-keep decisions.
  SimClock clock_c;
  obs::RequestTracer c(TracerOptions(0.25, 1 << 16, /*seed=*/8), &metrics,
                       &clock_c);
  bool any_difference = false;
  for (int i = 0; i < 4000; ++i) {
    const uint64_t id = static_cast<uint64_t>(i) + 1;
    if (a.WouldKeepHealthy(id) != c.WouldKeepHealthy(id)) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(RequestTracerTest, RingBufferEvictsOldestFirst) {
  SimClock clock;
  obs::MetricRegistry metrics;
  obs::RequestTracer tracer(TracerOptions(1.0, /*max_kept=*/4), &metrics,
                            &clock);
  for (int i = 0; i < 10; ++i) {
    obs::RequestTrace trace = tracer.StartRequest("req");
    ASSERT_TRUE(tracer.Submit(std::move(trace)));
  }
  EXPECT_EQ(tracer.KeptCount(), 4);
  const std::vector<obs::RequestTraceRecord> kept = tracer.KeptTraces();
  ASSERT_EQ(kept.size(), 4u);
  // Oldest first: ids 7, 8, 9, 10 survive.
  EXPECT_EQ(kept[0].trace_id, 7u);
  EXPECT_EQ(kept[3].trace_id, 10u);
  EXPECT_TRUE(tracer.HasTrace(10));
  EXPECT_FALSE(tracer.HasTrace(6));
}

TEST(RequestTracerTest, VerdictUpgradesButNeverDowngrades) {
  SimClock clock;
  obs::MetricRegistry metrics;
  obs::RequestTracer tracer(TracerOptions(0.0), &metrics, &clock);
  obs::RequestTrace trace = tracer.StartRequest("req");
  EXPECT_EQ(trace.verdict(), obs::TraceVerdict::kHealthy);
  trace.SetVerdict(obs::TraceVerdict::kShed);
  // A later fallback success must not erase the shed classification.
  trace.SetVerdict(obs::TraceVerdict::kHealthy);
  EXPECT_EQ(trace.verdict(), obs::TraceVerdict::kShed);
  EXPECT_TRUE(tracer.Submit(std::move(trace)));
  EXPECT_EQ(tracer.KeptTraces()[0].verdict, obs::TraceVerdict::kShed);
}

TEST(RequestTracerTest, SpanTreeAndAnnotationsSurviveSubmit) {
  SimClock clock;
  obs::MetricRegistry metrics;
  obs::RequestTracer tracer(TracerOptions(1.0), &metrics, &clock);
  obs::RequestTrace trace = tracer.StartRequest("serving/handle");
  trace.Annotate(0, "retailer", "42");
  const int64_t admission = trace.StartSpan("admission");
  trace.Annotate(admission, "outcome", "admitted");
  clock.AdvanceMicros(5);
  trace.EndSpan(admission);
  const int64_t lookup = trace.StartSpan("store_lookup");
  clock.AdvanceMicros(100);
  // Left open on purpose: Submit closes any open span.
  ASSERT_TRUE(tracer.Submit(std::move(trace)));

  const obs::RequestTraceRecord record = tracer.KeptTraces()[0];
  EXPECT_EQ(record.name, "serving/handle");
  ASSERT_EQ(record.spans.size(), 3u);
  EXPECT_EQ(record.spans[0].id, 1);  // root
  EXPECT_EQ(record.Annotation("retailer"), "42");
  EXPECT_EQ(record.spans[1].name, "admission");
  EXPECT_EQ(record.spans[1].parent_id, 1);
  EXPECT_EQ(record.spans[1].Annotation("outcome"), "admitted");
  EXPECT_EQ(record.spans[1].DurationMicros(), 5);
  EXPECT_EQ(record.spans[2].id, lookup);
  EXPECT_EQ(record.spans[2].end_micros, clock.NowMicros());
  // JSON carries the verdict and every span.
  const std::string json = record.ToJson();
  EXPECT_NE(json.find("\"verdict\":\"healthy\""), std::string::npos);
  EXPECT_NE(json.find("store_lookup"), std::string::npos);
}

TEST(RequestTracerTest, InactiveContextIsANoOp) {
  obs::TraceContext context;
  EXPECT_FALSE(context.active());
  EXPECT_EQ(context.StartSpan("x"), 0);
  context.EndSpan(0);
  context.Annotate("k", "v");
  context.SetVerdict(obs::TraceVerdict::kError);  // must not crash
}

// --- Frontend span trees -----------------------------------------------------

testutil::FakeReader::Lookup FixedLookup() {
  return [](data::RetailerId, const core::Context&)
             -> StatusOr<std::vector<core::ScoredItem>> {
    return std::vector<core::ScoredItem>{{1, 2.0}, {2, 1.5}, {3, 1.0}};
  };
}

serving::RecommendationRequest UserRequest(data::RetailerId retailer = 1) {
  serving::RecommendationRequest request;
  request.retailer = retailer;
  request.context = {{0, data::ActionType::kView}};
  return request;
}

AdmissionController::Options SmallController(int limit) {
  AdmissionController::Options options;
  options.limiter.initial_limit = limit;
  options.limiter.min_limit = limit;
  options.limiter.max_limit = limit;
  options.queue_capacity = 0;
  return options;
}

TEST(FrontendTraceTest, ShedRequestTraceNamesReasonAndQueueState) {
  SimClock clock;
  obs::MetricRegistry metrics;
  obs::RequestTracer tracer(TracerOptions(0.0), &metrics, &clock);
  AdmissionController::Options coptions = SmallController(1);
  coptions.retailer_tokens_per_second = 0.001;  // bucket: burst then dry
  coptions.retailer_burst = 1.0;
  AdmissionController controller(coptions, &metrics, &clock);
  Frontend::Options options;
  options.admission = &controller;
  options.request_tracer = &tracer;
  testutil::FakeReader reader(FixedLookup());
  Frontend frontend(&reader, nullptr, &metrics, &clock, options);

  ASSERT_TRUE(frontend.Handle(UserRequest()).ok());  // spends the burst
  const auto shed = frontend.Handle(UserRequest());
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);

  // Only the shed request is kept (sample_rate 0 drops the healthy one).
  ASSERT_EQ(tracer.KeptCount(), 1);
  const obs::RequestTraceRecord record = tracer.KeptTraces()[0];
  EXPECT_EQ(record.verdict, obs::TraceVerdict::kShed);
  EXPECT_EQ(record.Annotation("shed_reason"), "rate_limited");
  EXPECT_EQ(record.Annotation("outcome"), "shed");
  EXPECT_EQ(record.Annotation("priority"), "user_facing");
  // The admission span carries the controller state the decision saw.
  ASSERT_GE(record.spans.size(), 2u);
  const obs::SpanRecord& admission = record.spans[1];
  EXPECT_EQ(admission.name, "admission");
  EXPECT_EQ(admission.Annotation("queue_depth"), "0");
  EXPECT_EQ(admission.Annotation("in_flight"), "0");
  EXPECT_EQ(admission.Annotation("limit"), "1");
}

TEST(FrontendTraceTest, BrownoutRungIsAnnotatedOnKeptTraces) {
  SimClock clock;
  obs::MetricRegistry metrics;
  obs::RequestTracer tracer(TracerOptions(1.0), &metrics, &clock);
  AdmissionController controller(SmallController(64), &metrics, &clock);
  Frontend::Options options;
  options.admission = &controller;
  options.request_tracer = &tracer;
  // Thresholds at zero: every request runs at rung 3 once a
  // last-known-good list exists.
  options.brownout_shrink_pressure = 0.0;
  options.brownout_skip_threshold_pressure = 0.0;
  options.brownout_serve_lkg_pressure = 0.0;
  testutil::FakeReader reader(FixedLookup());
  Frontend frontend(&reader, nullptr, &metrics, &clock, options);

  // First request populates the last-known-good cache (already rung 3 by
  // pressure, but no cached list yet → store path)...
  ASSERT_TRUE(frontend.Handle(UserRequest()).ok());
  // ...second serves from it.
  const auto browned = frontend.Handle(UserRequest());
  ASSERT_TRUE(browned.ok());
  EXPECT_EQ(browned->brownout_rung, 3);

  ASSERT_EQ(tracer.KeptCount(), 2);
  const std::vector<obs::RequestTraceRecord> kept = tracer.KeptTraces();
  EXPECT_EQ(kept[1].Annotation("brownout_rung"), "3");
  EXPECT_EQ(kept[1].Annotation("source"), "brownout_last_known_good");
}

TEST(FrontendTraceTest, DeadlineOverrunVerdictWithOverrunMicros) {
  SimClock clock;
  obs::MetricRegistry metrics;
  obs::RequestTracer tracer(TracerOptions(0.0), &metrics, &clock);
  Frontend::Options options;
  options.request_deadline_micros = 1000;
  options.request_tracer = &tracer;
  testutil::FakeReader reader(
      [&clock](data::RetailerId, const core::Context&)
          -> StatusOr<std::vector<core::ScoredItem>> {
        clock.AdvanceMicros(5000);  // store is 4000us past the deadline
        return std::vector<core::ScoredItem>{{1, 1.0}};
      });
  Frontend frontend(&reader, nullptr, &metrics, &clock, options);

  const auto result = frontend.Handle(UserRequest());
  // The deadline ladder may still answer (fallback) — but the trace is
  // classified as an overrun and kept regardless of sampling.
  ASSERT_EQ(tracer.KeptCount(), 1);
  const obs::RequestTraceRecord record = tracer.KeptTraces()[0];
  EXPECT_EQ(record.verdict, obs::TraceVerdict::kDeadlineOverrun);
  EXPECT_EQ(record.Annotation("overrun_micros"), "4000");
}

TEST(FrontendTraceTest, KeptTracesBecomeLatencyExemplars) {
  SimClock clock;
  obs::MetricRegistry metrics;
  obs::RequestTracer tracer(TracerOptions(1.0), &metrics, &clock);
  Frontend::Options options;
  options.request_tracer = &tracer;
  testutil::FakeReader reader(FixedLookup());
  Frontend frontend(&reader, nullptr, &metrics, &clock, options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(frontend.Handle(UserRequest()).ok());
  }
  const obs::RegistrySnapshot snapshot = metrics.Snapshot();
  const obs::HistogramSnapshot* latency =
      snapshot.FindHistogram("serving_request_micros");
  ASSERT_NE(latency, nullptr);
  const uint64_t exemplar = latency->ExemplarForQuantile(0.99);
  ASSERT_NE(exemplar, 0u);
  EXPECT_TRUE(tracer.HasTrace(exemplar));
  // The exposition links the bucket to the trace id OpenMetrics-style.
  EXPECT_NE(snapshot.ToText().find("# {trace_id=\""), std::string::npos);
}

// --- SloEngine ---------------------------------------------------------------

obs::SloEngine::Options AvailabilitySlo(double objective = 0.99) {
  obs::SloObjective slo;
  slo.name = "availability";
  slo.total_counter = "requests_total";
  slo.bad_counter = "requests_bad";
  slo.objective = objective;
  obs::SloEngine::Options options;
  options.objectives.push_back(slo);
  options.short_window_micros = 1'000'000;
  options.long_window_micros = 4'000'000;
  options.fire_burn_rate = 2.0;
  options.resolve_burn_rate = 1.0;
  return options;
}

TEST(SloEngineTest, FiresWhenBothWindowsBurnAndResolvesAfter) {
  obs::MetricRegistry metrics;
  obs::Counter* total = metrics.GetCounter("requests_total");
  obs::Counter* bad = metrics.GetCounter("requests_bad");
  obs::SloEngine engine(AvailabilitySlo(0.99), &metrics);

  // Healthy minute: 1000 requests/tick, no errors.
  int64_t now = 0;
  for (int i = 0; i < 10; ++i) {
    total->Add(1000);
    now += 500'000;
    EXPECT_EQ(engine.Evaluate(metrics.Snapshot(), now), 0);
  }
  EXPECT_EQ(engine.FiringCount(), 0);

  // Incident: 10% errors — burn 10 at a 1% budget. The long window needs
  // enough bad history before both windows exceed the fire rate.
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    total->Add(1000);
    bad->Add(100);
    now += 500'000;
    fires += engine.Evaluate(metrics.Snapshot(), now);
  }
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(engine.FiringCount(), 1);
  EXPECT_EQ(engine.FiredTotal(), 1);
  EXPECT_TRUE(engine.States()[0].firing);
  EXPECT_GE(engine.States()[0].burn_short, 2.0);

  // Recovery: errors stop; the alert resolves once both windows clear.
  int resolves = 0;
  for (int i = 0; i < 12; ++i) {
    total->Add(1000);
    now += 500'000;
    resolves += engine.Evaluate(metrics.Snapshot(), now);
  }
  EXPECT_EQ(resolves, 1);
  EXPECT_EQ(engine.FiringCount(), 0);
  EXPECT_EQ(engine.ResolvedTotal(), 1);

  // The alert log records the fire → resolve pair in order.
  ASSERT_EQ(engine.alert_log().size(), 2u);
  EXPECT_TRUE(engine.alert_log()[0].firing);
  EXPECT_FALSE(engine.alert_log()[1].firing);
  EXPECT_LT(engine.alert_log()[0].time_micros,
            engine.alert_log()[1].time_micros);
  // ...and the JSON section carries both.
  const std::string json = engine.ToJson();
  EXPECT_NE(json.find("\"fired_total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"resolved_total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"availability\""), std::string::npos);
}

TEST(SloEngineTest, ShortBlipDoesNotPage) {
  obs::MetricRegistry metrics;
  obs::Counter* total = metrics.GetCounter("requests_total");
  obs::Counter* bad = metrics.GetCounter("requests_bad");
  obs::SloEngine engine(AvailabilitySlo(0.99), &metrics);
  int64_t now = 0;
  int transitions = 0;
  for (int i = 0; i < 20; ++i) {
    total->Add(1000);
    if (i == 10) bad->Add(50);  // one bad tick: short window spikes only
    now += 500'000;
    transitions += engine.Evaluate(metrics.Snapshot(), now);
  }
  // The long window never crossed the fire rate: no alert.
  EXPECT_EQ(transitions, 0);
  EXPECT_EQ(engine.FiredTotal(), 0);
}

TEST(SloEngineTest, LatencyObjectiveCountsSlowBucketsAsBad) {
  obs::MetricRegistry metrics;
  obs::Histogram* latency = metrics.GetHistogram("latency_micros");
  obs::SloObjective slo;
  slo.name = "latency_p99";
  slo.latency_histogram = "latency_micros";
  slo.threshold_micros = 50000;
  slo.objective = 0.9;  // 90% under 50ms
  obs::SloEngine::Options options;
  options.objectives.push_back(slo);
  options.short_window_micros = 1'000'000;
  options.long_window_micros = 2'000'000;
  obs::SloEngine engine(options, &metrics);

  int64_t now = 0;
  engine.Evaluate(metrics.Snapshot(), now);
  // 50/50 fast/slow: half the events are bad at a 10% budget → burn 5.
  int transitions = 0;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 50; ++j) latency->Observe(1000.0);
    for (int j = 0; j < 50; ++j) latency->Observe(200000.0);
    now += 500'000;
    transitions += engine.Evaluate(metrics.Snapshot(), now);
  }
  EXPECT_EQ(transitions, 1);
  EXPECT_TRUE(engine.States()[0].firing);
  EXPECT_GT(engine.States()[0].burn_long, 2.0);
}

TEST(SloEngineTest, BurnRateGaugesAreExported) {
  obs::MetricRegistry metrics;
  obs::Counter* total = metrics.GetCounter("requests_total");
  obs::Counter* bad = metrics.GetCounter("requests_bad");
  obs::SloEngine engine(AvailabilitySlo(0.99), &metrics);
  int64_t now = 0;
  engine.Evaluate(metrics.Snapshot(), now);
  total->Add(1000);
  bad->Add(20);  // 2% bad at 1% budget → burn 2
  now += 500'000;
  engine.Evaluate(metrics.Snapshot(), now);
  const obs::RegistrySnapshot snapshot = metrics.Snapshot();
  EXPECT_NEAR(snapshot.GaugeValue("slo_burn_rate",
                                  {{"objective", "availability"},
                                   {"window", "short"}}),
              2.0, 1e-9);
}

// --- Flash-crowd scenario: the whole tentpole end to end --------------------

serving::LoadGenOptions FlashCrowdScenario() {
  serving::LoadGenOptions options;
  options.seed = 1234;
  options.duration_seconds = 8.0;
  options.num_retailers = 100;
  options.service_micros = 2000;
  options.service_jitter_micros = 500;
  options.server_capacity = 16;
  options.deadline_micros = 50000;
  options.open_rps = 0.5 * 8000.0;
  options.flash_at_seconds = 3.0;
  options.flash_duration_seconds = 1.0;
  options.flash_factor = 10.0;
  options.probe_rps = 20.0;
  options.client_retries = 1;
  options.retry_backoff_seconds = 0.02;
  options.retry_budget_ratio = 0.1;
  options.admission.limiter.target_latency_micros = 20000;
  options.admission.limiter.initial_limit = 32;
  options.admission.limiter.max_limit = 2048;
  options.admission.queue_capacity = 64;
  return options;
}

void EnableTracing(serving::LoadGenOptions* options) {
  options->trace_requests = true;
  options->trace.sample_rate = 0.01;
  options->trace.max_kept_traces = 1 << 20;  // keep everything: no eviction
}

void EnableSlo(serving::LoadGenOptions* options) {
  obs::SloObjective availability;
  availability.name = "serving_availability";
  availability.total_counter = "serving_requests_total";
  availability.bad_counter = "serving_requests_total";
  availability.bad_labels = {{"outcome", "shed"}};
  availability.objective = 0.99;
  obs::SloObjective latency;
  latency.name = "latency_user_facing";
  latency.latency_histogram = "serving_latency_micros";
  latency.latency_labels = {{"priority", "user_facing"}};
  latency.threshold_micros = 50000;
  latency.objective = 0.99;
  options->slo_enabled = true;
  options->slo.objectives = {availability, latency};
  options->slo.short_window_micros = 500'000;
  options->slo.long_window_micros = 2'000'000;
  options->slo.fire_burn_rate = 2.0;
  options->slo.resolve_burn_rate = 1.0;
  options->slo_eval_interval_seconds = 0.25;
}

TEST(SloTraceScenarioTest, FlashCrowdKeepsWholeTailFiresAndResolvesSlo) {
  serving::LoadGenOptions options = FlashCrowdScenario();
  EnableTracing(&options);
  EnableSlo(&options);
  obs::MetricRegistry metrics;
  const serving::LoadGenReport report =
      serving::RunLoadGenerator(options, &metrics);

  // The flash crowd actually shed and overran.
  ASSERT_GT(report.terminal_sheds, 0);
  ASSERT_GT(report.traces_started, 0);

  // 100% of the interesting tail is kept: every terminally shed request
  // and every deadline overrun has a kept trace.
  EXPECT_EQ(report.shed_traces_kept, report.terminal_sheds);
  EXPECT_EQ(report.late_traces_kept, report.deadline_overruns);

  // Every kept shed trace names its shed reason; brownout/retry state
  // arrives through the admission spans.
  std::set<uint64_t> kept_ids;
  int64_t shed_records = 0;
  for (const obs::RequestTraceRecord& record : report.kept_traces) {
    kept_ids.insert(record.trace_id);
    if (record.verdict == obs::TraceVerdict::kShed) {
      ++shed_records;
      EXPECT_NE(record.Annotation("shed_reason"), "") << record.ToJson();
    }
    if (record.verdict == obs::TraceVerdict::kDeadlineOverrun) {
      EXPECT_NE(record.Annotation("overrun_micros"), "");
    }
  }
  EXPECT_EQ(shed_records, report.terminal_sheds);

  // The p99 serving-latency bucket carries an exemplar that resolves to
  // a kept trace.
  const obs::RegistrySnapshot snapshot = metrics.Snapshot();
  const obs::HistogramSnapshot* latency = snapshot.FindHistogram(
      "serving_latency_micros", {{"priority", "user_facing"}});
  ASSERT_NE(latency, nullptr);
  const uint64_t exemplar = latency->ExemplarForQuantile(0.99);
  ASSERT_NE(exemplar, 0u);
  EXPECT_TRUE(kept_ids.count(exemplar) > 0);

  // At least one SLO alert fired during the crowd and resolved after it.
  EXPECT_GE(report.slo_alerts_fired, 1);
  EXPECT_GE(report.slo_alerts_resolved, 1);
  ASSERT_GE(report.slo_alerts.size(), 2u);
  EXPECT_TRUE(report.slo_alerts.front().firing);
  bool any_resolve_after_fire = false;
  for (const obs::AlertEvent& event : report.slo_alerts) {
    if (!event.firing &&
        event.time_micros > report.slo_alerts.front().time_micros) {
      any_resolve_after_fire = true;
    }
  }
  EXPECT_TRUE(any_resolve_after_fire);
  EXPECT_NE(report.slo_json.find("serving_availability"), std::string::npos);
}

TEST(SloTraceScenarioTest, TracingAndSloAreProvablyPassive) {
  // Baseline: no tracing, no SLO engine.
  const serving::LoadGenReport off =
      serving::RunLoadGenerator(FlashCrowdScenario());
  // Everything on — traces kept, SLO ticks interleaved with the run.
  serving::LoadGenOptions traced = FlashCrowdScenario();
  EnableTracing(&traced);
  EnableSlo(&traced);
  const serving::LoadGenReport on = serving::RunLoadGenerator(traced);

  // Byte-identical decisions: observability never perturbed the
  // simulation (same arrivals, same admissions, same sheds).
  EXPECT_EQ(off.decision_hash, on.decision_hash);
  EXPECT_EQ(off.total_offered, on.total_offered);
  EXPECT_EQ(off.total_completed, on.total_completed);
  EXPECT_EQ(off.goodput_rps, on.goodput_rps);
  // And the observability actually ran.
  EXPECT_GT(on.traces_kept, 0);
  EXPECT_GE(on.slo_alerts_fired, 1);
  EXPECT_EQ(off.traces_kept, 0);
}

}  // namespace
}  // namespace sigmund
