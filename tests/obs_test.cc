// Tests for sigmund::obs — the metrics registry, histogram math, span
// tracing, and the end-to-end run profile the daily pipeline emits.

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/slo.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "data/world_generator.h"
#include "dataqual/sentry.h"
#include "pipeline/canary.h"
#include "pipeline/quality_monitor.h"
#include "pipeline/service.h"
#include "retrieval/reader.h"
#include "serving/admission.h"
#include "serving/frontend.h"
#include "serving/replicated_store.h"
#include "serving/store.h"
#include "sfs/mem_filesystem.h"

namespace sigmund::obs {
namespace {

// ---------------------------------------------------------------------------
// Counters, gauges, labels.

TEST(MetricRegistryTest, CounterIsSharedByNameAndLabels) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("events_total");
  Counter* b = registry.GetCounter("events_total");
  EXPECT_EQ(a, b);
  a->Add(2);
  b->Add(3);
  EXPECT_EQ(a->Value(), 5);

  // Different labels are different instruments; label order is irrelevant.
  Counter* read = registry.GetCounter("ops_total", {{"op", "read"}});
  Counter* write = registry.GetCounter("ops_total", {{"op", "write"}});
  EXPECT_NE(read, write);
  Counter* multi1 =
      registry.GetCounter("ops_total", {{"op", "read"}, {"cell", "a"}});
  Counter* multi2 =
      registry.GetCounter("ops_total", {{"cell", "a"}, {"op", "read"}});
  EXPECT_EQ(multi1, multi2);
}

TEST(MetricRegistryTest, SnapshotSumsAcrossLabelSets) {
  MetricRegistry registry;
  registry.GetCounter("ops_total", {{"op", "read"}})->Add(3);
  registry.GetCounter("ops_total", {{"op", "write"}})->Add(4);
  registry.GetCounter("ops_total", {{"op", "read"}, {"cell", "b"}})->Add(5);

  RegistrySnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("ops_total"), 12);
  EXPECT_EQ(snapshot.CounterValue("ops_total", {{"op", "read"}}), 8);
  EXPECT_EQ(snapshot.CounterValue("ops_total", {{"op", "write"}}), 4);
  EXPECT_EQ(snapshot.CounterValue("ops_total", {{"cell", "b"}}), 5);
  EXPECT_EQ(snapshot.CounterValue("absent_total"), 0);
}

TEST(MetricRegistryTest, GaugeHoldsLastValue) {
  MetricRegistry registry;
  Gauge* gauge = registry.GetGauge("queue_depth");
  gauge->Set(7.5);
  EXPECT_DOUBLE_EQ(registry.Snapshot().GaugeValue("queue_depth"), 7.5);
  gauge->Add(-2.5);
  EXPECT_DOUBLE_EQ(gauge->Value(), 5.0);
}

TEST(MetricRegistryTest, ConcurrentCounterUpdatesAreExact) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("bumps_total");
  Histogram* histogram = registry.GetHistogram("values");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Schedule([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        histogram->Observe(1.0);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_EQ(histogram->Count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(histogram->Sum(), kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Histogram math.

// Every class that counts takes its registry as a required constructor
// argument: none of them has a metrics-off mode (DESIGN.md §5).
TEST(RegistryDeathTest, RequiresAMetricsRegistry) {
  serving::RecommendationStore store;
  EXPECT_DEATH(
      { serving::Frontend frontend(&store, nullptr, nullptr); },
      "Frontend requires a metrics registry");
  EXPECT_DEATH(
      {
        serving::ReplicatedStoreGroup group(
            serving::ReplicatedStoreGroup::Options(), nullptr);
      },
      "ReplicatedStoreGroup requires a metrics registry");
  EXPECT_DEATH(
      {
        serving::AdmissionController controller(
            serving::AdmissionController::Options(), nullptr, nullptr);
      },
      "AdmissionController requires a metrics registry");
  EXPECT_DEATH(
      {
        retrieval::OnlineRetrievalReader reader(
            retrieval::OnlineRetrievalReader::Options(), nullptr);
      },
      "OnlineRetrievalReader requires a metrics registry");
  EXPECT_DEATH(
      {
        pipeline::CanaryController canary(
            pipeline::CanaryController::Options(), nullptr);
      },
      "CanaryController requires a metrics registry");
  EXPECT_DEATH(
      {
        pipeline::QualityMonitor monitor(pipeline::QualityMonitor::Options(),
                                         nullptr);
      },
      "QualityMonitor requires a metrics registry");
  EXPECT_DEATH(
      {
        dataqual::DataSentry sentry(dataqual::DataSentry::Options(), nullptr);
      },
      "DataSentry requires a metrics registry");
  EXPECT_DEATH({ SloEngine engine(SloEngine::Options(), nullptr); },
               "SloEngine requires a metrics registry");
  EXPECT_DEATH(
      { RequestTracer tracer(RequestTracer::Options(), nullptr); },
      "RequestTracer requires a metrics registry");
  // The Frontend's one lookup path is its store: it has no store-less mode
  // either.
  MetricRegistry registry;
  EXPECT_DEATH(
      { serving::Frontend frontend(nullptr, nullptr, &registry); },
      "Frontend requires a store");
}

TEST(HistogramTest, TracksCountSumMinMax) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("latency_micros");
  for (double v : {5.0, 10.0, 100.0, 1000.0}) h->Observe(v);
  EXPECT_EQ(h->Count(), 4);
  EXPECT_DOUBLE_EQ(h->Sum(), 1115.0);
  EXPECT_DOUBLE_EQ(h->Min(), 5.0);
  EXPECT_DOUBLE_EQ(h->Max(), 1000.0);
}

TEST(HistogramTest, QuantilesOfUniformDistribution) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("uniform");
  // 1..1000, uniformly: quantile(q) should land near 1000q. Exponential
  // buckets give coarse resolution at the top, so allow the bucket width.
  for (int i = 1; i <= 1000; ++i) h->Observe(static_cast<double>(i));
  const double p50 = h->Quantile(0.5);
  const double p95 = h->Quantile(0.95);
  const double p99 = h->Quantile(0.99);
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 750.0);
  EXPECT_GE(p95, 700.0);
  EXPECT_LE(p95, 1000.0);
  EXPECT_GE(p99, p95);
  EXPECT_LE(p99, 1000.0);
  // Quantiles never leave the observed range.
  EXPECT_GE(h->Quantile(0.0), 1.0);
  EXPECT_LE(h->Quantile(1.0), 1000.0);
}

TEST(HistogramTest, QuantileOfPointMassIsExact) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("point");
  for (int i = 0; i < 100; ++i) h->Observe(42.0);
  // Interpolation is clamped to [min, max], so a point mass reports the
  // point at every quantile.
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.99), 42.0);
}

TEST(HistogramTest, EmptyHistogramIsSane) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("empty");
  EXPECT_EQ(h->Count(), 0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Snapshot vs. reset.

TEST(MetricRegistryTest, SnapshotIsImmutableAndResetZeroes) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("c_total");
  Histogram* histogram = registry.GetHistogram("h");
  counter->Add(10);
  histogram->Observe(3.0);

  RegistrySnapshot snapshot = registry.Snapshot();
  counter->Add(5);  // after the snapshot
  EXPECT_EQ(snapshot.CounterValue("c_total"), 10);
  EXPECT_EQ(registry.Snapshot().CounterValue("c_total"), 15);

  registry.Reset();
  EXPECT_EQ(counter->Value(), 0);           // pointers stay valid
  EXPECT_EQ(histogram->Count(), 0);
  EXPECT_EQ(snapshot.CounterValue("c_total"), 10);  // snapshot unaffected
  counter->Add(1);
  EXPECT_EQ(registry.Snapshot().CounterValue("c_total"), 1);
}

// ---------------------------------------------------------------------------
// Exposition formats.

TEST(ExpositionTest, TextExpositionIsPrometheusShaped) {
  MetricRegistry registry;
  registry.GetCounter("reqs_total", {{"outcome", "ok"}})->Add(3);
  registry.GetHistogram("lat_micros")->Observe(2.0);
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# TYPE reqs_total counter"), std::string::npos);
  EXPECT_NE(text.find("reqs_total{outcome=\"ok\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_micros histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_micros_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_micros_count 1"), std::string::npos);
}

TEST(ExpositionTest, JsonExpositionCarriesQuantiles) {
  MetricRegistry registry;
  registry.GetCounter("c_total")->Add(2);
  Histogram* h = registry.GetHistogram("h_micros");
  for (int i = 0; i < 10; ++i) h->Observe(8.0);
  const std::string json = registry.JsonExposition();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// Regression: label values carrying Prometheus-special characters must be
// escaped in the text exposition — an unescaped quote or newline corrupts
// every line after it for any scrape parser.
TEST(ExpositionTest, LabelValuesAreEscaped) {
  MetricRegistry registry;
  registry.GetCounter("odd_total", {{"path", "a\\b"}})->Add(1);
  registry.GetCounter("odd_total", {{"msg", "say \"hi\""}})->Add(1);
  registry.GetCounter("odd_total", {{"err", "line1\nline2"}})->Add(1);
  registry.GetCounter("odd_total", {{"crlf", "x\r\ny"}})->Add(1);
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("path=\"a\\\\b\""), std::string::npos);
  EXPECT_NE(text.find("msg=\"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(text.find("err=\"line1\\nline2\""), std::string::npos);
  // Raw newlines must never survive inside a label value: every line of
  // the exposition is either a comment or "name{...} value".
  for (const char* forbidden : {"line1\nline2", "say \"hi\""}) {
    EXPECT_EQ(text.find(forbidden), std::string::npos) << forbidden;
  }
  EXPECT_NE(text.find("crlf=\"x\\n\\ny\""), std::string::npos);
}

// Exemplars: a kept trace attached to a bucket shows up OpenMetrics-style
// in the text exposition, in the JSON p99 link, and through the
// nearest-bucket fallback of ExemplarForQuantile.
TEST(ExpositionTest, ExemplarsLinkBucketsToTraces) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("lat_micros");
  for (int i = 0; i < 100; ++i) h->Observe(8.0);
  h->AttachExemplar(8.0, /*trace_id=*/77);
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find(" # {trace_id=\"77\"} 8"), std::string::npos);

  // The p99 rank falls in the same point-mass bucket: direct hit.
  EXPECT_EQ(registry.Snapshot()
                .FindHistogram("lat_micros")
                ->ExemplarForQuantile(0.99),
            77u);
  // JSON carries the link for RunProfile consumers.
  EXPECT_NE(registry.JsonExposition().find("\"p99_exemplar\":\"77\""),
            std::string::npos);

  // Fallback: observations land in a bucket with no exemplar of its own;
  // the nearest exemplar-carrying bucket (lower preferred) answers.
  Histogram* sparse = registry.GetHistogram("sparse_micros");
  sparse->Observe(1.0);
  sparse->AttachExemplar(1.0, 5);
  for (int i = 0; i < 1000; ++i) sparse->Observe(1e6);
  EXPECT_EQ(registry.Snapshot()
                .FindHistogram("sparse_micros")
                ->ExemplarForQuantile(0.99),
            5u);
  // No exemplar anywhere: 0 = "no link".
  Histogram* bare = registry.GetHistogram("bare_micros");
  bare->Observe(1.0);
  EXPECT_EQ(
      registry.Snapshot().FindHistogram("bare_micros")->ExemplarForQuantile(
          0.99),
      0u);
}

// ---------------------------------------------------------------------------
// Span tracing under SimClock.

TEST(TracerTest, SpansNestOnOneThread) {
  SimClock clock;
  Tracer tracer(&clock);
  {
    Span outer = tracer.StartSpan("outer");
    clock.AdvanceSeconds(1.0);
    {
      Span inner = tracer.StartSpan("inner");
      clock.AdvanceSeconds(2.0);
    }
    clock.AdvanceSeconds(1.0);
  }
  std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent_id, Tracer::kNoParent);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
  // Deterministic simulated durations.
  EXPECT_EQ(spans[0].DurationMicros(), 4000000);
  EXPECT_EQ(spans[1].DurationMicros(), 2000000);
  // A child lives entirely inside its parent.
  EXPECT_GE(spans[1].start_micros, spans[0].start_micros);
  EXPECT_LE(spans[1].end_micros, spans[0].end_micros);
}

TEST(TracerTest, ExplicitParentAttachesCrossThreadWork) {
  SimClock clock;
  Tracer tracer(&clock);
  Span job = tracer.StartSpan("job");
  const int64_t job_id = job.id();

  ThreadPool pool(2);
  pool.Schedule([&] {
    Span task = tracer.StartSpan("task", job_id);
    (void)task;
  });
  pool.Wait();
  job.End();

  std::vector<SpanRecord> spans = tracer.Subtree(job_id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "job");
  EXPECT_EQ(spans[1].name, "task");
  EXPECT_EQ(spans[1].parent_id, job_id);
}

TEST(TracerTest, DumpTreeIndentsChildren) {
  SimClock clock;
  Tracer tracer(&clock);
  {
    Span a = tracer.StartSpan("alpha");
    clock.AdvanceSeconds(0.001);
    Span b = tracer.StartSpan("beta");
    clock.AdvanceSeconds(0.001);
  }
  const std::string tree = tracer.DumpTree();
  EXPECT_NE(tree.find("alpha"), std::string::npos);
  EXPECT_NE(tree.find("  beta"), std::string::npos);
}

TEST(TracerTest, MovedSpanEndsOnce) {
  SimClock clock;
  Tracer tracer(&clock);
  Span a = tracer.StartSpan("a");
  clock.AdvanceSeconds(1.0);
  Span b = std::move(a);
  b.End();
  b.End();  // idempotent
  std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].DurationMicros(), 1000000);
}

TEST(TracerTest, SpanIdSurvivesEnd) {
  SimClock clock;
  Tracer tracer(&clock);
  Span job = tracer.StartSpan("job");
  const int64_t id = job.id();
  clock.AdvanceSeconds(1.0);
  job.End();
  // Like DurationMicros(), id() stays valid after End() so the ended span
  // can still key Subtree()/BuildRunProfile.
  EXPECT_EQ(job.id(), id);
  std::vector<SpanRecord> subtree = tracer.Subtree(job.id());
  ASSERT_EQ(subtree.size(), 1u);
  EXPECT_EQ(subtree[0].name, "job");
}

TEST(TracerTest, DumpTreeMarksOpenSpans) {
  SimClock clock;
  Tracer tracer(&clock);
  Span running = tracer.StartSpan("still_running");
  clock.AdvanceSeconds(1.0);
  const std::string tree = tracer.DumpTree();
  EXPECT_NE(tree.find("still_running"), std::string::npos);
  EXPECT_NE(tree.find("open"), std::string::npos);
  // An open span must not render as a bogus negative duration.
  EXPECT_EQ(tree.find("-"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Logging: suppressed severities must not evaluate their stream
// arguments (satellite of the observability issue).

TEST(LoggingTest, SuppressedSeverityIsZeroCost) {
  const LogSeverity saved = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kInfo);
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return 42;
  };
  SIGLOG(DEBUG) << "never formatted: " << expensive();
  EXPECT_EQ(evaluations, 0);
  SetMinLogSeverity(LogSeverity::kDebug);
  SIGLOG(DEBUG) << "formatted: " << expensive();
  EXPECT_EQ(evaluations, 1);
  SetMinLogSeverity(saved);
}

// ---------------------------------------------------------------------------
// End-to-end: a daily run's profile is machine-readable and its stage
// spans nest inside the run total.

TEST(RunProfileTest, DailyRunEmitsCoherentProfile) {
  data::WorldConfig config;
  config.seed = 11;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, 40);

  sfs::MemFileSystem fs;
  pipeline::SigmundService::Options options;
  options.sweep.grid.factors = {4};
  options.sweep.grid.lambdas_v = {0.1};
  options.sweep.grid.lambdas_vc = {0.01};
  options.sweep.grid.sweep_taxonomy = false;
  options.sweep.grid.sweep_brand = false;
  options.sweep.grid.num_epochs = 2;
  options.training.num_map_tasks = 2;

  MetricRegistry registry;
  Tracer tracer;
  options.metrics = &registry;
  options.tracer = &tracer;
  pipeline::SigmundService service(&fs, options);
  service.UpsertRetailer(&world.data);

  StatusOr<pipeline::DailyReport> report = service.RunDaily();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Per-stage wall times are reported, in order, and sum to <= total.
  ASSERT_FALSE(report->stage_wall_micros.empty());
  int64_t stage_sum = 0;
  for (const auto& [stage, micros] : report->stage_wall_micros) {
    EXPECT_GE(micros, 0) << stage;
    stage_sum += micros;
  }
  EXPECT_LE(stage_sum, report->total_wall_micros);
  EXPECT_EQ(report->stage_wall_micros.front().first, "plan_sweep");
  EXPECT_EQ(report->stage_wall_micros.back().first, "commit_day");

  // The profile JSON exists and nests: every stage span's duration fits
  // inside the root's, and the root equals the report total.
  EXPECT_NE(report->profile_json.find("\"run_daily/day0\""),
            std::string::npos);
  EXPECT_NE(report->profile_json.find("\"metrics\""), std::string::npos);

  std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_FALSE(spans.empty());
  const SpanRecord& root = spans.front();
  EXPECT_EQ(root.name, "run_daily/day0");
  EXPECT_EQ(root.DurationMicros(), report->total_wall_micros);
  int64_t direct_child_sum = 0;
  for (const SpanRecord& span : spans) {
    if (span.parent_id == root.id) direct_child_sum += span.DurationMicros();
    if (span.id != root.id) {
      EXPECT_NE(span.parent_id, 0) << span.name << " should not be a root";
    }
  }
  EXPECT_LE(direct_child_sum, root.DurationMicros());

  // The registry agrees with the report (snapshot-view property).
  RegistrySnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("training_models_trained_total"),
            report->models_trained);
  EXPECT_EQ(snapshot.CounterValue("inference_items_scored_total"),
            report->items_scored);
  EXPECT_EQ(snapshot.CounterValue("mapreduce_task_attempts_total",
                                  {{"phase", "map"}}),
            report->map_attempts);
  EXPECT_EQ(snapshot.CounterValue("quality_verdicts_total"), 1);
  const HistogramSnapshot* stage_hist = snapshot.FindHistogram(
      "pipeline_stage_micros", {{"stage", "train"}});
  ASSERT_NE(stage_hist, nullptr);
  EXPECT_EQ(stage_hist->count, 1);

  // Day 1's profile is keyed on day 1's root span only — it must not pick
  // up day 0's spans (regression: the root id used to be read after the
  // root span had ended, which reset it to 0 and matched every root).
  StatusOr<pipeline::DailyReport> day1 = service.RunDaily();
  ASSERT_TRUE(day1.ok()) << day1.status().ToString();
  EXPECT_NE(day1->profile_json.find("\"run_daily/day1\""),
            std::string::npos);
  EXPECT_EQ(day1->profile_json.find("\"run_daily/day0\""),
            std::string::npos);
}

}  // namespace
}  // namespace sigmund::obs
