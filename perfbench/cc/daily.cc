// The two workloads and their daily-pipeline half: world generation,
// service construction, timed RunDaily days with output checks, and the
// per-day layer metrics read from the DailyReport, the bench-owned
// registry/tracer and the counting filesystem.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "pipeline/config_record.h"
#include "workloads.h"

namespace perfbench {

namespace data = sigmund::data;
namespace obs = sigmund::obs;
namespace pipeline = sigmund::pipeline;

namespace {

// Set-up is repeated this many times per run, spread over the timed days;
// setup_s is the median.
constexpr int kSetupRepeats = 5;
// Training MapReduce slots (each runs threads_per_model Hogwild threads).
constexpr int kTrainingSlots = 2;
// Catalog growth of an advanced day, per thousand items (at least 1).
constexpr int kNewItemsPerThousand = 20;

// Zipf-shaped catalog sizes: size_k = max(min_items, largest / (k+1)^s).
std::vector<int> ZipfSizes(int retailers, int largest, double s,
                           int min_items) {
  std::vector<int> sizes;
  for (int k = 0; k < retailers; ++k) {
    const double size = largest / std::pow(k + 1.0, s);
    sizes.push_back(std::max(min_items, static_cast<int>(std::lround(size))));
  }
  return sizes;
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> specs;

  // Cold first day: a full grid over a dozen power-law retailers; the
  // largest (2100 items) crosses the sampled-eval threshold (2000).
  WorkloadSpec full;
  full.name = "full_sweep";
  full.catalog_sizes = ZipfSizes(12, 2100, 1.6, 120);
  full.grid.factors = {8, 16};
  full.grid.lambdas_v = {0.1, 0.01};
  full.grid.lambdas_vc = {0.01};
  full.grid.sweep_taxonomy = false;
  full.grid.sweep_brand = false;
  full.grid.num_epochs = 2;
  full.threads_per_model = 2;
  specs.push_back(full);

  // Steady state: incremental days (top-1 config, single-threaded, so
  // quality is bit-deterministic) over more, smaller retailers, so
  // inference, batch I/O, store load and index builds carry the day.
  WorkloadSpec incremental;
  incremental.name = "incremental_day";
  incremental.catalog_sizes = ZipfSizes(24, 900, 0.8, 60);
  incremental.grid.factors = {16};
  incremental.grid.lambdas_v = {0.1, 0.01};
  incremental.grid.lambdas_vc = {0.01};
  incremental.grid.sweep_taxonomy = false;
  incremental.grid.sweep_brand = false;
  incremental.grid.num_epochs = 2;
  incremental.threads_per_model = 1;
  incremental.incremental = true;
  specs.push_back(incremental);
  return specs;
}

pipeline::SigmundService::Options ServiceOptions(
    const WorkloadSpec& spec, const std::vector<data::RetailerWorld>* worlds) {
  pipeline::SigmundService::Options options;
  options.sweep.grid = spec.grid;
  // Incremental days retrain only the best config, single-threaded in the
  // incremental workload, so their results are bit-deterministic.
  options.sweep.incremental_top_k = 1;
  options.training.num_map_tasks = 8;
  options.training.max_parallel_tasks = kTrainingSlots;
  options.training.threads_per_model = spec.threads_per_model;
  // Simulated time per step makes the larger retailers cross the
  // checkpoint interval, so checkpoint I/O is part of the day.
  options.training.checkpoint_interval_seconds = 60.0;
  options.training.simulated_seconds_per_step = 1e-2;
  options.inference.num_cells = 2;
  options.inference.max_parallel_tasks = 4;
  options.inference.inference.top_k = 10;
  options.inference.inference.materialize_late_funnel = true;
  // The paper caps candidates at ~1000 for catalogs of up to millions of
  // items; these catalogs hold at most a few thousand, so the cap is
  // scaled down with them.
  options.inference.inference.selector.max_candidates = 300;

  // Production planes on: run ledger, data sentry, retrieval index and
  // canary. The canary simulates all its impressions (no sequential early
  // stop) but promotes at any CTR ratio, and the quality guard never holds
  // back, so a healthy batch or index is never rolled back on sampling
  // noise (a rollback would count as a failed refresh).
  options.ledger.enabled = true;
  options.dataqual.enabled = true;
  options.retrieval.enabled = true;
  options.canary.enabled = true;
  options.canary.canary_fraction = 0.2;
  options.canary.min_relative_ctr = 0.0;
  options.canary.early_stop_z = 0.0;
  options.canary.oracle = [worlds](data::RetailerId id) {
    return &(*worlds)[static_cast<size_t>(id)].truth;
  };
  options.quality.max_relative_drop = 1.0;
  return options;
}

std::unique_ptr<DayEnv> NewDayEnv(
    const WorkloadSpec& spec, const std::vector<data::RetailerWorld>* worlds,
    bool traced, const FileImage* image, RunResult* result) {
  auto env = std::make_unique<DayEnv>();
  if (image != nullptr) RestoreFiles(*image, &env->mem);
  if (traced) env->counting = std::make_unique<CountingFileSystem>(&env->mem);
  env->options = ServiceOptions(spec, worlds);
  env->options.metrics = &env->metrics;
  env->options.tracer = &env->tracer;
  env->service =
      std::make_unique<pipeline::SigmundService>(env->fs(), env->options);
  if (image != nullptr) {
    sigmund::StatusOr<pipeline::SigmundService::RecoveryReport> recovered =
        env->service->RecoverDay();
    if (!recovered.ok()) {
      result->Fail("RecoverDay: " + recovered.status().ToString());
    }
  }
  for (const data::RetailerWorld& world : *worlds) {
    env->service->UpsertRetailer(&world.data);
  }
  return env;
}

// Runs one timed RunDaily and checks that every retailer ends the day
// with a new active batch and a new active retrieval index.
DayOutcome RunOneDay(DayEnv* env,
                     const std::vector<data::RetailerWorld>& worlds,
                     RunResult* result) {
  pipeline::SigmundService& service = *env->service;
  std::vector<int64_t> batch_before, index_before;
  for (const data::RetailerWorld& world : worlds) {
    batch_before.push_back(service.store().RetailerVersion(world.data.id));
    index_before.push_back(
        service.retrieval_reader()->RetailerVersion(world.data.id));
  }

  DayOutcome day;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  sigmund::StatusOr<pipeline::DailyReport> report = service.RunDaily();
  day.wall_s = NowSeconds() - t0;
  day.cpu_s = ProcessCpuSeconds() - cpu0;

  const int64_t retailers = static_cast<int64_t>(worlds.size());
  result->attempted += retailers;
  if (!report.ok()) {
    result->failed += retailers;
    result->Fail("RunDaily: " + report.status().ToString());
    return day;
  }
  day.ok = true;
  day.report = *report;

  int64_t stale = 0;
  for (size_t k = 0; k < worlds.size(); ++k) {
    const data::RetailerId id = worlds[k].data.id;
    const bool fresh_batch = service.store().RetailerVersion(id) > batch_before[k];
    const bool fresh_index =
        service.retrieval_reader()->RetailerVersion(id) > index_before[k];
    if (!fresh_batch || !fresh_index) {
      ++stale;
      if (stale <= 3) {
        result->Fail(sigmund::StrFormat(
            "retailer %d ended the day without a new active %s", id,
            fresh_batch ? "retrieval index" : "batch"));
      }
    }
  }
  const int64_t degraded =
      std::max<int64_t>(report->degraded_retailers,
                        report->quarantined_retailers);
  if (degraded > 0) {
    result->Fail(sigmund::StrFormat("%lld retailer(s) degraded or quarantined",
                                    static_cast<long long>(degraded)));
  }
  result->failed += std::min(retailers, std::max(stale, degraded));

  // Quality of the model selection picked per retailer (highest MAP@10).
  std::map<data::RetailerId, const pipeline::ConfigRecord*> best;
  for (const pipeline::ConfigRecord& record : service.latest_results()) {
    auto it = best.find(record.retailer);
    if (it == best.end() || record.map_at_10 > it->second->map_at_10) {
      best[record.retailer] = &record;
    }
  }
  for (const auto& [id, record] : best) {
    day.map_at_10 += record->map_at_10 / static_cast<double>(best.size());
    day.auc += record->auc / static_cast<double>(best.size());
  }

  uint64_t fingerprint = sigmund::kFnv64OffsetBasis;
  for (const data::RetailerWorld& world : worlds) {
    sigmund::StatusOr<std::string> bytes =
        env->mem.Read(pipeline::RecommendationPath(world.data.id));
    if (bytes.ok()) fingerprint = sigmund::Fnv1a64(*bytes, fingerprint);
  }
  day.fingerprint = fingerprint;
  return day;
}

// Adds every label set of histogram `name` to `merged`.
void MergeHistogram(const obs::RegistrySnapshot& snapshot,
                    const std::string& name, obs::HistogramSnapshot* out) {
  obs::HistogramSnapshot& merged = *out;
  for (const obs::MetricSnapshot& metric : snapshot.metrics) {
    if (metric.name != name || metric.kind != obs::MetricKind::kHistogram) {
      continue;
    }
    const obs::HistogramSnapshot& h = metric.histogram;
    if (merged.buckets.empty()) {
      merged = h;
      continue;
    }
    if (h.buckets.size() != merged.buckets.size()) continue;
    for (size_t b = 0; b < h.buckets.size(); ++b) merged.buckets[b] += h.buckets[b];
    merged.count += h.count;
    merged.sum += h.sum;
    merged.min = std::min(merged.min, h.min);
    merged.max = std::max(merged.max, h.max);
  }
}

// Layer metrics the traced day exposes without replay: stage walls from
// the DailyReport, MapReduce task latencies from the registry and the
// tracer, and SFS traffic from the counting filesystem.
Metrics DayLayerMetrics(DayEnv* env, const DayOutcome& day) {
  Metrics m;
  const pipeline::DailyReport& report = day.report;
  int64_t train_micros = 0;
  for (const auto& [stage, micros] : report.stage_wall_micros) {
    m.Set("pipeline.stage_s." + stage, micros * 1e-6, "s");
    if (stage == "train") train_micros = micros;
  }
  m.Set("pipeline.train_share",
        report.total_wall_micros > 0
            ? static_cast<double>(train_micros) / report.total_wall_micros
            : 0.0,
        "ratio");
  m.Set("pipeline.models_trained", report.models_trained, "count");
  m.Set("pipeline.checkpoints_written",
        static_cast<double>(report.checkpoints_written), "count");
  m.Set("pipeline.ledger_appends", static_cast<double>(report.ledger_appends),
        "count");
  m.Set("mapreduce.map_attempts", static_cast<double>(report.map_attempts),
        "count");
  m.Set("mapreduce.map_failures", static_cast<double>(report.map_failures),
        "count");

  const obs::RegistrySnapshot snapshot = env->metrics.Snapshot();
  const obs::HistogramSnapshot* tasks = snapshot.FindHistogram(
      "mapreduce_task_micros", {{"job", "training"}, {"phase", "map"}});
  int64_t map_wall_micros = 0;
  for (const sigmund::obs::SpanRecord& span : env->tracer.Spans()) {
    if (span.name == "mapreduce/training/map") {
      map_wall_micros += span.DurationMicros();
    }
  }
  if (tasks != nullptr && tasks->count > 0) {
    m.Set("mapreduce.task_p50_ms", tasks->Quantile(0.5) * 1e-3, "ms");
    m.Set("mapreduce.task_max_ms", tasks->max * 1e-3, "ms");
    const double capacity =
        static_cast<double>(kTrainingSlots) * map_wall_micros;
    m.Set("mapreduce.idle_share",
          capacity > 0 ? std::max(0.0, 1.0 - tasks->sum / capacity) : 0.0,
          "ratio");
  }

  if (env->counting != nullptr) {
    const CountingFileSystem::Counts counts = env->counting->counts();
    m.Set("sfs.read_ops", static_cast<double>(counts.read_ops), "count");
    m.Set("sfs.write_ops", static_cast<double>(counts.write_ops), "count");
    m.Set("sfs.bytes_read", static_cast<double>(counts.bytes_read), "bytes");
    m.Set("sfs.bytes_written", static_cast<double>(counts.bytes_written),
          "bytes");
  }
  return m;
}

std::vector<const data::RetailerData*> DataOf(
    const std::vector<data::RetailerWorld>& worlds) {
  std::vector<const data::RetailerData*> out;
  for (const data::RetailerWorld& world : worlds) out.push_back(&world.data);
  return out;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec>* specs =
      new std::vector<WorkloadSpec>(MakeWorkloads());
  for (const WorkloadSpec& spec : *specs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

World::World(const WorkloadSpec& spec, uint64_t seed)
    : generator([&spec, seed] {
        data::WorldConfig config;
        config.seed = seed;
        // A fixed taxonomy shape (27 leaf categories): with a random fan-out
        // the number of categories, and with it candidate-set sizes and
        // quality, would swing from seed to seed.
        config.min_fanout = 3;
        config.max_fanout = 3;
        return config;
      }()) {
  for (size_t k = 0; k < spec.catalog_sizes.size(); ++k) {
    day0.push_back(generator.GenerateRetailer(static_cast<data::RetailerId>(k),
                                              spec.catalog_sizes[k]));
  }
  if (spec.incremental) {
    day1 = day0;
    for (size_t k = 0; k < day1.size(); ++k) {
      const int new_items =
          std::max(1, spec.catalog_sizes[k] * kNewItemsPerThousand / 1000);
      data::AdvanceOneDay(generator, &day1[k], new_items,
                          sigmund::SplitMix64(seed * 7919 + k));
    }
  }
}

RunResult RunWorkload(const WorkloadSpec& spec, const Args& args,
                      SpanRecorder* spans) {
  RunResult result;
  Metrics e2e;
  Metrics layers;

  // --- Set-up: world generation, service construction and the warm-up
  // (or day-0) day. The timed days run on the first set-up's world and,
  // for incremental workloads, its day-0 filesystem image. Later set-ups
  // are spread evenly over the timed days, so setup_s is a median over the
  // run's whole span, as day_wall_s is, not over its first seconds.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  FileImage day0_image;
  auto set_up = [&] {
    const double t0 = NowSeconds();
    auto generated = std::make_unique<World>(spec, args.seed);
    {
      std::unique_ptr<DayEnv> env = NewDayEnv(
          spec, &generated->day0, /*traced=*/false, nullptr, &result);
      RunOneDay(env.get(), generated->day0, &result);
      FileImage image;
      if (spec.incremental) image = CaptureFiles(env->mem);
      setup_s.push_back(NowSeconds() - t0);
      if (world == nullptr) day0_image = std::move(image);
    }
    if (world == nullptr) world = std::move(generated);
  };
  set_up();
  if (!result.correct()) return result;

  // --- Timed days, each untraced one followed by a serving chunk against
  // its serving planes, until --seconds (set-ups excluded) are used. In a
  // traced run every second day is traced.
  std::vector<DayOutcome> timed;   // untraced days (end-to-end metrics)
  std::vector<double> traced_walls;
  std::vector<Metrics> traced_layers;
  obs::HistogramSnapshot sfs_ops;  // traced runs: pooled over timed days
  std::unique_ptr<DayEnv> traced_env;   // replayed after the loop
  DayOutcome traced_day;
  ServeTotals serving;
  const std::vector<data::RetailerWorld>& day_worlds =
      spec.incremental ? world->day1 : world->day0;
  const double budget = args.seconds;
  // A traced run has at least eight days, enough SFS ops between them for
  // sfs.op_p99_us on every workload.
  const int min_days = args.trace ? 8 : 3;
  double setup_in_loop_s = 0.0;
  const double start = NowSeconds();
  auto elapsed = [&] { return NowSeconds() - start - setup_in_loop_s; };
  for (int i = 0; i < min_days || elapsed() < budget; ++i) {
    // Set-up k of the later ones runs once k / kSetupRepeats of the timed
    // budget is used.
    if (static_cast<int>(setup_s.size()) < kSetupRepeats &&
        elapsed() >= budget * static_cast<double>(setup_s.size()) /
                         kSetupRepeats) {
      const double t0 = NowSeconds();
      set_up();
      setup_in_loop_s += NowSeconds() - t0;
      if (!result.correct()) return result;
    }
    const bool traced = args.trace && i % 2 == 1;
    std::unique_ptr<DayEnv> env =
        NewDayEnv(spec, &day_worlds, traced,
                  spec.incremental ? &day0_image : nullptr, &result);
    DayOutcome day = RunOneDay(env.get(), day_worlds, &result);
    if (!day.ok) break;
    if (args.trace) {
      MergeHistogram(env->metrics.Snapshot(), "sfs_op_micros", &sfs_ops);
    }
    if (spec.incremental && spec.threads_per_model == 1 && !timed.empty() &&
        day.fingerprint != timed.front().fingerprint) {
      result.Fail(sigmund::StrFormat(
          "day %d: recommendation files differ from the first timed day "
          "(fingerprint %016llx vs %016llx)",
          i, static_cast<unsigned long long>(day.fingerprint),
          static_cast<unsigned long long>(timed.front().fingerprint)));
    }
    if (traced) {
      traced_walls.push_back(day.wall_s);
      traced_layers.push_back(DayLayerMetrics(env.get(), day));
      traced_day = day;
      traced_env = std::move(env);
    } else {
      timed.push_back(day);
      ServeInputs serve;
      serve.service = env->service.get();
      serve.fs = &env->mem;
      serve.retailers = DataOf(day_worlds);
      serve.seed = args.seed;
      serve.spans = spans;
      RunServeChunk(serve, &serving, &result);
    }
  }
  while (static_cast<int>(setup_s.size()) < kSetupRepeats &&
         result.correct()) {
    set_up();
  }
  if (!result.correct()) return result;

  std::vector<double> walls, cpus, maps, aucs;
  for (const DayOutcome& day : timed) {
    walls.push_back(day.wall_s);
    cpus.push_back(day.cpu_s);
    maps.push_back(day.map_at_10);
    aucs.push_back(day.auc);
  }
  std::printf("days: %zu timed untraced, %zu traced (set-up days: %d)\n",
              timed.size(), traced_walls.size(), kSetupRepeats);
  std::printf("untraced day walls (s):");
  for (double w : walls) std::printf(" %.3f", w);
  std::printf("\nset-ups (s):");
  for (double t : setup_s) std::printf(" %.3f", t);
  std::printf("\n");
  if (spec.incremental) {
    std::printf("recommendation fingerprint: %016llx\n",
                static_cast<unsigned long long>(timed.front().fingerprint));
  }
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("day_wall_s", Median(walls), "s");
  e2e.Set("day_cpu_s", Median(cpus), "s");
  e2e.Set("map_at_10", Median(maps), "ratio");
  e2e.Set("auc", Median(aucs), "ratio");

  ReportServing(serving, spans, &layers, &result);

  if (args.trace) {
    // Per-layer metrics: medians over the traced days, plus one replay of
    // the last traced day's layer work.
    Metrics day_layers = MedianMetrics(traced_layers);
    for (const auto& [name, metric] : day_layers.values()) {
      layers.Set(name, metric.value, metric.unit);
    }
    CheckP99Samples("sfs.op_p99_us", static_cast<size_t>(sfs_ops.count),
                    &result);
    layers.Set("sfs.op_p99_us", sfs_ops.Quantile(0.99), "us");
    sigmund::sfs::MemFileSystem pre_day;  // empty for cold days
    RestoreFiles(day0_image, &pre_day);
    ReplayInputs replay;
    replay.service = traced_env->service.get();
    replay.day_fs = &traced_env->mem;
    replay.pre_day_fs = &pre_day;
    replay.retailers = DataOf(day_worlds);
    replay.options = &traced_env->options;
    replay.report = &traced_day.report;
    replay.spans = spans;
    ReplayDay(replay, &layers, &result);
    layers.Set("obs.trace_overhead_frac",
               Median(traced_walls) / std::max(1e-9, Median(walls)) - 1.0,
               "ratio");
    result.metrics = layers;
  } else {
    e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
    result.metrics = e2e;
  }
  return result;
}

}  // namespace perfbench
