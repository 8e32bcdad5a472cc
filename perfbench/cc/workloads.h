#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <stdint.h>

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/grid_search.h"
#include "counting_fs.h"
#include "data/world_generator.h"
#include "pipeline/service.h"
#include "sfs/mem_filesystem.h"
#include "spans.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

// Shape of one workload: its world and its daily pipeline settings.
struct WorkloadSpec {
  std::string name;
  std::vector<int> catalog_sizes;  // one retailer per entry
  sigmund::core::GridSpec grid;
  int threads_per_model = 1;
  // Timed days are incremental days replayed from the state a day-0 full
  // sweep left behind; otherwise every timed day is a cold first day.
  bool incremental = false;
};

const WorkloadSpec* FindWorkload(const std::string& name);

// The generated inputs for one seed: the day-0 worlds and, for
// incremental workloads, the same worlds advanced by one day.
struct World {
  World(const WorkloadSpec& spec, uint64_t seed);

  sigmund::data::WorldGenerator generator;
  std::vector<sigmund::data::RetailerWorld> day0;
  std::vector<sigmund::data::RetailerWorld> day1;
};

// One service over its own filesystem, registry and tracer. Members are
// declared in dependency order so the service is destroyed first.
struct DayEnv {
  sigmund::sfs::MemFileSystem mem;
  std::unique_ptr<CountingFileSystem> counting;  // traced days only
  sigmund::obs::MetricRegistry metrics;
  sigmund::obs::Tracer tracer;
  sigmund::pipeline::SigmundService::Options options;
  std::unique_ptr<sigmund::pipeline::SigmundService> service;

  sigmund::sfs::SharedFileSystem* fs() {
    return counting != nullptr ? counting.get()
                               : static_cast<sigmund::sfs::SharedFileSystem*>(
                                     &mem);
  }
};

// What one RunDaily produced, plus its checks.
struct DayOutcome {
  bool ok = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double map_at_10 = 0.0;
  double auc = 0.0;
  uint64_t fingerprint = 0;  // FNV-1a of every recommendation file
  sigmund::pipeline::DailyReport report;
};

// --- Serving phase (serve.cc), run in chunks after the timed days.
struct ServeInputs {
  sigmund::pipeline::SigmundService* service = nullptr;
  const sigmund::sfs::SharedFileSystem* fs = nullptr;  // the service's SFS
  std::vector<const sigmund::data::RetailerData*> retailers;
  uint64_t seed = 1;
  SpanRecorder* spans = nullptr;  // null = untraced
};

// What the chunks measured, pooled over the run.
struct ServeTotals {
  size_t chunks = 0;
  size_t next_refresh = 0;  // the writer's round-robin position
  // Open loop: one quantile per chunk window; every request's generator
  // lag; requests overlapping a refresh.
  std::vector<double> p50_us, p99_us, retrieval_p99_us;
  std::vector<double> lag_us, overlapping_us;
  size_t materialized = 0, online = 0;
  // Closed loop: ok requests/s per capacity bucket.
  std::vector<double> capacity_rps;
  int64_t closed_requests = 0, closed_allocs = 0, closed_untraced = 0;
  double closed_s = 0.0;
  // Writer.
  std::vector<double> activate_us;
  size_t refreshes = 0;
  int64_t refresh_items = 0;
  double stage_s = 0.0;
  // Traced runs: direct store lookup cost, per request pool.
  std::vector<double> lookup_ns;
};

// Serves one chunk (closed loop, then open loop, beside the writer) from
// `inputs.service` and adds what it measured to `totals`; failures go to
// `result`.
void RunServeChunk(const ServeInputs& inputs, ServeTotals* totals,
                   RunResult* result);

// Prints what the serving chunks rest on, checks that they ran and, when
// `spans` is set, adds the serving layer metrics to `layers`.
void ReportServing(const ServeTotals& totals, SpanRecorder* spans,
                   Metrics* layers, RunResult* result);

// --- Layer replay of a traced day (replay.cc).
struct ReplayInputs {
  const sigmund::pipeline::SigmundService* service = nullptr;
  sigmund::sfs::SharedFileSystem* day_fs = nullptr;  // after the day
  const sigmund::sfs::SharedFileSystem* pre_day_fs = nullptr;
  std::vector<const sigmund::data::RetailerData*> retailers;
  const sigmund::pipeline::SigmundService::Options* options = nullptr;
  const sigmund::pipeline::DailyReport* report = nullptr;
  SpanRecorder* spans = nullptr;
};

// Re-runs the day's layer work as direct calls into the library's public
// functions, each wrapped in a span, and adds the core.*, retrieval.*,
// dataqual.* and ledger layer metrics to `layers`.
void ReplayDay(const ReplayInputs& inputs, Metrics* layers,
               RunResult* result);

// --- Daily workloads (daily.cc).
RunResult RunWorkload(const WorkloadSpec& spec, const Args& args,
                      SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
