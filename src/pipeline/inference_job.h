#ifndef SIGMUND_PIPELINE_INFERENCE_JOB_H_
#define SIGMUND_PIPELINE_INFERENCE_JOB_H_

#include <atomic>
#include <vector>

#include "common/clock.h"
#include "common/retry.h"
#include "common/status.h"
#include "core/inference.h"
#include "mapreduce/mapreduce.h"
#include "pipeline/registry.h"
#include "sfs/reliable_io.h"
#include "sfs/shared_filesystem.h"

namespace sigmund::pipeline {

// The offline inference MapReduce (§IV-C): materializes top-K
// recommendations for every item of every retailer using each retailer's
// best model.
//
// Faithful to the paper's structure:
//  - retailers are partitioned across cells with greedy first-fit
//    (-decreasing) bin-packing, weighted by inventory size (§IV-C1);
//  - within a cell, input items are contiguous per retailer, and the map
//    task reloads a model only when it crosses a retailer boundary
//    (§IV-C2) — model loads are counted so tests can verify the policy;
//  - one map thread per task, with scoring multi-threaded inside the map
//    function (managed in user code, not by the framework).
class InferenceJob {
 public:
  struct Options {
    // Cells (independent MapReduces) and map tasks per cell.
    int num_cells = 1;
    int map_tasks_per_cell = 4;
    int max_parallel_tasks = 2;
    // true = first-fit-decreasing; false = round-robin (naive baseline).
    bool use_first_fit_decreasing = true;

    // Pre-emption injection at the MapReduce layer: a killed map task's
    // buffered output is discarded and the task re-runs (inference is
    // stateless, so re-execution is the whole recovery story here).
    double map_task_failure_prob = 0.0;
    int max_attempts_per_task = 10;

    // Straggler mitigation: clone the slowest still-running map tasks
    // once speculation_commit_fraction of each cell's map phase has
    // committed; first commit wins. Safe here because the inference
    // mapper only reads models — recommendation files are written after
    // the MapReduce completes.
    bool speculative_backups = false;
    double speculation_commit_fraction = 0.75;

    // Retry policy for SFS access (model reads, recommendation writes).
    RetryPolicy sfs_retry;

    core::InferenceEngine::Options inference;
    uint64_t seed = 42;

    // --- Observability (all borrowed; null = off; never affects
    // results). When wired, Run() opens an "inference" span with one
    // "inference/cell<i>" MapReduce per cell, records model-load latency
    // into inference_model_load_micros, and mirrors the run's counters
    // into inference_* totals. `clock` drives the latency samples
    // (model loads, sfs_op_micros) so they are deterministic under
    // SimClock; null = RealClock.
    obs::MetricRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
    const Clock* clock = nullptr;
    std::string job_label = "inference";
  };

  struct Stats {
    std::atomic<int64_t> model_loads{0};
    std::atomic<int64_t> items_scored{0};
    // Simulated per-cell work (sum of item counts) for makespan analysis.
    std::vector<double> cell_weights;
    // Retry + corruption counters for all SFS I/O done by the mappers.
    sfs::ReliableIoCounters io;
    mapreduce::MapReduceStats mapreduce;  // summed across cells
  };

  InferenceJob(sfs::SharedFileSystem* fs, const RetailerRegistry* registry,
               const Options& options)
      : fs_(fs), registry_(registry), options_(options) {}

  // Materializes recommendations for all items of `retailers`, reading
  // each retailer's best model from BestModelPath(retailer), and writes
  // each retailer's batch (a core::RecommendationBatch in a CRC frame) to
  // RecommendationPath(retailer). Returns the ids of the retailers whose
  // batch was written, ascending. kDataLoss when a retailer's map output
  // lacks an item's record or holds one twice.
  StatusOr<std::vector<data::RetailerId>> Run(
      const std::vector<data::RetailerId>& retailers);

  const Stats& stats() const { return stats_; }

 private:
  // Adds this run's counters to options_.metrics (no-op when
  // observability is off). Called once per Run, success or failure.
  void MirrorStatsToRegistry();

  sfs::SharedFileSystem* fs_;
  const RetailerRegistry* registry_;
  Options options_;
  Stats stats_;
};

}  // namespace sigmund::pipeline

#endif  // SIGMUND_PIPELINE_INFERENCE_JOB_H_
