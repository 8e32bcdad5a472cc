#ifndef SIGMUND_PIPELINE_INFERENCE_JOB_H_
#define SIGMUND_PIPELINE_INFERENCE_JOB_H_

#include <vector>

#include "common/clock.h"
#include "common/retry.h"
#include "common/status.h"
#include "core/inference.h"
#include "mapreduce/mapreduce.h"
#include "pipeline/registry.h"
#include "sfs/shared_filesystem.h"

namespace sigmund::pipeline {

// The offline inference MapReduce (§IV-C): materializes top-K
// recommendations for every item of every retailer using each retailer's
// best model.
//
// Faithful to the paper's structure:
//  - retailers are partitioned across cells with greedy first-fit
//    decreasing bin-packing, weighted by inventory size (§IV-C1);
//  - within a cell, input items are contiguous per retailer, and the map
//    task reloads a model only when it crosses a retailer boundary
//    (§IV-C2) — model loads are counted so tests can verify the policy;
//  - each map task scores its items on one thread; parallelism comes from
//    running map tasks (max_parallel_tasks) and cells side by side.
class InferenceJob {
 public:
  struct Options {
    // Cells (independent MapReduces) and map tasks per cell.
    int num_cells = 1;
    int map_tasks_per_cell = 4;
    int max_parallel_tasks = 2;

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

    // --- Observability (all borrowed; never affects results). `metrics`
    // is required: it is the only home of the job's counters. Mappers
    // bump inference_model_loads_total and inference_items_scored_total
    // as each model loads and each item is scored, and record model-load
    // latency into inference_model_load_micros. Each cell runs one
    // MapReduce labelled job=`job_label`/cell<i>, so its
    // mapreduce_records_total{kind="input"} is the cell's item count.
    // When `tracer` is set, Run() opens a `job_label` span. `clock`
    // drives the latency samples (model loads, sfs_op_micros) so they
    // are deterministic under SimClock; null = RealClock.
    obs::MetricRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
    const Clock* clock = nullptr;
    std::string job_label = "inference";
  };

  // `fs` and `registry` are borrowed. Aborts unless options.metrics is
  // set.
  InferenceJob(sfs::SharedFileSystem* fs, const RetailerRegistry* registry,
               const Options& options);

  // Materializes recommendations for all items of `retailers`, reading
  // each retailer's best model from BestModelPath(retailer), and writes
  // each retailer's batch (a core::RecommendationBatch in a CRC frame) to
  // RecommendationPath(retailer). Returns the ids of the retailers whose
  // batch was written, ascending. kDataLoss when a retailer's map output
  // lacks an item's record or holds one twice.
  StatusOr<std::vector<data::RetailerId>> Run(
      const std::vector<data::RetailerId>& retailers);

 private:
  sfs::SharedFileSystem* fs_;
  const RetailerRegistry* registry_;
  Options options_;
};

}  // namespace sigmund::pipeline

#endif  // SIGMUND_PIPELINE_INFERENCE_JOB_H_
