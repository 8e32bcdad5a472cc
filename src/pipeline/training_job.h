#ifndef SIGMUND_PIPELINE_TRAINING_JOB_H_
#define SIGMUND_PIPELINE_TRAINING_JOB_H_

#include <map>
#include <string>
#include <vector>

#include "cluster/lease.h"
#include "common/clock.h"
#include "common/retry.h"
#include "common/status.h"
#include "mapreduce/mapreduce.h"
#include "pipeline/config_record.h"
#include "pipeline/registry.h"
#include "sfs/shared_filesystem.h"

namespace sigmund::pipeline {

// How a training job spends its cores: `concurrent_tasks` map tasks run at
// once, each training its models with `threads_per_model` Hogwild threads.
struct TrainingCores {
  int concurrent_tasks = 1;
  int threads_per_model = 1;
};

// The job's core budget is C = max_parallel_tasks * threads_per_model
// (machines times the cores each one brings). Cores go to models first:
// min(C, map_tasks) tasks run at once, and each model gets the cores left
// over per task, clamped to [1, threads_per_model]. In small models one
// embedding row is one cache line, so two Hogwild threads on one model
// mostly trade lines, while a second model on the same cores does twice
// the work. A non-positive max_parallel_tasks yields no concurrent tasks,
// which the MapReduce rejects.
TrainingCores PlanTrainingCores(int max_parallel_tasks, int threads_per_model,
                                int map_tasks);

// What training `record` costs, relative to other records: every epoch
// makes one SGD step per interaction, and a step touches O(num_factors)
// floats, so the cost is TotalInteractions() x num_factors x num_epochs.
// `data` is the record's retailer. TrainingJob::Run starts the costliest
// models first.
int64_t EstimateTrainingCost(const ConfigRecord& record,
                             const data::RetailerData& data);

// The training MapReduce (§IV-B): the map phase runs Train() on each config
// record — training one model on one "machine", checkpointing on a time
// interval to the shared filesystem, and recovering from (injected)
// preemptions by restoring the latest checkpoint. The reduce phase writes
// out the output config records, now carrying hold-out metrics.
//
// Each Run schedules by cost: it stable-sorts the plan by descending
// EstimateTrainingCost and gives every record its own map task, so the
// pool starts the largest models first and hands the small ones to
// whichever machine frees up (longest-processing-time-first; "workers
// assigned small retailers process more training tasks", §IV-B1). The
// planner's shuffle only breaks ties. Each retailer's split, TrainingData
// and co-occurrence model are built once per Run, shared read-only by its
// configs, and dropped after its last record has mapped. Models are
// seeded by record, never by task, so the schedule changes no byte of
// any model or output record. Each Run splits the job's cores with
// PlanTrainingCores.
class TrainingJob {
 public:
  struct Options {
    // A no-op, kept because existing callers still set it: training runs
    // one record per map task, in cost order (see the class comment).
    int num_map_tasks = 8;
    // The number of machines the job requests. With threads_per_model > 1
    // and more records than machines, more tasks than this run at once
    // (see PlanTrainingCores).
    int max_parallel_tasks = 2;

    // Cores each requested machine brings, and the most Hogwild threads
    // one model may use (§IV-B2: one retailer per machine, multiple
    // threads managed in user code). A model gets more than one thread
    // only when there are at least two cores per map task, so cores would
    // otherwise idle; with threads_per_model == 1 every model trains
    // single-threaded and deterministically.
    int threads_per_model = 1;

    // Time-based checkpointing (§IV-B3). Time is simulated: each epoch
    // advances a per-task clock by simulated_seconds_per_step * steps, so
    // checkpoint cadence depends on retailer size exactly as in
    // production, without wall-clock waits.
    double checkpoint_interval_seconds = 300.0;
    double simulated_seconds_per_step = 1e-3;

    // Mid-training preemption injection: probability that a training run
    // is killed at each epoch boundary. The task restores the latest
    // checkpoint and continues — re-doing any work since it.
    double preemption_prob_per_epoch = 0.0;

    // Lease-based churn (§IV-B: training runs in preemptible cells). When
    // churn.preemption_rate_per_hour > 0, every model trains under a
    // revocable machine lease from a PreemptibleExecutor: eviction times
    // follow an exponential schedule on the task's simulated clock; a
    // lease checked inside the grace window flushes a final
    // ForceCheckpoint before the machine disappears; a task evicted
    // churn.escalate_after_evictions times is escalated to regular
    // (non-revocable) priority so it can still meet the daily deadline.
    cluster::ChurnConfig churn;

    // Forward-progress guard: total preemptions + evictions a single
    // model may absorb before injection is disabled for it. Exhaustion is
    // counted (training_preemption_budget_exhausted_total) and marks the
    // output record degraded.
    int preemption_budget = 50;

    // Deadline on each model's simulated training clock (seconds);
    // 0 = none. A model that overruns stops early, is committed as-is so
    // the retailer stays servable, and its record is marked degraded.
    double per_model_deadline_seconds = 0.0;

    // Whole-task failure injection at the MapReduce layer (the task's
    // buffered output is discarded and the task retried; durable SFS
    // checkpoints survive, so retries resume rather than restart).
    double map_task_failure_prob = 0.0;
    double reduce_task_failure_prob = 0.0;
    int max_attempts_per_task = 10;

    // Retry policy for all SFS access (models, checkpoints): transient
    // kUnavailable errors are retried before a task attempt is declared
    // failed.
    RetryPolicy sfs_retry;

    // Large-retailer MAP estimation (§III-C2): retailers with more items
    // than the threshold are evaluated on a sampled item fraction.
    int sampled_eval_threshold_items = 2000;
    double sampled_eval_fraction = 0.1;

    uint64_t seed = 42;

    // --- Observability (all borrowed; never affects training results).
    // `metrics` is required: it is the only home of the job's counters.
    // Each event bumps its training_* counter as it happens (models
    // trained, checkpoints written, preemptions, restores, evictions, the
    // degradation-ladder rungs, ...), the job records per-model simulated
    // latency into training_model_simulated_micros, its sfs I/O into the
    // sfs_* series, and its MapReduce series carry job=`job_label`.
    // training_retailer_view_builds_total counts the per-retailer training
    // views built, one per retailer in the plan. When
    // `tracer` is set, the job opens a `job_label` span with per-model
    // child spans. `clock` drives the sfs_op_micros latency samples so
    // they are deterministic under SimClock; null = RealClock.
    obs::MetricRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
    const Clock* clock = nullptr;
    std::string job_label = "training";
  };

  // `fs` and `registry` are borrowed. Aborts unless options.metrics is
  // set.
  TrainingJob(sfs::SharedFileSystem* fs, const RetailerRegistry* registry,
              const Options& options);

  // Trains every record in `plan`; returns the output config records with
  // metrics filled, sorted by key. Models are written to each record's
  // model_path in the shared filesystem.
  StatusOr<std::vector<ConfigRecord>> Run(
      const std::vector<ConfigRecord>& plan);

 private:
  sfs::SharedFileSystem* fs_;
  const RetailerRegistry* registry_;
  Options options_;
};

// Splits the training plan into one independent MapReduce per cell
// (§IV-B1: "We identify data centers that have unused resources, and
// break down the job into several independent MapReduces so that there is
// one for each data center"). Each config record runs in the cell that
// holds its retailer's data shard (`data_homes`, from the
// DataPlacementPlanner); records for unplaced retailers go to the first
// cell. Each cell's job labels its series `per_cell.job_label + "/" +
// cell`, so mapreduce_records_total{job="training/<cell>",kind="output"}
// is the number of models the cell trained. Every cell gets the whole
// per-cell core budget, orders its own records by cost and builds its own
// retailers' training views.
class MultiCellTrainingJob {
 public:
  struct Options {
    std::vector<std::string> cells;  // must be non-empty
    TrainingJob::Options per_cell;
  };

  MultiCellTrainingJob(sfs::SharedFileSystem* fs,
                       const RetailerRegistry* registry,
                       const Options& options)
      : fs_(fs), registry_(registry), options_(options) {}

  // Runs every cell's MapReduce and returns the merged output records,
  // sorted by key (same contract as TrainingJob::Run).
  StatusOr<std::vector<ConfigRecord>> Run(
      const std::vector<ConfigRecord>& plan,
      const std::map<data::RetailerId, std::string>& data_homes);

 private:
  sfs::SharedFileSystem* fs_;
  const RetailerRegistry* registry_;
  Options options_;
};

}  // namespace sigmund::pipeline

#endif  // SIGMUND_PIPELINE_TRAINING_JOB_H_
