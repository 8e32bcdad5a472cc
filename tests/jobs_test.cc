#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

#include "core/candidate_selector.h"
#include "core/cooccurrence.h"
#include "core/recommendation_batch.h"
#include "counter_total.h"
#include "data/world_generator.h"
#include "pipeline/inference_job.h"
#include "pipeline/sweep.h"
#include "pipeline/training_job.h"
#include "serving/store.h"
#include "sfs/mem_filesystem.h"
#include "sfs/reliable_io.h"

namespace sigmund::pipeline {
namespace {

struct JobFixture {
  data::WorldGenerator generator{[] {
    data::WorldConfig config;
    config.seed = 19;
    return config;
  }()};
  data::RetailerWorld r0 = generator.GenerateRetailer(0, 60);
  data::RetailerWorld r1 = generator.GenerateRetailer(1, 120);
  RetailerRegistry registry;
  sfs::MemFileSystem fs;
  // Every job of a test counts into this registry (the jobs require one).
  obs::MetricRegistry metrics;

  JobFixture() {
    registry.Upsert(&r0.data);
    registry.Upsert(&r1.data);
  }

  std::vector<ConfigRecord> SmallPlan() {
    SweepPlanner::Options options;
    options.grid.factors = {4, 8};
    options.grid.lambdas_v = {0.01};
    options.grid.lambdas_vc = {0.01};
    options.grid.sweep_taxonomy = false;
    options.grid.sweep_brand = false;
    options.grid.num_epochs = 3;
    options.shuffle = true;
    SweepPlanner planner(options);
    return planner.PlanFullSweep(registry);
  }

  TrainingJob::Options FastTraining() {
    TrainingJob::Options options;
    options.num_map_tasks = 4;
    options.max_parallel_tasks = 2;
    options.checkpoint_interval_seconds = 0.0;  // off unless a test enables
    options.metrics = &metrics;
    return options;
  }

  InferenceJob::Options Inference() {
    InferenceJob::Options options;
    options.metrics = &metrics;
    return options;
  }

  int64_t Counter(std::string_view name, const obs::Labels& labels = {}) {
    return testutil::CounterTotal(metrics, name, labels);
  }
};

TEST(TrainingJobTest, TrainsEveryRecordAndWritesModels) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  TrainingJob job(&f.fs, &f.registry, f.FastTraining());
  StatusOr<std::vector<ConfigRecord>> results = job.Run(plan);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), plan.size());
  for (const ConfigRecord& record : *results) {
    EXPECT_TRUE(record.trained);
    EXPECT_GE(record.map_at_10, 0.0);
    EXPECT_GT(record.epochs_run, 0);
    EXPECT_GT(record.sgd_steps, 0);
    EXPECT_TRUE(f.fs.Exists(record.model_path));
    // Model bytes parse against the retailer catalog.
    const data::Catalog* catalog =
        record.retailer == 0 ? &f.r0.data.catalog : &f.r1.data.catalog;
    StatusOr<std::string> bytes =
        sfs::ReadChecksummedFile(&f.fs, record.model_path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_TRUE(core::BprModel::Deserialize(*bytes, catalog).ok());
  }
  EXPECT_EQ(f.Counter("training_models_trained_total"),
            static_cast<int64_t>(plan.size()));
  // No checkpoints requested, none written.
  EXPECT_EQ(f.Counter("training_checkpoints_written_total"), 0);
}

TEST(TrainingJobTest, CheckpointsWrittenOnSimulatedInterval) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  TrainingJob::Options options = f.FastTraining();
  options.checkpoint_interval_seconds = 60.0;
  // Make one epoch take ~100 simulated seconds so every epoch checkpoints.
  options.simulated_seconds_per_step = 100.0 / 400.0;
  TrainingJob job(&f.fs, &f.registry, options);
  ASSERT_TRUE(job.Run(plan).ok());
  EXPECT_GT(f.Counter("training_checkpoints_written_total"), 0);
  // Checkpoints are GCed after each successful model commit.
  EXPECT_TRUE(f.fs.List("checkpoints/")->empty());
}

// A job's counters are bumped as events happen, so a second Run of the
// same job against the same registry adds exactly its own work.
TEST(TrainingJobTest, SecondRunCountsOnlyItsOwnWork) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  TrainingJob::Options options = f.FastTraining();
  options.checkpoint_interval_seconds = 60.0;
  options.simulated_seconds_per_step = 100.0 / 400.0;
  TrainingJob job(&f.fs, &f.registry, options);
  ASSERT_TRUE(job.Run(plan).ok());
  const int64_t models = f.Counter("training_models_trained_total");
  const int64_t checkpoints = f.Counter("training_checkpoints_written_total");
  EXPECT_EQ(models, static_cast<int64_t>(plan.size()));
  EXPECT_GT(checkpoints, 0);

  ASSERT_TRUE(job.Run(plan).ok());
  EXPECT_EQ(f.Counter("training_models_trained_total"), 2 * models);
  EXPECT_EQ(f.Counter("training_checkpoints_written_total"),
            2 * checkpoints);
}

TEST(TrainingJobTest, MidTrainingPreemptionRecoversViaCheckpoints) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  for (ConfigRecord& record : plan) record.params.num_epochs = 6;

  TrainingJob::Options options = f.FastTraining();
  options.preemption_prob_per_epoch = 0.3;
  options.checkpoint_interval_seconds = 1.0;
  options.simulated_seconds_per_step = 1.0;  // checkpoint every epoch
  TrainingJob job(&f.fs, &f.registry, options);
  StatusOr<std::vector<ConfigRecord>> results = job.Run(plan);
  ASSERT_TRUE(results.ok());
  for (const ConfigRecord& record : *results) {
    EXPECT_TRUE(record.trained);
    EXPECT_EQ(record.epochs_run, 6);
  }
  EXPECT_GT(f.Counter("training_preemptions_total"), 0);
  EXPECT_EQ(f.Counter("training_restores_total"),
            f.Counter("training_preemptions_total"));
}

// A preempted model resumes from its checkpoint on the sample streams of
// the epochs it still has to run, so with one thread per model every
// committed model is byte-identical to a run that was never preempted.
TEST(TrainingJobTest, PreemptedModelsMatchUninterruptedRunBytes) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  for (ConfigRecord& record : plan) record.params.num_epochs = 6;
  TrainingJob::Options options = f.FastTraining();
  options.checkpoint_interval_seconds = 1.0;
  options.simulated_seconds_per_step = 1.0;  // checkpoint every epoch

  TrainingJob clean(&f.fs, &f.registry, options);
  StatusOr<std::vector<ConfigRecord>> clean_results = clean.Run(plan);
  ASSERT_TRUE(clean_results.ok());
  EXPECT_EQ(f.Counter("training_preemptions_total"), 0);

  sfs::MemFileSystem preempted_fs;
  options.preemption_prob_per_epoch = 0.3;
  TrainingJob preempted(&preempted_fs, &f.registry, options);
  StatusOr<std::vector<ConfigRecord>> preempted_results = preempted.Run(plan);
  ASSERT_TRUE(preempted_results.ok());
  EXPECT_GT(f.Counter("training_preemptions_total"), 0);

  ASSERT_EQ(clean_results->size(), preempted_results->size());
  for (const ConfigRecord& record : *clean_results) {
    StatusOr<std::string> clean_bytes =
        sfs::ReadChecksummedFile(&f.fs, record.model_path);
    StatusOr<std::string> resumed_bytes =
        sfs::ReadChecksummedFile(&preempted_fs, record.model_path);
    ASSERT_TRUE(clean_bytes.ok());
    ASSERT_TRUE(resumed_bytes.ok());
    EXPECT_EQ(*clean_bytes, *resumed_bytes) << record.Key();
  }
}

// --- Lease-churn training (preemptible cells).

// Serializes results for byte-comparison between runs.
std::string Fingerprint(const std::vector<ConfigRecord>& results) {
  std::string out;
  for (const ConfigRecord& record : results) {
    out += record.Serialize();
    out += '\n';
  }
  return out;
}

TEST(TrainingJobTest, ChurnEvictsWithGraceCheckpointsAndFinishes) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  for (ConfigRecord& record : plan) record.params.num_epochs = 6;

  TrainingJob::Options options = f.FastTraining();
  options.simulated_seconds_per_step = 1.0;  // 1 epoch ~ data size seconds
  // Aggressive churn: mean inter-eviction well under a model's training
  // time. The grace window spans a whole epoch, so the boundary check
  // always catches the notice in time for a final checkpoint.
  options.churn.preemption_rate_per_hour = 30.0;
  options.churn.eviction_grace_seconds = 1e6;
  options.churn.escalate_after_evictions = 4;
  options.churn.seed = 5;
  TrainingJob job(&f.fs, &f.registry, options);
  StatusOr<std::vector<ConfigRecord>> results = job.Run(plan);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), plan.size());
  for (const ConfigRecord& record : *results) {
    EXPECT_TRUE(record.trained);
    EXPECT_EQ(record.epochs_run, 6);
    EXPECT_TRUE(f.fs.Exists(record.model_path));
  }
  EXPECT_GT(f.Counter("training_evictions_total"), 0);
  // Every eviction was caught in the grace window -> flushed a final
  // checkpoint and resumed from it (no hard evictions).
  EXPECT_EQ(f.Counter("training_eviction_grace_checkpoints_total"),
            f.Counter("training_evictions_total"));
  EXPECT_EQ(f.Counter("training_hard_evictions_total"), 0);
  EXPECT_EQ(f.Counter("training_restores_total"),
            f.Counter("training_evictions_total"));
  // Checkpoint GC still ran after each successful commit.
  EXPECT_TRUE(f.fs.List("checkpoints/")->empty());
}

TEST(TrainingJobTest, ZeroGraceMeansHardEvictionsButTrainingSurvives) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  for (ConfigRecord& record : plan) record.params.num_epochs = 4;

  TrainingJob::Options options = f.FastTraining();
  options.simulated_seconds_per_step = 1.0;
  options.checkpoint_interval_seconds = 1.0;  // periodic safety net
  options.churn.preemption_rate_per_hour = 30.0;
  options.churn.eviction_grace_seconds = 0.0;  // notice always missed
  options.churn.escalate_after_evictions = 3;
  options.churn.seed = 11;
  TrainingJob job(&f.fs, &f.registry, options);
  StatusOr<std::vector<ConfigRecord>> results = job.Run(plan);
  ASSERT_TRUE(results.ok());
  for (const ConfigRecord& record : *results) {
    EXPECT_TRUE(record.trained);
    EXPECT_EQ(record.epochs_run, 4);
  }
  EXPECT_GT(f.Counter("training_evictions_total"), 0);
  EXPECT_EQ(f.Counter("training_eviction_grace_checkpoints_total"), 0);
  EXPECT_EQ(f.Counter("training_hard_evictions_total"),
            f.Counter("training_evictions_total"));
}

TEST(TrainingJobTest, RelentlessChurnEscalatesTasksToRegularPriority) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  for (ConfigRecord& record : plan) record.params.num_epochs = 4;

  TrainingJob::Options options = f.FastTraining();
  options.simulated_seconds_per_step = 1.0;
  // Mean inter-eviction far below one epoch: every lease is revoked at
  // the first boundary check, so without escalation nothing would finish
  // before the preemption budget ran out.
  options.churn.preemption_rate_per_hour = 36000.0;
  options.churn.eviction_grace_seconds = 1e6;
  options.churn.escalate_after_evictions = 2;
  options.churn.seed = 13;
  TrainingJob job(&f.fs, &f.registry, options);
  StatusOr<std::vector<ConfigRecord>> results = job.Run(plan);
  ASSERT_TRUE(results.ok());
  for (const ConfigRecord& record : *results) {
    EXPECT_TRUE(record.trained);
    EXPECT_EQ(record.epochs_run, 4);
    // Escalation (not budget exhaustion) is what saved these models.
    EXPECT_FALSE(record.degraded);
  }
  EXPECT_GT(f.Counter("training_priority_escalations_total"), 0);
  EXPECT_EQ(f.Counter("training_preemption_budget_exhausted_total"), 0);
}

TEST(TrainingJobTest, ChurnTrainingIsDeterministic) {
  auto run = [] {
    JobFixture f;
    std::vector<ConfigRecord> plan = f.SmallPlan();
    for (ConfigRecord& record : plan) record.params.num_epochs = 5;
    TrainingJob::Options options = f.FastTraining();
    options.simulated_seconds_per_step = 1.0;
    options.checkpoint_interval_seconds = 2.0;
    options.churn.preemption_rate_per_hour = 30.0;
    options.churn.eviction_grace_seconds = 1e6;
    options.churn.restart_overhead_seconds = 30.0;
    options.churn.seed = 17;
    TrainingJob job(&f.fs, &f.registry, options);
    StatusOr<std::vector<ConfigRecord>> results = job.Run(plan);
    EXPECT_TRUE(results.ok());
    return std::make_pair(Fingerprint(*results),
                          f.Counter("training_evictions_total"));
  };
  auto [first, first_evictions] = run();
  auto [second, second_evictions] = run();
  // Byte-identical outputs and identical churn history across reruns:
  // eviction schedules depend only on (seed, task key, incarnation),
  // never on thread interleaving.
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_evictions, second_evictions);
  EXPECT_GT(first_evictions, 0);
}

TEST(TrainingJobTest, PreemptionBudgetExhaustionMarksRecordsDegraded) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  for (ConfigRecord& record : plan) record.params.num_epochs = 6;

  TrainingJob::Options options = f.FastTraining();
  options.preemption_prob_per_epoch = 1.0;  // every epoch tries to kill
  options.preemption_budget = 2;
  options.checkpoint_interval_seconds = 1.0;
  options.simulated_seconds_per_step = 1.0;  // checkpoint every epoch
  TrainingJob job(&f.fs, &f.registry, options);
  StatusOr<std::vector<ConfigRecord>> results = job.Run(plan);
  ASSERT_TRUE(results.ok());
  for (const ConfigRecord& record : *results) {
    // Injection stops once the budget is gone, so training completes —
    // but the record carries the degraded flag downstream.
    EXPECT_TRUE(record.trained);
    EXPECT_TRUE(record.degraded);
    EXPECT_EQ(record.epochs_run, 6);
  }
  EXPECT_EQ(f.Counter("training_preemption_budget_exhausted_total"),
            static_cast<int64_t>(plan.size()));
  EXPECT_EQ(f.Counter("training_degraded_records_total"),
            static_cast<int64_t>(plan.size()));
}

TEST(TrainingJobTest, DeadlineStopsTrainingButCommitsPartialModel) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  for (ConfigRecord& record : plan) record.params.num_epochs = 8;

  TrainingJob::Options options = f.FastTraining();
  options.simulated_seconds_per_step = 1.0;  // 1 epoch ~ data size seconds
  // Deadline inside the training run: a few epochs fit, eight do not.
  options.per_model_deadline_seconds = 700.0;
  TrainingJob job(&f.fs, &f.registry, options);
  StatusOr<std::vector<ConfigRecord>> results = job.Run(plan);
  ASSERT_TRUE(results.ok());
  int degraded = 0;
  for (const ConfigRecord& record : *results) {
    EXPECT_TRUE(record.trained);
    EXPECT_TRUE(f.fs.Exists(record.model_path));  // availability held
    if (record.degraded) {
      ++degraded;
      EXPECT_LT(record.epochs_run, 8);
      EXPECT_GT(record.epochs_run, 0);
    }
  }
  EXPECT_GT(degraded, 0);
  EXPECT_GT(f.Counter("training_deadline_exceeded_total"), 0);
  EXPECT_EQ(f.Counter("training_degraded_records_total"), degraded);
}

TEST(TrainingJobTest, MapTaskFailuresRetrySuccessfully) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  TrainingJob::Options options = f.FastTraining();
  options.map_task_failure_prob = 0.4;
  options.max_attempts_per_task = 30;
  TrainingJob job(&f.fs, &f.registry, options);
  StatusOr<std::vector<ConfigRecord>> results = job.Run(plan);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), plan.size());
  EXPECT_GT(f.Counter("mapreduce_task_failures_total",
                      {{"job", "training"}, {"phase", "map"}}),
            0);
}

TEST(TrainingJobTest, ReduceTaskFailuresRetrySuccessfully) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  TrainingJob::Options options = f.FastTraining();
  options.reduce_task_failure_prob = 0.4;
  options.max_attempts_per_task = 30;
  TrainingJob job(&f.fs, &f.registry, options);
  StatusOr<std::vector<ConfigRecord>> results = job.Run(plan);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), plan.size());
  EXPECT_GT(f.Counter("mapreduce_task_failures_total",
                      {{"job", "training"}, {"phase", "reduce"}}),
            0);
  // Failed attempts discard their buffers: output is still exactly-once.
  std::set<std::string> keys;
  for (const ConfigRecord& record : *results) {
    EXPECT_TRUE(keys.insert(record.Key()).second);
  }
}

TEST(TrainingJobTest, ReduceTaskAttemptExhaustionFailsJob) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  TrainingJob::Options options = f.FastTraining();
  options.reduce_task_failure_prob = 1.0;  // every attempt killed
  options.max_attempts_per_task = 3;
  TrainingJob job(&f.fs, &f.registry, options);
  StatusOr<std::vector<ConfigRecord>> results = job.Run(plan);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(f.Counter("mapreduce_task_attempts_total",
                      {{"job", "training"}, {"phase", "reduce"}}),
            3);
  EXPECT_EQ(f.Counter("mapreduce_task_failures_total",
                      {{"job", "training"}, {"phase", "reduce"}}),
            3);
}

TEST(TrainingJobTest, WarmStartRecordUsesStoredModel) {
  JobFixture f;
  std::vector<ConfigRecord> plan = f.SmallPlan();
  TrainingJob job1(&f.fs, &f.registry, f.FastTraining());
  StatusOr<std::vector<ConfigRecord>> day1 = job1.Run(plan);
  ASSERT_TRUE(day1.ok());

  // Incremental: re-train the same configs warm-started, one epoch.
  std::vector<ConfigRecord> incremental = *day1;
  for (ConfigRecord& record : incremental) {
    record.warm_start = true;
    record.trained = false;
    record.params.num_epochs = 1;
  }
  TrainingJob job2(&f.fs, &f.registry, f.FastTraining());
  StatusOr<std::vector<ConfigRecord>> day2 = job2.Run(incremental);
  ASSERT_TRUE(day2.ok());

  // Warm-started single-epoch models should be at least comparable to the
  // fully-trained day-1 models (they started from them).
  std::map<std::string, double> day1_map, day2_map;
  for (const ConfigRecord& record : *day1) {
    day1_map[record.Key()] = record.map_at_10;
  }
  double mean1 = 0, mean2 = 0;
  for (const ConfigRecord& record : *day2) {
    mean1 += day1_map[record.Key()];
    mean2 += record.map_at_10;
  }
  EXPECT_GT(mean2, 0.5 * mean1);
}

// Cores go to models first; a model gets Hogwild threads only when there
// are at least two cores per map task.
TEST(TrainingJobTest, CoresGoToModelsBeforeHogwildThreads) {
  struct Case {
    int max_parallel_tasks, threads_per_model, map_tasks;
    int concurrent_tasks, threads;
  };
  const Case cases[] = {
      {2, 1, 8, 2, 1},  // one core per machine: today's shape
      {2, 2, 8, 4, 1},  // more tasks than cores: one model per core
      {2, 2, 3, 3, 1},  // the spare core idles rather than share a model
      {2, 2, 2, 2, 2},  // one task per machine: it gets the machine
      {2, 4, 1, 1, 4},  // a lone model takes its thread cap
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << c.max_parallel_tasks << " machines x "
                 << c.threads_per_model << " cores, " << c.map_tasks
                 << " map tasks");
    const TrainingCores cores = PlanTrainingCores(
        c.max_parallel_tasks, c.threads_per_model, c.map_tasks);
    EXPECT_EQ(cores.concurrent_tasks, c.concurrent_tasks);
    EXPECT_EQ(cores.threads_per_model, c.threads);
  }
}

// Two two-core machines and eight map tasks run four single-threaded
// models at once, so a full grid trains to the same bytes on every run:
// Hogwild threads would make the models differ.
TEST(TrainingJobTest, SpareCoresTrainMoreModelsNotMoreThreads) {
  auto train = [] {
    JobFixture f;
    SweepPlanner::Options sweep;
    sweep.grid.factors = {4, 8};
    sweep.grid.lambdas_v = {0.1, 0.01};
    sweep.grid.lambdas_vc = {0.01};
    sweep.grid.num_epochs = 3;
    sweep.shuffle = true;
    const std::vector<ConfigRecord> plan =
        SweepPlanner(sweep).PlanFullSweep(f.registry);
    EXPECT_GE(plan.size(), 8u);

    TrainingJob::Options options = f.FastTraining();
    options.num_map_tasks = 8;
    options.max_parallel_tasks = 2;
    options.threads_per_model = 2;
    StatusOr<std::vector<ConfigRecord>> results =
        TrainingJob(&f.fs, &f.registry, options).Run(plan);
    EXPECT_TRUE(results.ok());
    if (!results.ok()) return std::string();
    std::string out = Fingerprint(*results);
    for (const ConfigRecord& record : *results) {
      StatusOr<std::string> bytes =
          sfs::ReadChecksummedFile(&f.fs, record.model_path);
      EXPECT_TRUE(bytes.ok()) << record.Key();
      if (bytes.ok()) out += *bytes;
    }
    return out;
  };
  const std::string first = train();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, train());
}

// Training cost is interactions x factors x epochs, in 64-bit.
TEST(TrainingJobTest, EstimatesTrainingCostFromInteractionsFactorsEpochs) {
  struct Case {
    std::vector<int> history_sizes;
    int num_factors, num_epochs;
    int64_t cost;
  };
  const Case cases[] = {
      {{2, 3, 5}, 8, 2, 160},   // 10 interactions
      {{2, 3, 5}, 16, 2, 320},  // twice the factors, twice the cost
      {{2, 3, 5}, 8, 4, 320},   // twice the epochs, twice the cost
      {{}, 8, 2, 0},            // no interactions, nothing to train
      {{2, 3, 5}, 8, 0, 0},     // no epochs, nothing to train
      {{100000}, 200, 200, 4000000000LL},  // past 32 bits
  };
  for (const Case& c : cases) {
    data::RetailerData retailer;
    for (int size : c.history_sizes) {
      retailer.histories.emplace_back(static_cast<size_t>(size));
    }
    ConfigRecord record;
    record.params.num_factors = c.num_factors;
    record.params.num_epochs = c.num_epochs;
    SCOPED_TRACE(testing::Message()
                 << retailer.TotalInteractions() << " interactions x "
                 << c.num_factors << " factors x " << c.num_epochs
                 << " epochs");
    EXPECT_EQ(EstimateTrainingCost(record, retailer), c.cost);
  }
}

// A plan with cost ties: two lambdas per (retailer, factors) pair.
std::vector<ConfigRecord> PlanWithTies(const RetailerRegistry& registry) {
  SweepPlanner::Options sweep;
  sweep.grid.factors = {4, 8};
  sweep.grid.lambdas_v = {0.1, 0.01};
  sweep.grid.lambdas_vc = {0.01};
  sweep.grid.sweep_taxonomy = false;
  sweep.grid.sweep_brand = false;
  sweep.grid.num_epochs = 2;
  sweep.shuffle = true;
  return SweepPlanner(sweep).PlanFullSweep(registry);
}

// On one machine the models train one after another, so their spans start
// in schedule order: descending cost, and plan order among equal costs.
TEST(TrainingJobTest, LargestModelsStartFirst) {
  JobFixture f;
  const std::vector<ConfigRecord> plan = PlanWithTies(f.registry);
  std::map<std::string, size_t> plan_index;
  for (size_t i = 0; i < plan.size(); ++i) {
    plan_index["train/retailer" + std::to_string(plan[i].retailer) + "/m" +
               std::to_string(plan[i].model_number)] = i;
  }

  obs::Tracer tracer;
  TrainingJob::Options options = f.FastTraining();
  options.max_parallel_tasks = 1;
  options.threads_per_model = 1;
  options.tracer = &tracer;
  ASSERT_TRUE(TrainingJob(&f.fs, &f.registry, options).Run(plan).ok());

  std::vector<size_t> started;
  for (const obs::SpanRecord& span : tracer.Spans()) {
    auto it = plan_index.find(span.name);
    if (it != plan_index.end()) started.push_back(it->second);
  }
  ASSERT_EQ(started.size(), plan.size());
  auto cost = [&](size_t i) {
    return EstimateTrainingCost(plan[i], **f.registry.Get(plan[i].retailer));
  };
  int ties = 0;
  for (size_t k = 1; k < started.size(); ++k) {
    const size_t prev = started[k - 1];
    const size_t next = started[k];
    SCOPED_TRACE(plan[prev].Key() + " then " + plan[next].Key());
    EXPECT_GE(cost(prev), cost(next));
    if (cost(prev) == cost(next)) {
      ++ties;
      EXPECT_LT(prev, next);
    }
  }
  EXPECT_GT(ties, 0);
}

// The trained models and output records depend on the records alone:
// neither the input order (which sets the tie order) nor training a
// record in a job of its own (its own schedule and its own view) changes
// a byte.
TEST(TrainingJobTest, ScheduleDoesNotChangeModels) {
  JobFixture f;
  const std::vector<ConfigRecord> plan = PlanWithTies(f.registry);
  TrainingJob::Options options = f.FastTraining();
  options.max_parallel_tasks = 2;
  options.threads_per_model = 1;
  auto fingerprint = [&](const sfs::MemFileSystem& fs,
                         const std::vector<ConfigRecord>& results) {
    std::string out = Fingerprint(results);
    for (const ConfigRecord& record : results) {
      StatusOr<std::string> bytes =
          sfs::ReadChecksummedFile(&fs, record.model_path);
      EXPECT_TRUE(bytes.ok()) << record.Key();
      if (bytes.ok()) out += *bytes;
    }
    return out;
  };

  sfs::MemFileSystem shuffled_fs;
  StatusOr<std::vector<ConfigRecord>> shuffled =
      TrainingJob(&shuffled_fs, &f.registry, options).Run(plan);
  ASSERT_TRUE(shuffled.ok());

  const std::vector<ConfigRecord> reversed_plan(plan.rbegin(), plan.rend());
  sfs::MemFileSystem reversed_fs;
  StatusOr<std::vector<ConfigRecord>> reversed =
      TrainingJob(&reversed_fs, &f.registry, options).Run(reversed_plan);
  ASSERT_TRUE(reversed.ok());

  sfs::MemFileSystem alone_fs;
  std::vector<ConfigRecord> alone;
  for (const ConfigRecord& record : plan) {
    StatusOr<std::vector<ConfigRecord>> one =
        TrainingJob(&alone_fs, &f.registry, options).Run({record});
    ASSERT_TRUE(one.ok());
    alone.insert(alone.end(), one->begin(), one->end());
  }
  std::sort(alone.begin(), alone.end(),
            [](const ConfigRecord& a, const ConfigRecord& b) {
              return a.Key() < b.Key();
            });

  const std::string expected = fingerprint(shuffled_fs, *shuffled);
  EXPECT_EQ(fingerprint(reversed_fs, *reversed), expected);
  EXPECT_EQ(fingerprint(alone_fs, alone), expected);
}

// Each retailer's training view is built once per Run, however many of
// its configs there are, and however many task attempts are killed.
TEST(TrainingJobTest, OneViewBuildPerRetailer) {
  for (double failure_prob : {0.0, 0.4}) {
    SCOPED_TRACE(testing::Message() << "map_task_failure_prob "
                                    << failure_prob);
    JobFixture f;
    const std::vector<ConfigRecord> plan = PlanWithTies(f.registry);
    std::set<data::RetailerId> retailers;
    for (const ConfigRecord& record : plan) retailers.insert(record.retailer);
    ASSERT_LT(retailers.size(), plan.size());

    TrainingJob::Options options = f.FastTraining();
    options.map_task_failure_prob = failure_prob;
    options.max_attempts_per_task = 30;
    TrainingJob job(&f.fs, &f.registry, options);
    ASSERT_TRUE(job.Run(plan).ok());
    EXPECT_EQ(f.Counter("training_retailer_view_builds_total"),
              static_cast<int64_t>(retailers.size()));
    EXPECT_EQ(f.Counter("mapreduce_task_failures_total",
                        {{"job", "training"}, {"phase", "map"}}) > 0,
              failure_prob > 0.0);

    // A second Run builds its own views.
    ASSERT_TRUE(job.Run(plan).ok());
    EXPECT_EQ(f.Counter("training_retailer_view_builds_total"),
              2 * static_cast<int64_t>(retailers.size()));
  }
}

// Fails every rename onto one path with a transient error; everything else
// goes straight to `base`.
class FailingRenameFileSystem : public sfs::SharedFileSystem {
 public:
  FailingRenameFileSystem(sfs::SharedFileSystem* base, std::string target)
      : base_(base), target_(std::move(target)) {}

  Status Write(const std::string& path, const std::string& data) override {
    return base_->Write(path, data);
  }
  StatusOr<std::string> Read(const std::string& path) const override {
    return base_->Read(path);
  }
  Status Delete(const std::string& path) override {
    return base_->Delete(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    if (to == target_) return UnavailableError("injected: " + to);
    return base_->Rename(from, to);
  }
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }
  StatusOr<std::vector<std::string>> List(
      const std::string& prefix) const override {
    return base_->List(prefix);
  }
  StatusOr<int64_t> FileSize(const std::string& path) const override {
    return base_->FileSize(path);
  }

 private:
  sfs::SharedFileSystem* base_;
  std::string target_;
};

// A corrupt checkpoint is counted when it is skipped, even if the attempt
// that skipped it fails later: here the model commit fails after training
// has replaced the corrupt checkpoint. The failing rename is transient
// (kUnavailable), so the job retries the task: every later attempt, and
// the rerun job, resumes from the good checkpoint without skipping
// anything.
TEST(TrainingJobTest, CorruptCheckpointSkippedByFailedAttemptIsCounted) {
  JobFixture f;
  ConfigRecord record = PlanWithTies(f.registry).front();
  record.params.num_epochs = 3;
  std::string torn = "torn checkpoint";
  ASSERT_TRUE(f.fs.Write(CheckpointDir(record.retailer, record.model_number) +
                             "/ckpt.000000000",
                         torn)
                  .ok());

  TrainingJob::Options options = f.FastTraining();
  options.checkpoint_interval_seconds = 1.0;
  options.simulated_seconds_per_step = 1.0;  // checkpoint every epoch
  FailingRenameFileSystem failing(&f.fs, record.model_path);
  StatusOr<std::vector<ConfigRecord>> failed =
      TrainingJob(&failing, &f.registry, options).Run({record});
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  // The exhausted task still names the error its attempts kept hitting.
  EXPECT_NE(failed.status().message().find("injected"), std::string::npos)
      << failed.status().ToString();
  EXPECT_EQ(f.Counter("training_corrupt_checkpoints_skipped_total"), 1);
  const int64_t attempts = options.max_attempts_per_task;
  EXPECT_EQ(f.Counter("mapreduce_task_failures_total", {{"phase", "map"}}),
            attempts);
  EXPECT_EQ(f.Counter("training_restores_total"), attempts - 1);

  StatusOr<std::vector<ConfigRecord>> retried =
      TrainingJob(&f.fs, &f.registry, options).Run({record});
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(f.Counter("training_restores_total"), attempts);
  EXPECT_EQ(f.Counter("training_corrupt_checkpoints_skipped_total"), 1);
}

TEST(TrainingJobTest, MissingRetailerFailsJob) {
  JobFixture f;
  ConfigRecord record;
  record.retailer = 99;
  record.model_path = ModelPath(99, 0);
  TrainingJob job(&f.fs, &f.registry, f.FastTraining());
  EXPECT_EQ(job.Run({record}).status().code(), StatusCode::kNotFound);
}

// The registry is the only home of a job's counters, so a job cannot be
// built without one.
TEST(JobsDeathTest, JobsRequireAMetricsRegistry) {
  JobFixture f;
  EXPECT_DEATH(
      { TrainingJob job(&f.fs, &f.registry, TrainingJob::Options{}); },
      "metrics is required");
  EXPECT_DEATH(
      { InferenceJob job(&f.fs, &f.registry, InferenceJob::Options{}); },
      "metrics is required");
}

// --- InferenceJob -----------------------------------------------------------

class InferenceFixture : public JobFixture {
 public:
  InferenceFixture() {
    // Train one model per retailer and promote it to best.
    SweepPlanner::Options options;
    options.grid.factors = {8};
    options.grid.lambdas_v = {0.01};
    options.grid.lambdas_vc = {0.01};
    options.grid.sweep_taxonomy = false;
    options.grid.sweep_brand = false;
    options.grid.num_epochs = 3;
    SweepPlanner planner(options);
    TrainingJob job(&fs, &registry, FastTraining());
    auto results = job.Run(planner.PlanFullSweep(registry));
    SIGCHECK(results.ok());
    for (const ConfigRecord& record : *results) {
      auto bytes = fs.Read(record.model_path);
      SIGCHECK(bytes.ok());
      SIGCHECK_OK(fs.Write(BestModelPath(record.retailer), *bytes));
    }
  }
};

// Decodes the batch file the job wrote for `retailer`, as the serving
// store sees it.
core::RecommendationBatch ReadBatch(const sfs::MemFileSystem& fs,
                                    data::RetailerId retailer) {
  StatusOr<std::string> bytes = fs.Read(RecommendationPath(retailer));
  SIGCHECK(bytes.ok());
  StatusOr<std::string> payload = ReadChecksummedFrame(*bytes);
  SIGCHECK(payload.ok());
  StatusOr<core::RecommendationBatch> batch =
      core::RecommendationBatch::Decode(*payload);
  SIGCHECK(batch.ok());
  return std::move(batch).value();
}

TEST(InferenceJobTest, MaterializesEveryItemOfEveryRetailer) {
  InferenceFixture f;
  InferenceJob::Options options = f.Inference();
  options.inference.top_k = 5;
  InferenceJob job(&f.fs, &f.registry, options);
  auto results = job.Run({0, 1});
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(*results, (std::vector<data::RetailerId>{0, 1}));
  // Recommendation files persisted.
  EXPECT_TRUE(f.fs.Exists(RecommendationPath(0)));
  EXPECT_TRUE(f.fs.Exists(RecommendationPath(1)));
  EXPECT_EQ(ReadBatch(f.fs, 0).num_items(), 60);
  EXPECT_EQ(ReadBatch(f.fs, 1).num_items(), 120);
  // Every item of the fixture's catalogs gets recommendations, so an item
  // whose record went missing would show up as an unlisted row.
  EXPECT_EQ(ReadBatch(f.fs, 0).num_listed_items(), 60);
  EXPECT_EQ(ReadBatch(f.fs, 1).num_listed_items(), 120);
  EXPECT_EQ(f.Counter("mapreduce_records_total",
                      {{"job", "inference/cell0"}, {"kind", "output"}}),
            180);
  EXPECT_EQ(f.Counter("inference_items_scored_total"), 180);
}

TEST(InferenceJobTest, ModelLoadsBoundedBySplitBoundaries) {
  InferenceFixture f;
  InferenceJob::Options options = f.Inference();
  options.map_tasks_per_cell = 3;
  InferenceJob job(&f.fs, &f.registry, options);
  ASSERT_TRUE(job.Run({0, 1}).ok());
  // Each map task loads a model at most (1 + #retailer boundaries in its
  // split) times: total <= retailers + map_tasks - 1... with contiguous
  // per-retailer input, loads <= retailers + tasks.
  EXPECT_GE(f.Counter("inference_model_loads_total"), 2);
  EXPECT_LE(f.Counter("inference_model_loads_total"), 2 + 3);
}

TEST(InferenceJobTest, SecondRunCountsOnlyItsOwnWork) {
  InferenceFixture f;
  InferenceJob job(&f.fs, &f.registry, f.Inference());
  ASSERT_TRUE(job.Run({0, 1}).ok());
  const int64_t loads = f.Counter("inference_model_loads_total");
  const int64_t scored = f.Counter("inference_items_scored_total");
  EXPECT_GE(loads, 2);
  EXPECT_EQ(scored, 180);

  ASSERT_TRUE(job.Run({0, 1}).ok());
  EXPECT_EQ(f.Counter("inference_model_loads_total"), 2 * loads);
  EXPECT_EQ(f.Counter("inference_items_scored_total"), 2 * scored);
}

TEST(InferenceJobTest, CellWeightsReflectBinPacking) {
  InferenceFixture f;
  InferenceJob::Options options = f.Inference();
  options.num_cells = 2;
  InferenceJob job(&f.fs, &f.registry, options);
  ASSERT_TRUE(job.Run({0, 1}).ok());
  // FFD: big retailer (120) alone in one cell, small (60) in the other. A
  // cell's MapReduce input is one record per item it materializes.
  auto cell_items = [&f](const char* cell) {
    return f.Counter("mapreduce_records_total",
                     {{"job", cell}, {"kind", "input"}});
  };
  const int64_t a = cell_items("inference/cell0");
  const int64_t b = cell_items("inference/cell1");
  EXPECT_EQ(std::max(a, b), 120);
  EXPECT_EQ(std::min(a, b), 60);
}

TEST(InferenceJobTest, MissingBestModelFails) {
  JobFixture f;  // no best models written
  InferenceJob job(&f.fs, &f.registry, f.Inference());
  EXPECT_FALSE(job.Run({0}).ok());
}


TEST(InferenceJobTest, MapFailuresRetriedWithExactlyOnceOutput) {
  InferenceFixture f;
  InferenceJob::Options options = f.Inference();
  options.inference.top_k = 5;
  options.map_tasks_per_cell = 4;
  options.map_task_failure_prob = 0.4;
  options.max_attempts_per_task = 30;
  InferenceJob job(&f.fs, &f.registry, options);
  auto results = job.Run({0, 1});
  ASSERT_TRUE(results.ok());
  // Exactly one recommendation record per item despite retries: the
  // committed map output holds one record per item, and the batch build
  // fails on a missing or duplicated query record.
  EXPECT_EQ(f.Counter("mapreduce_records_total",
                      {{"job", "inference/cell0"}, {"kind", "output"}}),
            180);
  EXPECT_EQ(ReadBatch(f.fs, 0).num_items(), 60);
  EXPECT_EQ(ReadBatch(f.fs, 1).num_items(), 120);
  EXPECT_EQ(ReadBatch(f.fs, 0).num_listed_items(), 60);
  EXPECT_EQ(ReadBatch(f.fs, 1).num_listed_items(), 120);
}

TEST(InferenceJobTest, RecommendationsParseAndRespectTopK) {
  InferenceFixture f;
  InferenceJob::Options options = f.Inference();
  options.inference.top_k = 4;
  InferenceJob job(&f.fs, &f.registry, options);
  auto results = job.Run({0});
  ASSERT_TRUE(results.ok());
  const core::RecommendationBatch batch = ReadBatch(f.fs, 0);
  ASSERT_EQ(batch.num_items(), 60);
  for (data::ItemIndex q = 0; q < batch.num_items(); ++q) {
    EXPECT_LE(batch.ListSize(q, core::RecommendationList::kViewBased), 4u);
    EXPECT_LE(batch.ListSize(q, core::RecommendationList::kPurchaseBased),
              4u);
    for (const core::ScoredItem& item :
         batch.List(q, core::RecommendationList::kViewBased)) {
      EXPECT_GE(item.item, 0);
      EXPECT_LT(item.item, 60);
      EXPECT_NE(item.item, q);
    }
  }
}

// What serving returns after a store load is exactly what the engine
// ranked: the same ids in the same order, each score the f32 rounding of
// the ranked double. The engine is built the way the mapper builds it.
TEST(InferenceJobTest, ServedListsEqualRankedListsAtF32) {
  InferenceFixture f;
  InferenceJob::Options options = f.Inference();
  options.inference.top_k = 5;
  options.inference.materialize_late_funnel = true;
  ASSERT_TRUE(InferenceJob(&f.fs, &f.registry, options).Run({0}).ok());
  serving::RecommendationStore store;
  ASSERT_TRUE(store.LoadRetailerFromFile(0, f.fs, RecommendationPath(0)).ok());

  const data::RetailerData& data = f.r0.data;
  StatusOr<std::string> bytes =
      sfs::ReadChecksummedFile(&f.fs, BestModelPath(0));
  ASSERT_TRUE(bytes.ok());
  StatusOr<core::BprModel> model =
      core::BprModel::Deserialize(*bytes, &data.catalog);
  ASSERT_TRUE(model.ok());
  const core::CooccurrenceModel cooccurrence = core::CooccurrenceModel::Build(
      data.histories, data.catalog.num_items(), {});
  const core::RepurchaseEstimator repurchase =
      core::RepurchaseEstimator::Build(data.histories, data.catalog, {});
  const core::CandidateSelector selector(&data.catalog, &cooccurrence,
                                         &repurchase);
  const core::InferenceEngine engine(&*model, &selector);

  auto expect_same = [](const StatusOr<std::vector<core::ScoredItem>>& served,
                        const std::vector<core::ScoredItem>& ranked) {
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(served->size(), ranked.size());
    for (size_t k = 0; k < ranked.size(); ++k) {
      EXPECT_EQ((*served)[k].item, ranked[k].item);
      EXPECT_EQ((*served)[k].score,
                static_cast<double>(static_cast<float>(ranked[k].score)));
    }
  };
  int64_t late_lists = 0;
  for (data::ItemIndex i = 0; i < data.num_items(); ++i) {
    SCOPED_TRACE(i);
    const core::ItemRecommendations ranked =
        engine.RecommendForItem(i, options.inference);
    expect_same(store.Lookup(0, i, serving::RecommendationKind::kViewBased),
                ranked.view_based);
    expect_same(
        store.Lookup(0, i, serving::RecommendationKind::kPurchaseBased),
        ranked.purchase_based);
    if (!ranked.view_based_late.empty()) {
      ++late_lists;
      expect_same(store.LookupLateFunnel(0, i), ranked.view_based_late);
    }
  }
  EXPECT_GT(late_lists, 0);
}

}  // namespace
}  // namespace sigmund::pipeline
