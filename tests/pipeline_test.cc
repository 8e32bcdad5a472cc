#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "counter_total.h"
#include "data/world_generator.h"
#include "pipeline/binpack.h"
#include "pipeline/checkpoint.h"
#include "pipeline/config_record.h"
#include "pipeline/registry.h"
#include "pipeline/sweep.h"
#include "pipeline/training_job.h"
#include "sfs/fault_injection.h"
#include "sfs/mem_filesystem.h"
#include "sfs/reliable_io.h"

namespace sigmund::pipeline {
namespace {

// --- ConfigRecord ---------------------------------------------------------

TEST(ConfigRecordTest, SerializeRoundTrip) {
  ConfigRecord record;
  record.retailer = 12;
  record.model_number = 7;
  record.params.num_factors = 24;
  record.params.lambda_v = 0.003;
  record.model_path = ModelPath(12, 7);
  record.warm_start = true;
  record.trained = true;
  record.map_at_10 = 0.1234;
  record.auc = 0.9;
  record.epochs_run = 11;
  record.sgd_steps = 98765;
  record.degraded = true;

  StatusOr<ConfigRecord> parsed =
      ConfigRecord::Deserialize(record.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->retailer, 12);
  EXPECT_EQ(parsed->model_number, 7);
  EXPECT_EQ(parsed->params, record.params);
  EXPECT_EQ(parsed->model_path, record.model_path);
  EXPECT_TRUE(parsed->warm_start);
  EXPECT_TRUE(parsed->trained);
  EXPECT_DOUBLE_EQ(parsed->map_at_10, 0.1234);
  EXPECT_EQ(parsed->sgd_steps, 98765);
  EXPECT_TRUE(parsed->degraded);
}

TEST(ConfigRecordTest, KeyFormat) {
  ConfigRecord record;
  record.retailer = 3;
  record.model_number = 42;
  EXPECT_EQ(record.Key(), "r3/m042");
}

TEST(ConfigRecordTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(ConfigRecord::Deserialize("nonsense").ok());
  EXPECT_FALSE(ConfigRecord::Deserialize("retailer=x").ok());
  EXPECT_FALSE(ConfigRecord::Deserialize("bogus=1").ok());
}

TEST(PathsTest, DistinctAndStable) {
  std::set<std::string> paths = {ModelPath(1, 2), ModelPath(1, 3),
                                 ModelPath(2, 2), BestModelPath(1),
                                 CheckpointDir(1, 2), RecommendationPath(1),
                                 SweepResultPath(1)};
  EXPECT_EQ(paths.size(), 7u);
}

// --- CheckpointManager -----------------------------------------------------

constexpr char kCorruptSkipped[] =
    "training_corrupt_checkpoints_skipped_total";

struct CheckpointFixture {
  data::RetailerWorld world;
  core::BprModel model;
  sfs::MemFileSystem fs;
  SimClock clock;

  CheckpointFixture()
      : world([] {
          data::WorldConfig config;
          config.seed = 3;
          data::WorldGenerator generator(config);
          return generator.GenerateRetailer(0, 60);
        }()),
        model(&world.data.catalog, [] {
          core::HyperParams params;
          params.num_factors = 4;
          return params;
        }()) {
    Rng rng(1);
    model.InitRandom(&rng);
  }
};

TEST(CheckpointManagerTest, IntervalGatesWrites) {
  CheckpointFixture f;
  CheckpointManager manager(&f.fs, &f.clock, "ck/r0", 100.0);
  // Not enough time elapsed.
  StatusOr<bool> wrote = manager.MaybeCheckpoint(f.model, 0);
  ASSERT_TRUE(wrote.ok());
  EXPECT_FALSE(*wrote);
  EXPECT_FALSE(manager.HasCheckpoint());
  // Advance past the interval.
  f.clock.AdvanceSeconds(101.0);
  wrote = manager.MaybeCheckpoint(f.model, 3);
  ASSERT_TRUE(wrote.ok());
  EXPECT_TRUE(*wrote);
  EXPECT_TRUE(manager.HasCheckpoint());
  // Immediately after, gated again.
  wrote = manager.MaybeCheckpoint(f.model, 4);
  ASSERT_TRUE(wrote.ok());
  EXPECT_FALSE(*wrote);
  // One write: version 0 is committed, and no later version replaced it.
  EXPECT_EQ(*f.fs.List("ck/r0/ckpt."),
            std::vector<std::string>{"ck/r0/ckpt.000000000"});
}

TEST(CheckpointManagerTest, RestoreRoundTripsModelAndEpoch) {
  CheckpointFixture f;
  CheckpointManager manager(&f.fs, &f.clock, "ck/r0", 1.0);
  ASSERT_TRUE(manager.ForceCheckpoint(f.model, 5).ok());
  StatusOr<CheckpointManager::Restored> restored =
      manager.Restore(&f.world.data.catalog);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->epoch, 5);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(restored->model.item_embeddings().row(0)[k],
              f.model.item_embeddings().row(0)[k]);
  }
}

TEST(CheckpointManagerTest, KeepsOnlyLatestCheckpoint) {
  CheckpointFixture f;
  CheckpointManager manager(&f.fs, &f.clock, "ck/r0", 1.0);
  ASSERT_TRUE(manager.ForceCheckpoint(f.model, 1).ok());
  ASSERT_TRUE(manager.ForceCheckpoint(f.model, 2).ok());
  ASSERT_TRUE(manager.ForceCheckpoint(f.model, 3).ok());
  // GC leaves exactly one committed checkpoint.
  EXPECT_EQ(f.fs.List("ck/r0/ckpt.")->size(), 1u);
  StatusOr<CheckpointManager::Restored> restored =
      manager.Restore(&f.world.data.catalog);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->epoch, 3);
}

TEST(CheckpointManagerTest, RestoreWithoutCheckpointIsNotFound) {
  CheckpointFixture f;
  CheckpointManager manager(&f.fs, &f.clock, "ck/r0", 1.0);
  EXPECT_EQ(manager.Restore(&f.world.data.catalog).status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointManagerTest, ClearRemovesEverything) {
  CheckpointFixture f;
  CheckpointManager manager(&f.fs, &f.clock, "ck/r0", 1.0);
  ASSERT_TRUE(manager.ForceCheckpoint(f.model, 1).ok());
  ASSERT_TRUE(manager.Clear().ok());
  EXPECT_FALSE(manager.HasCheckpoint());
  EXPECT_TRUE(f.fs.List("ck/r0")->empty());
  // Idempotent: clearing an already-empty directory succeeds.
  ASSERT_TRUE(manager.Clear().ok());
}

TEST(CheckpointManagerTest, VersionNumberingSurvivesNewManager) {
  CheckpointFixture f;
  {
    CheckpointManager manager(&f.fs, &f.clock, "ck/r0", 1.0);
    ASSERT_TRUE(manager.ForceCheckpoint(f.model, 1).ok());
  }
  // A new manager (new task attempt) continues the version sequence and
  // can restore the previous attempt's checkpoint.
  CheckpointManager manager2(&f.fs, &f.clock, "ck/r0", 1.0);
  EXPECT_TRUE(manager2.HasCheckpoint());
  ASSERT_TRUE(manager2.ForceCheckpoint(f.model, 2).ok());
  StatusOr<CheckpointManager::Restored> restored =
      manager2.Restore(&f.world.data.catalog);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->epoch, 2);
}

TEST(CheckpointManagerTest, CorruptLatestCheckpointReportsNotFound) {
  CheckpointFixture f;
  obs::MetricRegistry registry;
  sfs::ReliableIoCounters io(&registry);
  CheckpointManager manager(&f.fs, &f.clock, "ck/r0", 1.0, RetryPolicy{},
                            &io, registry.GetCounter(kCorruptSkipped));
  ASSERT_TRUE(manager.ForceCheckpoint(f.model, 4).ok());
  // Tear the committed checkpoint behind the manager's back.
  std::vector<std::string> checkpoints = *f.fs.List("ck/r0/ckpt.");
  ASSERT_EQ(checkpoints.size(), 1u);
  std::string bytes = *f.fs.Read(checkpoints[0]);
  bytes.resize(bytes.size() / 2);
  ASSERT_TRUE(f.fs.Write(checkpoints[0], bytes).ok());

  // Restore sees the corruption, counts it, and reports "no checkpoint"
  // so training restarts cleanly — never a crash or a garbage model.
  StatusOr<CheckpointManager::Restored> restored =
      manager.Restore(&f.world.data.catalog);
  EXPECT_EQ(restored.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(testutil::CounterTotal(registry, kCorruptSkipped), 1);
  EXPECT_GE(testutil::CounterTotal(registry, "sfs_corruptions_detected_total"),
            1);
}

TEST(CheckpointManagerTest,
     UndecodableCheckpointCountsAsSkippedNotAsSfsCorruption) {
  CheckpointFixture f;
  obs::MetricRegistry registry;
  sfs::ReliableIoCounters io(&registry);
  // A frame whose CRC checks out, holding an epoch and bytes that are no
  // model: the SFS delivered exactly what was written.
  std::string payload(sizeof(int32_t), '\0');
  payload[0] = 7;
  payload += "definitely not a serialized model";
  ASSERT_TRUE(
      sfs::WriteChecksummedFile(&f.fs, "ck/r0/ckpt.000000000", payload).ok());
  CheckpointManager manager(&f.fs, &f.clock, "ck/r0", 1.0, RetryPolicy{},
                            &io, registry.GetCounter(kCorruptSkipped));
  StatusOr<CheckpointManager::Restored> restored =
      manager.Restore(&f.world.data.catalog);
  EXPECT_EQ(restored.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(testutil::CounterTotal(registry, kCorruptSkipped), 1);
  EXPECT_EQ(testutil::CounterTotal(registry, "sfs_corruptions_detected_total"),
            0);
}

TEST(CheckpointManagerTest, GcSurvivesTransientDeleteFailures) {
  CheckpointFixture f;
  sfs::FaultProfile profile;
  profile.delete_error_prob = 0.7;
  profile.seed = 11;
  sfs::FaultInjectingFileSystem faulty(&f.fs, profile);
  RetryPolicy policy;
  policy.max_attempts = 10;
  obs::MetricRegistry registry;
  sfs::ReliableIoCounters io(&registry);
  CheckpointManager manager(&faulty, &f.clock, "ck/r0", 1.0, policy, &io);
  for (int epoch = 1; epoch <= 5; ++epoch) {
    ASSERT_TRUE(manager.ForceCheckpoint(f.model, epoch).ok());
  }
  EXPECT_GT(faulty.counters().delete_errors.load(), 0);
  EXPECT_GT(testutil::CounterTotal(registry, "sfs_retries_total"), 0);
  // Retried GC still converged to keep-only-latest.
  EXPECT_EQ(f.fs.List("ck/r0/ckpt.")->size(), 1u);
  StatusOr<CheckpointManager::Restored> restored =
      manager.Restore(&f.world.data.catalog);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->epoch, 5);
}

TEST(CheckpointManagerTest, ClearRetriesTransientDeleteFailures) {
  CheckpointFixture f;
  sfs::FaultProfile profile;
  profile.delete_error_prob = 0.7;
  profile.seed = 29;
  sfs::FaultInjectingFileSystem faulty(&f.fs, profile);
  RetryPolicy policy;
  policy.max_attempts = 10;
  CheckpointManager manager(&faulty, &f.clock, "ck/r0", 1.0, policy);
  ASSERT_TRUE(manager.ForceCheckpoint(f.model, 1).ok());
  ASSERT_TRUE(manager.Clear().ok());
  EXPECT_TRUE(f.fs.List("ck/r0")->empty());
  ASSERT_TRUE(manager.Clear().ok());  // idempotent under faults too
}

TEST(CheckpointManagerTest, StaleCheckpointNeverShadowsNewerCommit) {
  CheckpointFixture f;
  // Every Delete fails, so GC is permanently defeated: each commit leaves
  // the previous checkpoint stranded on disk.
  sfs::FaultProfile profile;
  profile.delete_error_prob = 1.0;
  profile.seed = 17;
  sfs::FaultInjectingFileSystem faulty(&f.fs, profile);
  RetryPolicy policy;
  policy.max_attempts = 3;
  CheckpointManager manager(&faulty, &f.clock, "ck/r0", 1.0, policy);
  ASSERT_TRUE(manager.ForceCheckpoint(f.model, 2).ok());
  // Mutate the model so the stale and fresh checkpoints hold different
  // bytes, then commit again at a later epoch.
  Rng rng(99);
  f.model.InitRandom(&rng);
  ASSERT_TRUE(manager.ForceCheckpoint(f.model, 7).ok());
  // The stale epoch-2 file really is still there...
  EXPECT_EQ(f.fs.List("ck/r0/ckpt.")->size(), 2u);
  // ...but Restore must take the newest commit, epoch and bytes both.
  StatusOr<CheckpointManager::Restored> restored =
      manager.Restore(&f.world.data.catalog);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->epoch, 7);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(restored->model.item_embeddings().row(0)[k],
              f.model.item_embeddings().row(0)[k]);
  }
}

TEST(CheckpointManagerTest, EvictionGraceCheckpointResumesRestartedTask) {
  CheckpointFixture f;
  // First incarnation: the eviction notice arrives mid-epoch and the
  // grace handler flushes state with ForceCheckpoint before the machine
  // goes away.
  {
    CheckpointManager manager(&f.fs, &f.clock, "ck/r0", 1e9);
    ASSERT_TRUE(manager.ForceCheckpoint(f.model, 6).ok());
  }
  // Second incarnation on a fresh machine: a brand-new manager over the
  // same directory must see the grace checkpoint and hand back the exact
  // epoch and model, so training resumes at epoch 7 instead of 0.
  CheckpointManager restarted(&f.fs, &f.clock, "ck/r0", 1e9);
  EXPECT_TRUE(restarted.HasCheckpoint());
  StatusOr<CheckpointManager::Restored> restored =
      restarted.Restore(&f.world.data.catalog);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->epoch, 6);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(restored->model.item_embeddings().row(0)[k],
              f.model.item_embeddings().row(0)[k]);
  }
}

// --- Bin packing ------------------------------------------------------------

TEST(BinPackTest, FirstFitDecreasingBalances) {
  std::vector<PackItem> items = {{0, 8}, {1, 7}, {2, 6}, {3, 5},
                                 {4, 4}, {5, 3}, {6, 2}, {7, 1}};
  auto bins = FirstFitDecreasing(items, 2);
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_DOUBLE_EQ(BinWeight(bins[0]) + BinWeight(bins[1]), 36.0);
  EXPECT_DOUBLE_EQ(MaxBinWeight(bins), 18.0);  // perfect split
}

TEST(BinPackTest, AllItemsAssignedOnce) {
  std::vector<PackItem> items;
  for (int i = 0; i < 37; ++i) items.push_back({i, 1.0 + (i % 5)});
  auto bins = FirstFitDecreasing(items, 4);
  std::set<int64_t> seen;
  for (const auto& bin : bins) {
    for (const PackItem& item : bin) {
      EXPECT_TRUE(seen.insert(item.id).second);
    }
  }
  EXPECT_EQ(seen.size(), 37u);
}

TEST(BinPackTest, LptBound) {
  // LPT guarantee: makespan <= (4/3 - 1/(3m)) * OPT >= lower bound.
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<PackItem> items;
    double total = 0, longest = 0;
    for (int i = 0; i < 30; ++i) {
      double w = 1.0 + rng.UniformDouble() * 99.0;
      items.push_back({i, w});
      total += w;
      longest = std::max(longest, w);
    }
    const int bins = 4;
    double lower = std::max(longest, total / bins);
    double makespan = MaxBinWeight(FirstFitDecreasing(items, bins));
    EXPECT_GE(makespan, lower - 1e-9);
    EXPECT_LE(makespan, (4.0 / 3.0) * lower + 1e-9);
  }
}

TEST(BinPackTest, FfdBeatsOrEqualsRoundRobinOnSkew) {
  // Power-law-ish weights: FFD should beat round-robin.
  std::vector<PackItem> items;
  for (int i = 0; i < 40; ++i) {
    items.push_back({i, 1000.0 / (1 + i)});
  }
  double ffd = MaxBinWeight(FirstFitDecreasing(items, 5));
  double rr = MaxBinWeight(RoundRobinPack(items, 5));
  EXPECT_LE(ffd, rr);
}

TEST(BinPackTest, MoreBinsThanItems) {
  std::vector<PackItem> items = {{0, 3.0}};
  auto bins = FirstFitDecreasing(items, 4);
  EXPECT_EQ(bins.size(), 4u);
  EXPECT_DOUBLE_EQ(MaxBinWeight(bins), 3.0);
}

// --- Registry ----------------------------------------------------------------

TEST(RegistryTest, UpsertGetAndIds) {
  data::RetailerData a, b;
  a.id = 5;
  b.id = 2;
  RetailerRegistry registry;
  EXPECT_EQ(registry.Get(5).status().code(), StatusCode::kNotFound);
  registry.Upsert(&a);
  registry.Upsert(&b);
  EXPECT_EQ(registry.size(), 2);
  EXPECT_TRUE(registry.Contains(5));
  EXPECT_FALSE(registry.Contains(9));
  EXPECT_EQ(*registry.Get(5), &a);
  EXPECT_EQ(registry.Ids(), (std::vector<data::RetailerId>{2, 5}));
  // Upsert replaces.
  data::RetailerData a2;
  a2.id = 5;
  registry.Upsert(&a2);
  EXPECT_EQ(*registry.Get(5), &a2);
  EXPECT_EQ(registry.size(), 2);
}

// --- SweepPlanner --------------------------------------------------------------

struct SweepFixture {
  data::WorldConfig config;
  data::WorldGenerator generator{[] {
    data::WorldConfig c;
    c.seed = 5;
    return c;
  }()};
  data::RetailerWorld r0 = generator.GenerateRetailer(0, 60);
  data::RetailerWorld r1 = generator.GenerateRetailer(1, 80);
  RetailerRegistry registry;

  SweepFixture() {
    registry.Upsert(&r0.data);
    registry.Upsert(&r1.data);
  }

  static SweepPlanner::Options SmallOptions() {
    SweepPlanner::Options options;
    options.grid.factors = {4, 8};
    options.grid.lambdas_v = {0.1, 0.01};
    options.grid.lambdas_vc = {0.1};
    options.grid.sweep_taxonomy = false;
    options.grid.sweep_brand = false;
    options.grid.num_epochs = 2;
    options.incremental_top_k = 2;
    options.shuffle = false;
    return options;
  }
};

TEST(SweepPlannerTest, FullSweepCoversAllRetailersAndConfigs) {
  SweepFixture f;
  SweepPlanner planner(SweepFixture::SmallOptions());
  auto plan = planner.PlanFullSweep(f.registry);
  EXPECT_EQ(plan.size(), 8u);  // 2 retailers x 4 configs
  std::map<data::RetailerId, int> per_retailer;
  for (const ConfigRecord& record : plan) {
    ++per_retailer[record.retailer];
    EXPECT_FALSE(record.warm_start);
    EXPECT_FALSE(record.trained);
    EXPECT_EQ(record.model_path,
              ModelPath(record.retailer, record.model_number));
  }
  EXPECT_EQ(per_retailer[0], 4);
  EXPECT_EQ(per_retailer[1], 4);
}

TEST(SweepPlannerTest, ShufflePermutesDeterministically) {
  SweepFixture f;
  SweepPlanner::Options options = SweepFixture::SmallOptions();
  options.shuffle = true;
  SweepPlanner planner(options);
  auto a = planner.PlanFullSweep(f.registry);
  auto b = planner.PlanFullSweep(f.registry);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].Key(), b[i].Key());
}

TEST(SweepPlannerTest, IncrementalKeepsTopKWarmStarted) {
  SweepFixture f;
  SweepPlanner planner(SweepFixture::SmallOptions());
  // Fake previous results: retailer 0 trained 4 models with metrics.
  std::vector<ConfigRecord> previous;
  for (int m = 0; m < 4; ++m) {
    ConfigRecord record;
    record.retailer = 0;
    record.model_number = m;
    record.model_path = ModelPath(0, m);
    record.trained = true;
    record.map_at_10 = 0.1 * m;  // model 3 best
    previous.push_back(record);
  }
  auto plan = planner.PlanIncrementalSweep(f.registry, previous);

  std::map<data::RetailerId, std::vector<const ConfigRecord*>> per_retailer;
  for (const ConfigRecord& record : plan) {
    per_retailer[record.retailer].push_back(&record);
  }
  // Retailer 0: top-2 models (3 and 2), warm-started, metrics reset.
  ASSERT_EQ(per_retailer[0].size(), 2u);
  std::set<int> models;
  for (const ConfigRecord* record : per_retailer[0]) {
    EXPECT_TRUE(record->warm_start);
    EXPECT_FALSE(record->trained);
    EXPECT_LT(record->map_at_10, 0.0);
    models.insert(record->model_number);
  }
  EXPECT_EQ(models, (std::set<int>{2, 3}));
  // Retailer 1 is new: full grid, cold-started.
  ASSERT_EQ(per_retailer[1].size(), 4u);
  for (const ConfigRecord* record : per_retailer[1]) {
    EXPECT_FALSE(record->warm_start);
  }
}

TEST(SweepPlannerTest, UntrainedPreviousRecordsIgnored) {
  SweepFixture f;
  SweepPlanner planner(SweepFixture::SmallOptions());
  ConfigRecord untrained;
  untrained.retailer = 0;
  untrained.trained = false;
  auto plan = planner.PlanIncrementalSweep(f.registry, {untrained});
  // Both retailers treated as new -> 8 records.
  EXPECT_EQ(plan.size(), 8u);
}

}  // namespace
}  // namespace sigmund::pipeline
