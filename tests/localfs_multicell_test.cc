#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "counter_total.h"
#include "data/world_generator.h"
#include "pipeline/checkpoint.h"
#include "pipeline/sweep.h"
#include "pipeline/training_job.h"
#include "sfs/local_filesystem.h"
#include "sfs/mem_filesystem.h"

namespace sigmund {
namespace {

// --- LocalDirFileSystem ------------------------------------------------------

// A unique scratch directory per test run.
std::string ScratchRoot() {
  static int counter = 0;
  std::string root =
      StrFormat("/tmp/sigmund_localfs_test_%d_%d", ::getpid(), counter++);
  return root;
}

TEST(LocalDirFileSystemTest, EncodeDecodeRoundTrip) {
  for (const std::string& path :
       {std::string("models/r1/m001"), std::string("a b%c/d"),
        std::string("plain"), std::string("..//..")}) {
    std::string encoded = sfs::LocalDirFileSystem::Encode(path);
    // Encoded names are flat and shell-safe.
    EXPECT_EQ(encoded.find('/'), std::string::npos);
    StatusOr<std::string> decoded = sfs::LocalDirFileSystem::Decode(encoded);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, path);
  }
  EXPECT_FALSE(sfs::LocalDirFileSystem::Decode("%zz").ok());
  EXPECT_FALSE(sfs::LocalDirFileSystem::Decode("%2").ok());
}

TEST(LocalDirFileSystemTest, WriteReadDeleteRenameList) {
  sfs::LocalDirFileSystem fs(ScratchRoot());
  ASSERT_TRUE(fs.Write("models/r1/ckpt", "payload").ok());
  ASSERT_TRUE(fs.Write("models/r1/best", "").ok());  // empty file
  ASSERT_TRUE(fs.Write("other/x", "y").ok());

  EXPECT_EQ(*fs.Read("models/r1/ckpt"), "payload");
  EXPECT_EQ(*fs.Read("models/r1/best"), "");
  EXPECT_EQ(*fs.FileSize("models/r1/ckpt"), 7);
  EXPECT_TRUE(fs.Exists("other/x"));
  EXPECT_FALSE(fs.Exists("nope"));
  EXPECT_EQ(fs.Read("nope").status().code(), StatusCode::kNotFound);

  EXPECT_EQ(*fs.List("models/"),
            (std::vector<std::string>{"models/r1/best", "models/r1/ckpt"}));

  ASSERT_TRUE(fs.Rename("models/r1/ckpt", "models/r1/final").ok());
  EXPECT_FALSE(fs.Exists("models/r1/ckpt"));
  EXPECT_EQ(*fs.Read("models/r1/final"), "payload");
  EXPECT_EQ(fs.Rename("gone", "x").code(), StatusCode::kNotFound);

  ASSERT_TRUE(fs.Delete("other/x").ok());
  EXPECT_EQ(fs.Delete("other/x").code(), StatusCode::kNotFound);
}

TEST(LocalDirFileSystemTest, PersistsAcrossInstances) {
  std::string root = ScratchRoot();
  {
    sfs::LocalDirFileSystem fs(root);
    ASSERT_TRUE(fs.Write("durable", "still here").ok());
  }
  sfs::LocalDirFileSystem fs2(root);
  EXPECT_EQ(*fs2.Read("durable"), "still here");
}

TEST(LocalDirFileSystemTest, BinaryPayloadSafe) {
  sfs::LocalDirFileSystem fs(ScratchRoot());
  std::string binary;
  for (int c = 0; c < 256; ++c) binary.push_back(static_cast<char>(c));
  ASSERT_TRUE(fs.Write("bin", binary).ok());
  EXPECT_EQ(*fs.Read("bin"), binary);
}

TEST(LocalDirFileSystemTest, WorksAsCheckpointBackend) {
  // The pipeline's checkpoint flow (write tmp + rename + list) works on
  // the on-disk implementation exactly as on the in-memory one.
  data::WorldConfig config;
  config.seed = 3;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, 40);
  core::HyperParams params;
  params.num_factors = 4;
  core::BprModel model(&world.data.catalog, params);
  Rng rng(1);
  model.InitRandom(&rng);

  sfs::LocalDirFileSystem fs(ScratchRoot());
  SimClock clock;
  pipeline::CheckpointManager manager(&fs, &clock, "ck/r0", 1.0);
  ASSERT_TRUE(manager.ForceCheckpoint(model, 3).ok());
  ASSERT_TRUE(manager.ForceCheckpoint(model, 4).ok());
  EXPECT_EQ(fs.List("ck/r0/ckpt.")->size(), 1u);  // keep-latest GC
  auto restored = manager.Restore(&world.data.catalog);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->epoch, 4);
}

// --- MultiCellTrainingJob ------------------------------------------------------

struct MultiCellFixture {
  data::WorldGenerator generator{[] {
    data::WorldConfig config;
    config.seed = 19;
    return config;
  }()};
  data::RetailerWorld r0 = generator.GenerateRetailer(0, 50);
  data::RetailerWorld r1 = generator.GenerateRetailer(1, 90);
  data::RetailerWorld r2 = generator.GenerateRetailer(2, 60);
  pipeline::RetailerRegistry registry;
  sfs::MemFileSystem fs;
  obs::MetricRegistry metrics;

  MultiCellFixture() {
    registry.Upsert(&r0.data);
    registry.Upsert(&r1.data);
    registry.Upsert(&r2.data);
  }

  std::vector<pipeline::ConfigRecord> Plan() {
    pipeline::SweepPlanner::Options options;
    options.grid.factors = {4, 8};
    options.grid.lambdas_v = {0.01};
    options.grid.lambdas_vc = {0.01};
    options.grid.sweep_taxonomy = false;
    options.grid.sweep_brand = false;
    options.grid.num_epochs = 2;
    pipeline::SweepPlanner planner(options);
    return planner.PlanFullSweep(registry);
  }
};

TEST(MultiCellTrainingJobTest, RoutesByDataHomeAndMergesResults) {
  MultiCellFixture f;
  pipeline::MultiCellTrainingJob::Options options;
  options.cells = {"cell-a", "cell-b"};
  options.per_cell.num_map_tasks = 2;
  options.per_cell.max_parallel_tasks = 1;
  options.per_cell.checkpoint_interval_seconds = 0;
  options.per_cell.metrics = &f.metrics;
  pipeline::MultiCellTrainingJob job(&f.fs, &f.registry, options);

  std::map<data::RetailerId, std::string> homes = {
      {0, "cell-a"}, {1, "cell-b"}};  // retailer 2 unplaced -> cell-a
  auto results = job.Run(f.Plan(), homes);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 6u);  // 3 retailers x 2 configs
  std::set<std::string> keys;
  for (const pipeline::ConfigRecord& record : *results) {
    EXPECT_TRUE(record.trained);
    EXPECT_TRUE(keys.insert(record.Key()).second);
    EXPECT_TRUE(f.fs.Exists(record.model_path));
  }
  // Sorted merged output.
  for (size_t i = 1; i < results->size(); ++i) {
    EXPECT_LT((*results)[i - 1].Key(), (*results)[i].Key());
  }
  // Per-cell series: cell-a trained retailers 0 and 2 (4 models), cell-b
  // trained retailer 1 (2 models); each model is one output record.
  auto models_trained = [&f](const std::string& job_label) {
    return testutil::CounterTotal(f.metrics, "mapreduce_records_total",
                                  {{"job", job_label}, {"kind", "output"}});
  };
  EXPECT_EQ(models_trained("training/cell-a"), 4);
  EXPECT_EQ(models_trained("training/cell-b"), 2);
}

TEST(MultiCellTrainingJobTest, MatchesSingleJobResults) {
  MultiCellFixture f;
  std::vector<pipeline::ConfigRecord> plan = f.Plan();

  pipeline::TrainingJob::Options single_options;
  single_options.num_map_tasks = 2;
  single_options.max_parallel_tasks = 1;
  single_options.checkpoint_interval_seconds = 0;
  single_options.metrics = &f.metrics;
  pipeline::TrainingJob single(&f.fs, &f.registry, single_options);
  auto single_results = single.Run(plan);
  ASSERT_TRUE(single_results.ok());

  pipeline::MultiCellTrainingJob::Options options;
  options.cells = {"cell-a", "cell-b", "cell-c"};
  options.per_cell = single_options;
  pipeline::MultiCellTrainingJob multi(&f.fs, &f.registry, options);
  std::map<data::RetailerId, std::string> homes = {
      {0, "cell-a"}, {1, "cell-b"}, {2, "cell-c"}};
  auto multi_results = multi.Run(plan, homes);
  ASSERT_TRUE(multi_results.ok());

  // Training is deterministic per (record, single-thread), so the metrics
  // agree regardless of how the job was partitioned across cells.
  ASSERT_EQ(single_results->size(), multi_results->size());
  std::map<std::string, double> single_map;
  for (const pipeline::ConfigRecord& record : *single_results) {
    single_map[record.Key()] = record.map_at_10;
  }
  for (const pipeline::ConfigRecord& record : *multi_results) {
    EXPECT_DOUBLE_EQ(single_map[record.Key()], record.map_at_10)
        << record.Key();
  }
}

TEST(MultiCellTrainingJobTest, NoCellsRejected) {
  MultiCellFixture f;
  pipeline::MultiCellTrainingJob job(&f.fs, &f.registry, {});
  EXPECT_EQ(job.Run(f.Plan(), {}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sigmund
