#include <thread>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "core/recommendation_batch.h"
#include "data/world_generator.h"
#include "data/serialization.h"
#include "pipeline/data_placement.h"
#include "pipeline/service.h"
#include "sfs/mem_filesystem.h"
#include "sfs/reliable_io.h"

namespace sigmund::pipeline {
namespace {

SigmundService::Options FastServiceOptions() {
  SigmundService::Options options;
  options.sweep.grid.factors = {4, 8};
  options.sweep.grid.lambdas_v = {0.1, 0.01};
  options.sweep.grid.lambdas_vc = {0.01};
  options.sweep.grid.sweep_taxonomy = false;
  options.sweep.grid.sweep_brand = false;
  options.sweep.grid.num_epochs = 3;
  options.sweep.incremental_top_k = 2;
  options.training.num_map_tasks = 4;
  options.training.max_parallel_tasks = 2;
  options.training.checkpoint_interval_seconds = 0.0;
  options.inference.inference.top_k = 5;
  return options;
}

struct ServiceFixture {
  data::WorldGenerator generator{[] {
    data::WorldConfig config;
    config.seed = 29;
    return config;
  }()};
  data::RetailerWorld r0 = generator.GenerateRetailer(0, 50);
  data::RetailerWorld r1 = generator.GenerateRetailer(1, 90);
  sfs::MemFileSystem fs;
  SigmundService service{&fs, FastServiceOptions()};

  ServiceFixture() {
    service.UpsertRetailer(&r0.data);
    service.UpsertRetailer(&r1.data);
  }
};

TEST(SigmundServiceTest, NoRetailersIsPrecondFailure) {
  sfs::MemFileSystem fs;
  SigmundService service(&fs, FastServiceOptions());
  EXPECT_EQ(service.RunDaily().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SigmundServiceTest, FirstRunIsFullSweepAndServes) {
  ServiceFixture f;
  StatusOr<DailyReport> report = f.service.RunDaily();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->full_sweep);
  EXPECT_EQ(report->retailers, 2);
  EXPECT_EQ(report->models_trained, 8);  // 2 retailers x 4 configs
  EXPECT_GT(report->mean_best_map, 0.0);
  EXPECT_EQ(f.service.store().num_retailers(), 2);
  EXPECT_EQ(f.service.store().num_items(), 140);

  // Serving works for an arbitrary context.
  auto recs = f.service.store().ServeContext(
      0, {{3, data::ActionType::kView}});
  ASSERT_TRUE(recs.ok());
  EXPECT_FALSE(recs->empty());
}

TEST(SigmundServiceTest, SecondRunIsIncrementalTopK) {
  ServiceFixture f;
  ASSERT_TRUE(f.service.RunDaily().ok());
  StatusOr<DailyReport> day2 = f.service.RunDaily();
  ASSERT_TRUE(day2.ok());
  EXPECT_FALSE(day2->full_sweep);
  EXPECT_EQ(day2->models_trained, 4);  // 2 retailers x top-2
  EXPECT_GT(day2->mean_best_map, 0.0);
  // Store re-loaded: version bumped.
  EXPECT_EQ(f.service.store().RetailerVersion(0), 2);
}

TEST(SigmundServiceTest, NewRetailerGetsFullGridInIncrementalRun) {
  ServiceFixture f;
  ASSERT_TRUE(f.service.RunDaily().ok());
  data::RetailerWorld r2 = f.generator.GenerateRetailer(2, 40);
  f.service.UpsertRetailer(&r2.data);
  StatusOr<DailyReport> day2 = f.service.RunDaily();
  ASSERT_TRUE(day2.ok());
  EXPECT_FALSE(day2->full_sweep);
  EXPECT_EQ(day2->new_retailers, 1);
  // 2 old retailers x 2 + new retailer x 4.
  EXPECT_EQ(day2->models_trained, 8);
  EXPECT_EQ(f.service.store().num_retailers(), 3);
}

TEST(SigmundServiceTest, ForceFullSweepRestarts) {
  ServiceFixture f;
  ASSERT_TRUE(f.service.RunDaily().ok());
  f.service.ForceFullSweep();
  StatusOr<DailyReport> report = f.service.RunDaily();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->full_sweep);
}

TEST(SigmundServiceTest, PeriodicFullSweepEveryNDays) {
  ServiceFixture f;
  SigmundService::Options options = FastServiceOptions();
  options.full_sweep_every_days = 2;
  sfs::MemFileSystem fs;
  SigmundService service(&fs, options);
  service.UpsertRetailer(&f.r0.data);
  auto day1 = service.RunDaily();
  ASSERT_TRUE(day1.ok());
  EXPECT_TRUE(day1->full_sweep);  // first run
  auto day2 = service.RunDaily();
  ASSERT_TRUE(day2.ok());
  EXPECT_FALSE(day2->full_sweep);
  auto day3 = service.RunDaily();
  ASSERT_TRUE(day3.ok());
  EXPECT_TRUE(day3->full_sweep);  // periodic restart
}

TEST(SigmundServiceTest, DailyDataArrivalImprovesOrKeepsQuality) {
  ServiceFixture f;
  auto day1 = f.service.RunDaily();
  ASSERT_TRUE(day1.ok());
  // New day of data + new items.
  data::AdvanceOneDay(f.generator, &f.r0, 5, 1001);
  data::AdvanceOneDay(f.generator, &f.r1, 5, 1002);
  f.service.UpsertRetailer(&f.r0.data);
  f.service.UpsertRetailer(&f.r1.data);
  auto day2 = f.service.RunDaily();
  ASSERT_TRUE(day2.ok());
  // New items are materialized too.
  EXPECT_EQ(f.service.store().num_items(), 140 + 10);
  auto recs = f.service.store().Lookup(
      0, 54, serving::RecommendationKind::kViewBased);  // a brand-new item
  ASSERT_TRUE(recs.ok());
}

TEST(SigmundServiceTest, SurvivesPreemptionsAndTaskFailures) {
  ServiceFixture f;
  SigmundService::Options options = FastServiceOptions();
  options.training.preemption_prob_per_epoch = 0.2;
  options.training.checkpoint_interval_seconds = 1.0;
  options.training.simulated_seconds_per_step = 1.0;
  options.training.map_task_failure_prob = 0.3;
  options.training.max_attempts_per_task = 30;
  sfs::MemFileSystem fs;
  SigmundService service(&fs, options);
  service.UpsertRetailer(&f.r0.data);
  service.UpsertRetailer(&f.r1.data);
  StatusOr<DailyReport> report = service.RunDaily();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->models_trained, 8);
  EXPECT_GT(report->preemptions + report->map_failures, 0);
  EXPECT_GT(report->mean_best_map, 0.0);
  EXPECT_EQ(service.store().num_retailers(), 2);
}

TEST(SigmundServiceTest, SweepResultsPersistedPerRetailer) {
  ServiceFixture f;
  ASSERT_TRUE(f.service.RunDaily().ok());
  for (data::RetailerId id : {0, 1}) {
    StatusOr<std::string> blob = f.fs.Read(SweepResultPath(id));
    ASSERT_TRUE(blob.ok());
    EXPECT_NE(blob->find("map="), std::string::npos);
  }
}


TEST(SigmundServiceTest, DataPlacementMigratesShardsOnce) {
  ServiceFixture f;
  SigmundService::Options options = FastServiceOptions();
  options.placement.cells = {"cell-a", "cell-b"};
  sfs::MemFileSystem fs;
  SigmundService service(&fs, options);
  service.UpsertRetailer(&f.r0.data);
  service.UpsertRetailer(&f.r1.data);

  auto day1 = service.RunDaily();
  ASSERT_TRUE(day1.ok());
  // Initial ingest uploads both shards.
  EXPECT_GT(day1->shard_bytes_moved, 0);
  // Shards exist and parse back.
  int found = 0;
  for (const std::string& cell : {std::string("cell-a"), std::string("cell-b")}) {
    for (data::RetailerId id : {0, 1}) {
      std::string path = DataPlacementPlanner::ShardPath(cell, id);
      if (fs.Exists(path)) {
        ++found;
        // Shards are checksummed frames now; unwrap before parsing.
        StatusOr<std::string> shard = sfs::ReadChecksummedFile(&fs, path);
        ASSERT_TRUE(shard.ok());
        EXPECT_TRUE(data::DeserializeRetailerData(*shard).ok());
      }
    }
  }
  EXPECT_EQ(found, 2);

  // Day 2 with unchanged data and stable placement: nothing moves.
  auto day2 = service.RunDaily();
  ASSERT_TRUE(day2.ok());
  EXPECT_EQ(day2->shard_bytes_moved, 0);
}

TEST(SigmundServiceTest, PlacementDisabledByDefault) {
  ServiceFixture f;
  auto day1 = f.service.RunDaily();
  ASSERT_TRUE(day1.ok());
  EXPECT_EQ(day1->shard_bytes_moved, 0);
  EXPECT_TRUE(f.fs.List("cells/")->empty());
}

// --- RecommendationStore ---------------------------------------------------

core::ItemRecommendations MakeRecs(data::ItemIndex query) {
  core::ItemRecommendations recs;
  recs.query = query;
  recs.view_based = {{query + 1, 0.9}, {query + 2, 0.5}};
  recs.purchase_based = {{query + 3, 0.7}};
  return recs;
}

TEST(RecommendationStoreTest, LookupByKind) {
  serving::RecommendationStore store;
  store.LoadRetailer(1, {MakeRecs(0), MakeRecs(1)});
  auto view = store.Lookup(1, 0, serving::RecommendationKind::kViewBased);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), 2u);
  EXPECT_EQ((*view)[0].item, 1);
  auto purchase =
      store.Lookup(1, 1, serving::RecommendationKind::kPurchaseBased);
  ASSERT_TRUE(purchase.ok());
  ASSERT_EQ(purchase->size(), 1u);
  EXPECT_EQ((*purchase)[0].item, 4);
}

TEST(RecommendationStoreTest, MissingRetailerOrItem) {
  serving::RecommendationStore store;
  EXPECT_EQ(store.Lookup(9, 0, serving::RecommendationKind::kViewBased)
                .status()
                .code(),
            StatusCode::kNotFound);
  store.LoadRetailer(1, {MakeRecs(0)});
  EXPECT_EQ(store.Lookup(1, 50, serving::RecommendationKind::kViewBased)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(RecommendationStoreTest, ServeContextPicksListByFunnelStage) {
  serving::RecommendationStore store;
  store.LoadRetailer(1, {MakeRecs(0)});
  auto pre = store.ServeContext(1, {{0, data::ActionType::kView}});
  ASSERT_TRUE(pre.ok());
  EXPECT_EQ((*pre)[0].item, 1);  // substitutes
  auto post = store.ServeContext(1, {{0, data::ActionType::kConversion}});
  ASSERT_TRUE(post.ok());
  EXPECT_EQ((*post)[0].item, 3);  // accessories
  // Uses the most recent context entry.
  auto mixed = store.ServeContext(
      1, {{5, data::ActionType::kView}, {0, data::ActionType::kCart}});
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ((*mixed)[0].item, 3);
  EXPECT_EQ(store.ServeContext(1, {}).status().code(),
            StatusCode::kInvalidArgument);
}

// --- DailyReport::ToString is a byte-stable format -----------------------

// Every field set to a distinct value, so a row printing the wrong field
// (or one field twice) shows up in the golden string.
DailyReport GoldenReport() {
  DailyReport r;
  r.full_sweep = true;
  r.retailers = 3;
  r.new_retailers = 2;
  r.models_trained = 17;
  r.mean_best_map = 0.123456;
  r.checkpoints_written = 101;
  r.preemptions = 102;
  r.restored_from_checkpoint = 103;
  r.model_loads = 104;
  r.items_scored = 105;
  r.map_attempts = 106;
  r.map_failures = 107;
  r.reduce_attempts = 108;
  r.reduce_failures = 109;
  r.quality_regressions = 4;
  r.degraded_retailers = 5;
  r.evictions = 110;
  r.eviction_grace_checkpoints = 111;
  r.hard_evictions = 112;
  r.priority_escalations = 113;
  r.preemption_budget_exhausted = 114;
  r.deadline_exceeded = 115;
  r.map_backup_attempts = 116;
  r.map_backups_won = 117;
  r.breaker_trips = 118;
  r.fallbacks_served = 119;
  r.replica_failovers = 120;
  r.hedged_reads = 121;
  r.requests_shed = 122;
  r.brownout_serves = 123;
  r.hedges_suppressed = 124;
  r.retry_budget_exhausted = 125;
  r.canary_samples_ignored = 126;
  r.retrieval_indexes_built = 6;
  r.retrieval_promotions = 127;
  r.retrieval_rollbacks = 128;
  r.corrupt_indexes_rejected = 129;
  r.requests_materialized = 130;
  r.requests_online_retrieval = 131;
  r.requests_fallback = 132;
  r.canary_promotions = 133;
  r.canary_rollbacks = 134;
  r.replica_cutovers = 135;
  r.replica_cutovers_skipped = 136;
  r.shard_bytes_moved = 137;
  r.feed_quarantines = 138;
  r.feed_warns = 139;
  r.quarantine_releases = 140;
  r.quarantined_retailers = 7;
  r.sfs_retries = 141;
  r.corruptions_detected = 142;
  r.corruptions_healed = 143;
  r.corrupt_checkpoints_skipped = 144;
  r.corrupt_batches_rejected = 145;
  r.faults_injected = 146;
  r.recovered_day = true;
  r.ledger_appends = 147;
  r.replay_units_skipped = 148;
  r.orphans_gc = 149;  // never printed
  r.stage_wall_micros = {{"train", 2500}, {"inference", 1234567}};
  r.total_wall_micros = 3210987;
  r.simulated_train_micros = 4500000;
  r.slo_alerts_fired = 150;
  r.slo_alerts_resolved = 151;
  r.slo_objectives_firing = 8;
  r.slo_json = "{}";
  r.profile_json = "{}";
  return r;
}

TEST(DailyReportTest, ToStringMatchesGolden) {
  EXPECT_EQ(
      GoldenReport().ToString(),
      "full sweep: retailers=3 (new=2) models=17 mean_best_map=0.1235 "
      "checkpoints=101 preemptions=102 restores=103 model_loads=104 "
      "items=105 map_attempts=106 map_failures=107 reduce_attempts=108 "
      "reduce_failures=109 quality_regressions=4 shard_bytes_moved=137 "
      "sfs_retries=141 corruptions_detected=142 corruptions_healed=143 "
      "corrupt_checkpoints_skipped=144 corrupt_batches_rejected=145 "
      "faults_injected=146\n"
      "  wall: total=3211.0ms train=2.5ms inference=1234.6ms "
      "(simulated_train=4.5s)\n"
      "  churn: evictions=110 grace_checkpoints=111 hard=112 "
      "escalations=113 budget_exhausted=114 deadline_exceeded=115 "
      "degraded_retailers=5 backups=116 backups_won=117 breaker_trips=118 "
      "fallbacks_served=119\n"
      "  rollout: canary_promotions=133 canary_rollbacks=134 "
      "replica_cutovers=135 cutovers_skipped=136 failovers=120 "
      "hedged_reads=121\n"
      "  retrieval: indexes_built=6 promotions=127 rollbacks=128 "
      "corrupt_rejected=129 requests(materialized=130 online_retrieval=131 "
      "fallback=132)\n"
      "  overload: shed=122 brownouts=123 hedges_suppressed=124 "
      "retry_budget_exhausted=125 canary_ignored=126\n"
      "  dataqual: quarantined=7 feed_quarantines=138 feed_warns=139 "
      "releases=140\n"
      "  ledger: appends=147 units_skipped=148 recovered=1\n"
      "  slo: firing=8 fired=150 resolved=151");

  // The wall, ledger and slo lines only print when they carry data.
  const std::string zero_body =
      "checkpoints=0 preemptions=0 restores=0 model_loads=0 items=0 "
      "map_attempts=0 map_failures=0 reduce_attempts=0 reduce_failures=0 "
      "quality_regressions=0 shard_bytes_moved=0 sfs_retries=0 "
      "corruptions_detected=0 corruptions_healed=0 "
      "corrupt_checkpoints_skipped=0 corrupt_batches_rejected=0 "
      "faults_injected=0\n"
      "  churn: evictions=0 grace_checkpoints=0 hard=0 escalations=0 "
      "budget_exhausted=0 deadline_exceeded=0 degraded_retailers=0 "
      "backups=0 backups_won=0 breaker_trips=0 fallbacks_served=0\n"
      "  rollout: canary_promotions=0 canary_rollbacks=0 replica_cutovers=0 "
      "cutovers_skipped=0 failovers=0 hedged_reads=0\n"
      "  retrieval: indexes_built=0 promotions=0 rollbacks=0 "
      "corrupt_rejected=0 requests(materialized=0 online_retrieval=0 "
      "fallback=0)\n"
      "  overload: shed=0 brownouts=0 hedges_suppressed=0 "
      "retry_budget_exhausted=0 canary_ignored=0\n"
      "  dataqual: quarantined=0 feed_quarantines=0 feed_warns=0 "
      "releases=0";
  DailyReport empty;
  EXPECT_EQ(empty.ToString(),
            "incremental sweep: retailers=0 (new=0) models=0 "
            "mean_best_map=0.0000 " +
                zero_body);
  DailyReport recovered;
  recovered.recovered_day = true;
  recovered.mean_best_map = 0.5;
  EXPECT_EQ(recovered.ToString(),
            "incremental sweep: retailers=0 (new=0) models=0 "
            "mean_best_map=0.5000 " +
                zero_body +
                "\n  ledger: appends=0 units_skipped=0 recovered=1");
}

TEST(RecommendationStoreTest, BatchLoadBumpsVersionAndSwapsAtomically) {
  serving::RecommendationStore store;
  EXPECT_EQ(store.RetailerVersion(1), 0);
  store.LoadRetailer(1, {MakeRecs(0)});
  EXPECT_EQ(store.RetailerVersion(1), 1);
  store.LoadRetailer(1, {MakeRecs(0), MakeRecs(1)});
  EXPECT_EQ(store.RetailerVersion(1), 2);
  EXPECT_EQ(store.num_items(), 2);
}

TEST(RecommendationStoreTest, LoadFromFileRoundTrip) {
  serving::RecommendationStore store;
  sfs::MemFileSystem fs;
  const std::string payload =
      core::RecommendationBatch::FromLists({MakeRecs(0), MakeRecs(1)})
          .Encode();
  ASSERT_TRUE(
      fs.Write("recommendations/r1", WriteChecksummedFrame(payload)).ok());
  ASSERT_TRUE(store.LoadRetailerFromFile(1, fs, "recommendations/r1").ok());
  auto recs = store.Lookup(1, 1, serving::RecommendationKind::kViewBased);
  ASSERT_TRUE(recs.ok());
  EXPECT_EQ((*recs)[0].item, 2);
  // Missing file and corrupt file both fail.
  EXPECT_FALSE(store.LoadRetailerFromFile(2, fs, "nope").ok());
  ASSERT_TRUE(fs.Write("bad", "garbage\n").ok());
  EXPECT_FALSE(store.LoadRetailerFromFile(2, fs, "bad").ok());
}

TEST(RecommendationStoreTest, ConcurrentReadersDuringBatchLoads) {
  serving::RecommendationStore store;
  store.LoadRetailer(1, {MakeRecs(0)});
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      auto recs =
          store.Lookup(1, 0, serving::RecommendationKind::kViewBased);
      if (recs.ok()) {
        ASSERT_EQ(recs->size(), 2u);
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    store.LoadRetailer(1, {MakeRecs(0)});
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(store.RetailerVersion(1), 201);
}

}  // namespace
}  // namespace sigmund::pipeline
