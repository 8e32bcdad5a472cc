#include <gtest/gtest.h>

#include "data/world_generator.h"
#include "pipeline/quality_monitor.h"
#include "pipeline/service.h"
#include "serving/tiered_store.h"
#include "sfs/mem_filesystem.h"

namespace sigmund {
namespace {

// --- TieredStore ------------------------------------------------------------

core::ItemRecommendations MakeRecs(data::ItemIndex query) {
  core::ItemRecommendations recs;
  recs.query = query;
  recs.view_based = {{query + 1, 0.9}};
  recs.purchase_based = {{query + 2, 0.8}};
  return recs;
}

// 10 items; items 0..2 are "popular".
struct TieredFixture {
  sfs::MemFileSystem fs;
  std::vector<core::ItemRecommendations> recs;
  std::vector<int64_t> popularity;

  TieredFixture() {
    for (int i = 0; i < 10; ++i) {
      recs.push_back(MakeRecs(i));
      popularity.push_back(i < 3 ? 100 - i : 1);
    }
  }

  serving::TieredStore::Options SmallOptions() {
    serving::TieredStore::Options options;
    options.hot_fraction = 0.3;  // pins items 0..2
    options.cache_capacity = 2;
    return options;
  }
};

TEST(TieredStoreTest, HotItemsServedFromMemory) {
  TieredFixture f;
  serving::TieredStore store(&f.fs, f.SmallOptions());
  ASSERT_TRUE(store.LoadRetailer(1, f.recs, f.popularity).ok());
  auto result =
      store.Lookup(1, 0, serving::RecommendationKind::kViewBased);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0].item, 1);
  EXPECT_EQ(store.stats().memory_hits, 1);
  EXPECT_EQ(store.stats().flash_reads, 0);
}

TEST(TieredStoreTest, ColdItemsReadFlashThenCache) {
  TieredFixture f;
  serving::TieredStore store(&f.fs, f.SmallOptions());
  ASSERT_TRUE(store.LoadRetailer(1, f.recs, f.popularity).ok());
  // First access: flash read.
  auto a = store.Lookup(1, 7, serving::RecommendationKind::kViewBased);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)[0].item, 8);
  EXPECT_EQ(store.stats().flash_reads, 1);
  // Second access: LRU hit.
  auto b = store.Lookup(1, 7, serving::RecommendationKind::kPurchaseBased);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*b)[0].item, 9);
  EXPECT_EQ(store.stats().cache_hits, 1);
  EXPECT_EQ(store.stats().flash_reads, 1);
  EXPECT_GT(store.stats().simulated_flash_micros, 0);
}

TEST(TieredStoreTest, LruEvictsLeastRecentlyUsed) {
  TieredFixture f;
  serving::TieredStore store(&f.fs, f.SmallOptions());  // capacity 2
  ASSERT_TRUE(store.LoadRetailer(1, f.recs, f.popularity).ok());
  ASSERT_TRUE(store.Lookup(1, 5, serving::RecommendationKind::kViewBased).ok());
  ASSERT_TRUE(store.Lookup(1, 6, serving::RecommendationKind::kViewBased).ok());
  ASSERT_TRUE(store.Lookup(1, 7, serving::RecommendationKind::kViewBased).ok());
  // 5 was evicted; 7 and 6 cached.
  ASSERT_TRUE(store.Lookup(1, 5, serving::RecommendationKind::kViewBased).ok());
  EXPECT_EQ(store.stats().flash_reads, 4);  // 5,6,7,5-again
  ASSERT_TRUE(store.Lookup(1, 7, serving::RecommendationKind::kViewBased).ok());
  EXPECT_EQ(store.stats().cache_hits, 1);
}

TEST(TieredStoreTest, ReloadInvalidatesCache) {
  TieredFixture f;
  serving::TieredStore store(&f.fs, f.SmallOptions());
  ASSERT_TRUE(store.LoadRetailer(1, f.recs, f.popularity).ok());
  ASSERT_TRUE(store.Lookup(1, 8, serving::RecommendationKind::kViewBased).ok());
  // New batch with different lists.
  std::vector<core::ItemRecommendations> fresh = f.recs;
  fresh[8].view_based = {{0, 1.0}};
  ASSERT_TRUE(store.LoadRetailer(1, fresh, f.popularity).ok());
  auto result =
      store.Lookup(1, 8, serving::RecommendationKind::kViewBased);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0].item, 0);  // not the stale cached value
}

TEST(TieredStoreTest, FootprintReflectsHotFraction) {
  TieredFixture f;
  serving::TieredStore store(&f.fs, f.SmallOptions());
  ASSERT_TRUE(store.LoadRetailer(1, f.recs, f.popularity).ok());
  auto footprint = store.RetailerFootprint(1);
  ASSERT_TRUE(footprint.ok());
  EXPECT_EQ(footprint->hot_items, 3);
  EXPECT_EQ(footprint->flash_items, 10);
  EXPECT_FALSE(store.RetailerFootprint(2).ok());
}

TEST(TieredStoreTest, RepeatedReloadsKeepFlashFileCountBounded) {
  TieredFixture f;
  serving::TieredStore store(&f.fs, f.SmallOptions());
  for (int reload = 0; reload < 8; ++reload) {
    ASSERT_TRUE(store.LoadRetailer(1, f.recs, f.popularity).ok());
    // Stale versions are GC'd wholesale: the flash tier never holds more
    // than one file per catalog item.
    StatusOr<std::vector<std::string>> files =
        f.fs.List(serving::TieredStore::FlashRoot(1));
    ASSERT_TRUE(files.ok());
    EXPECT_EQ(files->size(), f.recs.size()) << "after reload " << reload;
  }
  // And the surviving files are the live version's: cold lookups work.
  auto result = store.Lookup(1, 7, serving::RecommendationKind::kViewBased);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0].item, 8);
}

// Deletes that fail transiently are retried on the next load instead of
// leaking stale files forever.
class FlakyDeleteFs : public sfs::SharedFileSystem {
 public:
  explicit FlakyDeleteFs(sfs::SharedFileSystem* base) : base_(base) {}
  bool fail_deletes = false;

  Status Write(const std::string& path, const std::string& data) override {
    return base_->Write(path, data);
  }
  StatusOr<std::string> Read(const std::string& path) const override {
    return base_->Read(path);
  }
  Status Delete(const std::string& path) override {
    if (fail_deletes) return UnavailableError("flaky delete");
    return base_->Delete(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
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
};

TEST(TieredStoreTest, FailedGcDeletesAreRetriedOnNextLoad) {
  TieredFixture f;
  FlakyDeleteFs fs(&f.fs);
  serving::TieredStore store(&fs, f.SmallOptions());
  ASSERT_TRUE(store.LoadRetailer(1, f.recs, f.popularity).ok());

  // The reload's GC pass can't delete anything: both versions linger.
  fs.fail_deletes = true;
  ASSERT_TRUE(store.LoadRetailer(1, f.recs, f.popularity).ok());
  StatusOr<std::vector<std::string>> files =
      f.fs.List(serving::TieredStore::FlashRoot(1));
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 2 * f.recs.size());

  // Storage heals; the next load drains the pending GC queue too.
  fs.fail_deletes = false;
  ASSERT_TRUE(store.LoadRetailer(1, f.recs, f.popularity).ok());
  files = f.fs.List(serving::TieredStore::FlashRoot(1));
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), f.recs.size());
}

TEST(TieredStoreTest, MissingRetailerOrItem) {
  TieredFixture f;
  serving::TieredStore store(&f.fs, f.SmallOptions());
  EXPECT_EQ(store.Lookup(1, 0, serving::RecommendationKind::kViewBased)
                .status()
                .code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(store.LoadRetailer(1, f.recs, f.popularity).ok());
  EXPECT_EQ(store.Lookup(1, 99, serving::RecommendationKind::kViewBased)
                .status()
                .code(),
            StatusCode::kNotFound);
}

// --- QualityMonitor -----------------------------------------------------------

TEST(QualityMonitorTest, FirstObservationAlwaysAccepted) {
  obs::MetricRegistry metrics;
  pipeline::QualityMonitor monitor(pipeline::QualityMonitor::Options(),
                                   &metrics);
  EXPECT_EQ(monitor.Record(1, 0.0),
            pipeline::QualityMonitor::Verdict::kFirstObservation);
  EXPECT_EQ(monitor.days_observed(1), 1);
}

TEST(QualityMonitorTest, StableQualityIsOk) {
  obs::MetricRegistry metrics;
  pipeline::QualityMonitor monitor(pipeline::QualityMonitor::Options(),
                                   &metrics);
  monitor.Record(1, 0.30);
  EXPECT_EQ(monitor.Record(1, 0.28), pipeline::QualityMonitor::Verdict::kOk);
  EXPECT_EQ(monitor.Record(1, 0.33), pipeline::QualityMonitor::Verdict::kOk);
  EXPECT_DOUBLE_EQ(monitor.TrailingBest(1), 0.33);
}

TEST(QualityMonitorTest, LargeDropFlagged) {
  obs::MetricRegistry metrics;
  pipeline::QualityMonitor monitor(pipeline::QualityMonitor::Options(),
                                   &metrics);
  monitor.Record(1, 0.30);
  EXPECT_EQ(monitor.Record(1, 0.10),
            pipeline::QualityMonitor::Verdict::kRegressed);
  // Regressed observations still enter history.
  EXPECT_EQ(monitor.days_observed(1), 2);
}

TEST(QualityMonitorTest, NoiseFloorPassesEverything) {
  pipeline::QualityMonitor::Options options;
  options.min_meaningful_map = 0.05;
  obs::MetricRegistry metrics;
  pipeline::QualityMonitor monitor(options, &metrics);
  monitor.Record(1, 0.004);
  // 0.001 is an 75% drop but the baseline is noise.
  EXPECT_EQ(monitor.Record(1, 0.001), pipeline::QualityMonitor::Verdict::kOk);
}

TEST(QualityMonitorTest, HistoryWindowAgesOut) {
  pipeline::QualityMonitor::Options options;
  options.history_days = 2;
  obs::MetricRegistry metrics;
  pipeline::QualityMonitor monitor(options, &metrics);
  monitor.Record(1, 0.40);
  monitor.Record(1, 0.15);  // regressed vs 0.40
  monitor.Record(1, 0.15);  // 0.40 still in window? history=[0.40,0.15] ->
                            // regressed again; now window [0.15, 0.15]
  // The old plateau has aged out: 0.15 is the new normal.
  EXPECT_EQ(monitor.Record(1, 0.15), pipeline::QualityMonitor::Verdict::kOk);
}

// Plateau behavior: a *persistent* regression keeps getting flagged only
// while the old peak is inside the trailing window. Once the window slides
// past it, the lower plateau is the new baseline — the guard protects
// against sudden drops, not against a world that genuinely got harder.
TEST(QualityMonitorTest, PersistentRegressionBecomesNewBaseline) {
  pipeline::QualityMonitor::Options options;
  options.history_days = 3;
  options.max_relative_drop = 0.5;
  obs::MetricRegistry metrics;
  pipeline::QualityMonitor monitor(options, &metrics);

  monitor.Record(1, 0.40);
  monitor.Record(1, 0.42);
  monitor.Record(1, 0.41);
  EXPECT_DOUBLE_EQ(monitor.TrailingBest(1), 0.42);

  // The metric collapses to 0.12 and stays there. While any old-peak day
  // is still in the 3-day window, every new day is flagged...
  EXPECT_EQ(monitor.Record(1, 0.12),
            pipeline::QualityMonitor::Verdict::kRegressed);  // best is .42
  EXPECT_EQ(monitor.Record(1, 0.12),
            pipeline::QualityMonitor::Verdict::kRegressed);  // .42 in window
  EXPECT_EQ(monitor.Record(1, 0.12),
            pipeline::QualityMonitor::Verdict::kRegressed);  // .41 in window
  // ...and once the window holds nothing but the plateau, 0.12 is normal.
  EXPECT_EQ(monitor.Record(1, 0.12), pipeline::QualityMonitor::Verdict::kOk);
  EXPECT_DOUBLE_EQ(monitor.TrailingBest(1), 0.12);
  // Recovery from the plateau is of course fine too.
  EXPECT_EQ(monitor.Record(1, 0.35), pipeline::QualityMonitor::Verdict::kOk);
}

TEST(QualityMonitorTest, RetailersIndependent) {
  obs::MetricRegistry metrics;
  pipeline::QualityMonitor monitor(pipeline::QualityMonitor::Options(),
                                   &metrics);
  monitor.Record(1, 0.5);
  EXPECT_EQ(monitor.Record(2, 0.01),
            pipeline::QualityMonitor::Verdict::kFirstObservation);
  EXPECT_EQ(monitor.Record(2, 0.012), pipeline::QualityMonitor::Verdict::kOk);
}

// --- Service integration -------------------------------------------------------

TEST(QualityGuardServiceTest, RegressedRetailerKeepsPreviousBatch) {
  data::WorldConfig config;
  config.seed = 47;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, 80);

  sfs::MemFileSystem fs;
  pipeline::SigmundService::Options options;
  options.sweep.grid.factors = {8};
  options.sweep.grid.lambdas_v = {0.01};
  options.sweep.grid.lambdas_vc = {0.01};
  options.sweep.grid.sweep_taxonomy = false;
  options.sweep.grid.sweep_brand = false;
  options.sweep.grid.num_epochs = 4;
  options.training.num_map_tasks = 2;
  options.training.max_parallel_tasks = 1;
  options.guard_quality = true;
  options.quality.max_relative_drop = 0.5;

  pipeline::SigmundService service(&fs, options);
  service.UpsertRetailer(&world.data);
  auto day1 = service.RunDaily();
  ASSERT_TRUE(day1.ok());
  EXPECT_EQ(day1->quality_regressions, 0);
  EXPECT_EQ(service.store().RetailerVersion(0), 1);
  ASSERT_GT(day1->mean_best_map, 0.02);

  // Disaster: the retailer's feed breaks and histories collapse to single
  // events (no hold-out, no signal) -> best MAP crashes to 0.
  data::RetailerData broken;
  broken.id = 0;
  broken.catalog = world.data.catalog;
  broken.histories.resize(world.data.num_users());
  for (int u = 0; u < world.data.num_users(); ++u) {
    if (!world.data.histories[u].empty()) {
      broken.histories[u] = {world.data.histories[u].front()};
    }
  }
  service.UpsertRetailer(&broken);
  auto day2 = service.RunDaily();
  ASSERT_TRUE(day2.ok());
  EXPECT_EQ(day2->quality_regressions, 1);
  // The store kept day 1's batch (version unchanged).
  EXPECT_EQ(service.store().RetailerVersion(0), 1);
  EXPECT_EQ(service.quality_monitor().days_observed(0), 2);
}

TEST(QualityGuardServiceTest, GuardCanBeDisabled) {
  data::WorldConfig config;
  config.seed = 48;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, 60);

  sfs::MemFileSystem fs;
  pipeline::SigmundService::Options options;
  options.sweep.grid.factors = {8};
  options.sweep.grid.lambdas_v = {0.01};
  options.sweep.grid.lambdas_vc = {0.01};
  options.sweep.grid.sweep_taxonomy = false;
  options.sweep.grid.sweep_brand = false;
  options.sweep.grid.num_epochs = 3;
  options.training.num_map_tasks = 2;
  options.training.max_parallel_tasks = 1;
  options.guard_quality = false;

  pipeline::SigmundService service(&fs, options);
  service.UpsertRetailer(&world.data);
  ASSERT_TRUE(service.RunDaily().ok());
  auto day2 = service.RunDaily();
  ASSERT_TRUE(day2.ok());
  EXPECT_EQ(day2->quality_regressions, 0);
  EXPECT_EQ(service.store().RetailerVersion(0), 2);  // always reloaded
}

}  // namespace
}  // namespace sigmund
