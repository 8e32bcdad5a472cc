// Safe-rollout ladder, end to end: the offline MAP gate cannot catch a
// recommendation batch that *evaluates* well but *serves* badly (poisoned
// materialization: intact checksums, garbage content). These tests push
// exactly that batch through the daily pipeline — while a replica dies in
// the middle of the staggered cutover — and require the canary to roll it
// back automatically, availability to hold at 100%, and same-seed reruns
// to be byte-identical.

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "common/metrics.h"
#include "core/recommendation_batch.h"
#include "data/world_generator.h"
#include "pipeline/canary.h"
#include "pipeline/service.h"
#include "sfs/mem_filesystem.h"

namespace sigmund::pipeline {
namespace {

// Items ranked by mean true affinity over the retailer's users, worst
// first. The head of this ranking is what a good model recommends; the
// tail is what a poisoned batch serves.
std::vector<data::ItemIndex> ItemsByMeanAffinity(
    const data::RetailerWorld& world) {
  std::vector<std::pair<double, data::ItemIndex>> scored;
  for (int item = 0; item < world.data.num_items(); ++item) {
    double sum = 0.0;
    for (int user = 0; user < world.data.num_users(); ++user) {
      sum += world.truth.Affinity(user, item);
    }
    scored.emplace_back(sum, static_cast<data::ItemIndex>(item));
  }
  std::sort(scored.begin(), scored.end());
  std::vector<data::ItemIndex> items;
  items.reserve(scored.size());
  for (const auto& [unused, item] : scored) items.push_back(item);
  return items;
}

std::vector<core::ScoredItem> MakeList(
    const std::vector<data::ItemIndex>& items) {
  std::vector<core::ScoredItem> list;
  double score = 1.0;
  for (data::ItemIndex item : items) {
    list.push_back({item, score});
    score -= 0.05;
  }
  return list;
}

// A batch serving the same list for every query item.
std::vector<core::ItemRecommendations> UniformBatch(
    int num_items, const std::vector<core::ScoredItem>& list) {
  std::vector<core::ItemRecommendations> batch;
  for (int q = 0; q < num_items; ++q) {
    core::ItemRecommendations recs;
    recs.query = q;
    recs.view_based = list;
    recs.purchase_based = list;
    recs.view_based_late = list;
    batch.push_back(std::move(recs));
  }
  return batch;
}

// SFS decorator that poisons reads of one recommendation batch: the bytes
// on "disk" stay intact (the inference job's write-side read-back verify
// passes untouched — the read right after a write of the target path is
// served verbatim), but the batch the serving loader stages has every
// list replaced with the retailer's globally least-liked items. Checksums
// are re-framed, so this is undetectable by integrity checks: only live
// signal can catch it.
class PoisoningFileSystem : public sfs::SharedFileSystem {
 public:
  explicit PoisoningFileSystem(sfs::SharedFileSystem* base) : base_(base) {}

  void Poison(const std::string& path, std::vector<core::ScoredItem> list) {
    target_ = path;
    poison_ = std::move(list);
  }
  int64_t poisoned_reads() const { return poisoned_reads_; }

  Status Write(const std::string& path, const std::string& data) override {
    if (path == target_) verify_pending_ = true;
    return base_->Write(path, data);
  }
  StatusOr<std::string> Read(const std::string& path) const override {
    StatusOr<std::string> blob = base_->Read(path);
    if (!blob.ok() || path != target_ || poison_.empty()) return blob;
    if (verify_pending_) {  // write-side read-back verify: pass through
      verify_pending_ = false;
      return blob;
    }
    ++poisoned_reads_;
    return PoisonBlob(*blob);
  }
  Status Delete(const std::string& path) override {
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
  std::string PoisonBlob(const std::string& stored) const {
    StatusOr<std::string> payload = ReadChecksummedFrame(stored);
    if (!payload.ok()) return stored;
    StatusOr<core::RecommendationBatch> batch =
        core::RecommendationBatch::Decode(*payload);
    if (!batch.ok()) return stored;
    std::vector<core::ItemRecommendations> poisoned(batch->num_items());
    for (data::ItemIndex q = 0; q < batch->num_items(); ++q) {
      poisoned[q].query = q;
      poisoned[q].view_based = poison_;
      poisoned[q].purchase_based = poison_;
      poisoned[q].view_based_late = poison_;
    }
    return WriteChecksummedFrame(
        core::RecommendationBatch::FromLists(poisoned).Encode());
  }

  sfs::SharedFileSystem* base_;
  std::string target_;
  std::vector<core::ScoredItem> poison_;
  mutable bool verify_pending_ = false;
  mutable int64_t poisoned_reads_ = 0;
};

struct RolloutFixture {
  data::WorldGenerator generator{[] {
    data::WorldConfig config;
    config.seed = 29;
    return config;
  }()};
  std::vector<data::RetailerWorld> worlds = {
      generator.GenerateRetailer(0, 50), generator.GenerateRetailer(1, 90)};

  SigmundService::Options Options() const {
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
    options.serving.num_replicas = 3;
    options.canary.enabled = true;
    options.canary.canary_fraction = 0.5;  // even arms: tight comparison
    // Day-over-day batches from honest retrains differ a little in
    // simulated CTR; the canary here must catch collapses (a poisoned
    // batch runs at a fraction of control CTR), not flag normal drift.
    options.canary.min_relative_ctr = 0.5;
    options.canary.early_stop_z = 4.0;
    options.canary.seed = 11;
    options.canary.oracle = [this](data::RetailerId id) {
      return &worlds[id].truth;
    };
    return options;
  }
};

// --- CanaryController in isolation --------------------------------------------

TEST(CanaryControllerTest, RollsBackBadBatchPromotesGoodOne) {
  RolloutFixture f;
  const data::RetailerWorld& world = f.worlds[0];
  std::vector<data::ItemIndex> by_affinity = ItemsByMeanAffinity(world);
  std::vector<core::ScoredItem> worst = MakeList(
      {by_affinity.begin(), by_affinity.begin() + 5});
  std::vector<core::ScoredItem> best = MakeList(
      {by_affinity.end() - 5, by_affinity.end()});

  serving::RecommendationStore store;
  store.LoadRetailer(0, UniformBatch(world.data.num_items(), best));

  obs::MetricRegistry metrics;
  CanaryController::Options options;
  options.enabled = true;
  options.canary_fraction = 0.5;
  options.seed = 7;
  options.oracle = [&](data::RetailerId) { return &world.truth; };
  CanaryController controller(options, &metrics);

  // A staged batch of the globally least-liked items: live CTR craters,
  // the canary rolls it back (its offline provenance is irrelevant).
  const int64_t bad = store.StageRetailer(
      0, UniformBatch(world.data.num_items(), worst));
  CanaryController::Outcome outcome =
      controller.Evaluate(0, store, bad, world.data, /*day=*/0);
  EXPECT_EQ(outcome.verdict, CanaryController::Verdict::kRolledBack);
  EXPECT_LT(outcome.CanaryCtr(), outcome.ControlCtr());
  EXPECT_GT(outcome.control_impressions, 0);
  EXPECT_GT(outcome.canary_impressions, 0);
  // Evaluate never mutates the store: the caller owns the discard.
  EXPECT_EQ(store.RetailerVersion(0), 1);

  // A staged batch as good as the active one promotes.
  const int64_t good = store.StageRetailer(
      0, UniformBatch(world.data.num_items(), best));
  CanaryController::Outcome promoted =
      controller.Evaluate(0, store, good, world.data, /*day=*/0);
  EXPECT_EQ(promoted.verdict, CanaryController::Verdict::kPromoted);

  obs::RegistrySnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("canary_verdicts_total",
                                  {{"verdict", "rolled_back"}}),
            1);
  EXPECT_EQ(snapshot.CounterValue("canary_verdicts_total",
                                  {{"verdict", "promoted"}}),
            1);
  EXPECT_GT(snapshot.CounterValue("canary_impressions_total",
                                  {{"arm", "canary"}}),
            0);

  // Deterministic: the same (seed, day, retailer) draws identical traffic.
  CanaryController::Outcome rerun =
      controller.Evaluate(0, store, bad, world.data, /*day=*/0);
  EXPECT_EQ(rerun.verdict, outcome.verdict);
  EXPECT_EQ(rerun.canary_impressions, outcome.canary_impressions);
  EXPECT_EQ(rerun.canary_clicks, outcome.canary_clicks);
  EXPECT_EQ(rerun.control_clicks, outcome.control_clicks);
  EXPECT_EQ(rerun.early_stopped, outcome.early_stopped);

  // Disabled (or oracle-less) controllers skip instead of guessing.
  CanaryController disabled(CanaryController::Options{}, &metrics);
  EXPECT_EQ(disabled.Evaluate(0, store, bad, world.data, 0).verdict,
            CanaryController::Verdict::kSkipped);
}

// --- Full service: clean days promote ----------------------------------------

TEST(RolloutChaosTest, CleanDaysPromoteEveryCanaryAndCutOverAllReplicas) {
  RolloutFixture f;
  sfs::MemFileSystem fs;
  SimClock clock;
  SigmundService::Options options = f.Options();
  options.clock = &clock;
  SigmundService service(&fs, options);
  service.UpsertRetailer(&f.worlds[0].data);
  service.UpsertRetailer(&f.worlds[1].data);

  // Day 1: first batches ship straight to 100% (nothing to canary
  // against) and fan out to both followers.
  StatusOr<DailyReport> day1 = service.RunDaily();
  ASSERT_TRUE(day1.ok()) << day1.status().ToString();
  EXPECT_EQ(day1->canary_promotions, 0);
  EXPECT_EQ(day1->canary_rollbacks, 0);
  EXPECT_EQ(day1->replica_cutovers, 4);  // 2 retailers x 2 followers

  // Day 2: each staged batch passes the canary and promotes; every
  // replica serves the new version.
  StatusOr<DailyReport> day2 = service.RunDaily();
  ASSERT_TRUE(day2.ok()) << day2.status().ToString();
  EXPECT_EQ(day2->canary_promotions, 2);
  EXPECT_EQ(day2->canary_rollbacks, 0);
  EXPECT_EQ(day2->replica_cutovers, 4);
  EXPECT_EQ(day2->replica_cutovers_skipped, 0);
  for (data::RetailerId id : {0, 1}) {
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(service.store_group()->replica(r)->RetailerVersion(id), 2)
          << "retailer " << id << " replica " << r;
    }
  }
  EXPECT_NE(day2->ToString().find("rollout: canary_promotions=2"),
            std::string::npos);
}

// --- The acceptance scenario --------------------------------------------------

// What one poisoned-day scenario leaves behind, for rerun comparison.
struct ScenarioResult {
  bool all_ok = false;
  std::vector<std::string> reports;
  std::map<data::RetailerId, int64_t> versions;
  std::string served_fingerprint;  // item ids served after the chaos day
  int64_t poisoned_reads = 0;
  int64_t failed_serves = 0;
  int64_t total_serves = 0;
};

TEST(RolloutChaosTest,
     PoisonedBatchAutoRollsBackWhileReplicaDiesMidCutover) {
  RolloutFixture f;
  std::vector<core::ScoredItem> poison =
      MakeList([&] {
        std::vector<data::ItemIndex> by_affinity =
            ItemsByMeanAffinity(f.worlds[0]);
        return std::vector<data::ItemIndex>(by_affinity.begin(),
                                            by_affinity.begin() + 5);
      }());

  auto run_scenario = [&]() {
    ScenarioResult result;
    sfs::MemFileSystem base;
    PoisoningFileSystem fs(&base);
    SimClock clock;
    SigmundService::Options options = f.Options();
    options.clock = &clock;
    SigmundService service(&fs, options);
    service.UpsertRetailer(&f.worlds[0].data);
    service.UpsertRetailer(&f.worlds[1].data);
    serving::ReplicatedStoreGroup* group = service.store_group();

    // Every serve attempted anywhere in the scenario must succeed.
    auto serve_everything = [&] {
      for (data::RetailerId id : {0, 1}) {
        for (data::ItemIndex item = 0; item < 20; ++item) {
          StatusOr<std::vector<core::ScoredItem>> list =
              group->ServeContext(id, {{item, data::ActionType::kView}});
          ++result.total_serves;
          if (!list.ok() || list->empty()) ++result.failed_serves;
        }
      }
    };

    // Day 1: clean, establishes v1 everywhere.
    StatusOr<DailyReport> day1 = service.RunDaily();
    if (!day1.ok()) {
      ADD_FAILURE() << day1.status().ToString();
      return result;
    }
    result.reports.push_back(day1->ToString());
    serve_everything();

    // Day 2's chaos: retailer 0's batch is poisoned between
    // materialization and serving load (checksums intact, offline MAP
    // unaffected — only live signal can catch it), and replica 2 dies in
    // the middle of the staggered cutover, under live traffic.
    fs.Poison(RecommendationPath(0), poison);
    group->SetCutoverHookForTesting(
        [&](data::RetailerId /*retailer*/, int replica) {
          EXPECT_EQ(group->ServingReplicas(), 2);  // one drained at a time
          if (replica == 2 && group->ReplicaAlive(2)) {
            group->KillReplica(2);  // dies while drained for cutover
          }
          serve_everything();  // capacity must absorb the drain + death
        });
    StatusOr<DailyReport> day2 = service.RunDaily();
    if (!day2.ok()) {
      ADD_FAILURE() << day2.status().ToString();
      return result;
    }
    result.reports.push_back(day2->ToString());
    serve_everything();

    for (data::RetailerId id : {0, 1}) {
      result.versions[id] = service.store().RetailerVersion(id);
      for (data::ItemIndex item = 0; item < 20; ++item) {
        StatusOr<std::vector<core::ScoredItem>> list =
            group->ServeContext(id, {{item, data::ActionType::kView}});
        ++result.total_serves;
        if (!list.ok() || list->empty()) {
          ++result.failed_serves;
          continue;
        }
        for (const core::ScoredItem& scored : *list) {
          result.served_fingerprint +=
              StrFormat("%d:%d ", id, scored.item);
        }
      }
    }
    result.poisoned_reads = fs.poisoned_reads();
    result.all_ok = true;
    return result;
  };

  ScenarioResult a = run_scenario();
  ASSERT_TRUE(a.all_ok);

  // The poison was actually read by the serving loader...
  EXPECT_GT(a.poisoned_reads, 0);
  // ...and the canary caught it: retailer 0 rolled back to day 1's batch,
  // retailer 1 promoted normally.
  EXPECT_EQ(a.versions[0], 1);
  EXPECT_EQ(a.versions[1], 2);
  EXPECT_NE(a.reports[1].find("canary_rollbacks=1"), std::string::npos);
  EXPECT_NE(a.reports[1].find("canary_promotions=1"), std::string::npos);
  // The mid-cutover death was absorbed: replica 2's cutover was skipped,
  // replica 1's went through.
  EXPECT_NE(a.reports[1].find("cutovers_skipped=1"), std::string::npos);
  // 100% availability: not one serve failed — before, during (drained
  // replica + dead replica), or after the chaos.
  EXPECT_GT(a.total_serves, 0);
  EXPECT_EQ(a.failed_serves, 0);

  // Byte-identical rerun: same seeds, same poison, same replica death —
  // same reports, same versions, same served items.
  ScenarioResult b = run_scenario();
  ASSERT_TRUE(b.all_ok);
  ASSERT_EQ(b.reports.size(), a.reports.size());
  for (size_t day = 0; day < a.reports.size(); ++day) {
    EXPECT_EQ(b.reports[day], a.reports[day]) << "day " << day;
  }
  EXPECT_EQ(b.versions, a.versions);
  EXPECT_EQ(b.served_fingerprint, a.served_fingerprint);
  EXPECT_EQ(b.poisoned_reads, a.poisoned_reads);
  EXPECT_EQ(b.failed_serves, 0);
}

}  // namespace
}  // namespace sigmund::pipeline
