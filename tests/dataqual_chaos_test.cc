// Poisoned-feed chaos (DESIGN.md §12): a multi-retailer, multi-day run
// where the FeedCorruptor poisons specific retailer-days with four
// distinct corruption modes. The acceptance bar, end to end:
//
//   1. No corrupted feed's model or ANN index is ever promoted — the
//      poisoned retailer's serving version and retrieval version are
//      frozen at last-known-good for the whole quarantined stretch.
//   2. Every quarantined retailer still serves (zero failed serves).
//   3. A retailer whose feed is never poisoned ends the scenario with
//      recommendation bytes identical to a fault-free run.
//   4. Two same-seed poisoned runs are byte-identical, reports included.
//   5. Clean feeds release the quarantine and the pipeline resumes
//      warm-started (no full-grid cold start on the release day).

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "data/world_generator.h"
#include "dataqual/corruptor.h"
#include "pipeline/config_record.h"
#include "pipeline/service.h"
#include "retrieval/artifact.h"
#include "serving/store.h"
#include "sfs/mem_filesystem.h"

namespace sigmund::dataqual {
namespace {

constexpr int kDays = 6;
constexpr int kRetailers = 3;
// The poison schedule: (day, retailer) -> corruption. Retailer 1 is never
// poisoned — it is the byte-identity control. Day 0 and the last day are
// clean everywhere so every quarantine opens and closes inside the run.
const std::map<int, std::map<data::RetailerId, Corruption>>& Schedule() {
  static const auto* schedule =
      new std::map<int, std::map<data::RetailerId, Corruption>>{
          {1, {{0, Corruption::kDuplicateEvents}}},
          {2, {{2, Corruption::kBotFlood}}},
          {3, {{0, Corruption::kCatalogTruncation}}},
          {4, {{2, Corruption::kTimestampScramble}}},
      };
  return *schedule;
}

Corruption PlannedCorruption(int day, data::RetailerId retailer) {
  auto day_it = Schedule().find(day);
  if (day_it == Schedule().end()) return Corruption::kNone;
  auto it = day_it->second.find(retailer);
  return it == day_it->second.end() ? Corruption::kNone : it->second;
}

pipeline::SigmundService::Options BaseOptions() {
  pipeline::SigmundService::Options options;
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
  options.dataqual.enabled = true;
  options.retrieval.enabled = true;
  return options;
}

struct RunResult {
  std::vector<pipeline::DailyReport> reports;
  // Per-day, per-retailer version trails.
  std::vector<std::map<data::RetailerId, int64_t>> store_versions;
  std::vector<std::map<data::RetailerId, int64_t>> index_versions;
  // Durable end-state bytes, straight from the filesystem.
  std::map<data::RetailerId, std::string> recommendation_bytes;
  std::map<data::RetailerId, std::string> index_bytes;
  int64_t failed_serves = 0;
};

// Runs the whole scenario. `poison` toggles the corruption schedule; the
// world evolution (generator seeds, AdvanceOneDay seeds) is identical
// either way.
RunResult RunScenario(bool poison) {
  data::WorldConfig config;
  config.seed = 47;
  data::WorldGenerator generator(config);
  std::vector<data::RetailerWorld> worlds;
  worlds.push_back(generator.GenerateRetailer(0, 120));
  worlds.push_back(generator.GenerateRetailer(1, 100));
  worlds.push_back(generator.GenerateRetailer(2, 140));

  FeedCorruptor::Options corruptor_options;
  corruptor_options.seed = 777;
  FeedCorruptor corruptor(corruptor_options);

  sfs::MemFileSystem fs;
  // A SimClock keeps every timing field in the reports deterministic, so
  // same-seed reruns can compare report strings byte-for-byte.
  SimClock clock;
  pipeline::SigmundService::Options options = BaseOptions();
  options.clock = &clock;
  pipeline::SigmundService service(&fs, options);

  RunResult result;
  // Poisoned copies must outlive the day's RunDaily (the registry borrows
  // pointers), and re-registering the clean data afterwards restores the
  // borrow to the world struct.
  std::vector<data::RetailerData> poisoned_copies;
  for (int day = 0; day < kDays; ++day) {
    if (day > 0) {
      for (auto& world : worlds) {
        data::AdvanceOneDay(generator, &world, /*new_items=*/2,
                            /*seed=*/500 + day);
      }
    }
    poisoned_copies.clear();
    poisoned_copies.reserve(kRetailers);
    for (auto& world : worlds) {
      const Corruption mode =
          poison ? PlannedCorruption(day, world.data.id) : Corruption::kNone;
      if (mode != Corruption::kNone) {
        poisoned_copies.push_back(
            corruptor.Apply(world.data, mode, world.data.id, day));
        service.UpsertRetailer(&poisoned_copies.back());
      } else {
        service.UpsertRetailer(&world.data);
      }
    }
    StatusOr<pipeline::DailyReport> report = service.RunDaily();
    EXPECT_TRUE(report.ok()) << "day " << day << ": "
                             << report.status().ToString();
    if (!report.ok()) return result;
    result.reports.push_back(*std::move(report));

    std::map<data::RetailerId, int64_t> store_versions, index_versions;
    for (data::RetailerId id = 0; id < kRetailers; ++id) {
      store_versions[id] = service.store().RetailerVersion(id);
      index_versions[id] = service.retrieval_reader()->RetailerVersion(id);
      // Zero failed serves, quarantined or not: the last-known-good batch
      // answers every day.
      if (!service.store()
               .Lookup(id, 0, serving::RecommendationKind::kViewBased)
               .ok()) {
        ++result.failed_serves;
      }
    }
    result.store_versions.push_back(std::move(store_versions));
    result.index_versions.push_back(std::move(index_versions));
  }

  for (data::RetailerId id = 0; id < kRetailers; ++id) {
    StatusOr<std::string> recs = fs.Read(pipeline::RecommendationPath(id));
    result.recommendation_bytes[id] = recs.ok() ? *recs : "<unreadable>";
    StatusOr<std::string> index = fs.Read(retrieval::IndexArtifactVersionPath(
        id, service.retrieval_reader()->RetailerVersion(id)));
    result.index_bytes[id] = index.ok() ? *index : "<unreadable>";
  }
  return result;
}

TEST(DataQualChaosTest, PoisonedFeedsNeverPromoteAndHealthyBytesMatch) {
  const RunResult clean = RunScenario(/*poison=*/false);
  const RunResult poisoned = RunScenario(/*poison=*/true);
  ASSERT_EQ(clean.reports.size(), static_cast<size_t>(kDays));
  ASSERT_EQ(poisoned.reports.size(), static_cast<size_t>(kDays));

  // The chaos actually happened: every scheduled poisoning quarantined.
  for (int day = 0; day < kDays; ++day) {
    int64_t expected = 0;
    for (data::RetailerId id = 0; id < kRetailers; ++id) {
      if (PlannedCorruption(day, id) != Corruption::kNone) ++expected;
    }
    EXPECT_EQ(poisoned.reports[day].feed_quarantines, expected)
        << "day " << day;
    EXPECT_EQ(clean.reports[day].feed_quarantines, 0) << "day " << day;
  }

  // 1. No corrupted feed's model or index promoted: on a poisoned day the
  // retailer's serving and retrieval versions are frozen at yesterday's.
  // On clean days every retailer's versions advance (fresh batch + index).
  for (int day = 1; day < kDays; ++day) {
    for (data::RetailerId id = 0; id < kRetailers; ++id) {
      const bool frozen = PlannedCorruption(day, id) != Corruption::kNone;
      const int64_t prev_store = poisoned.store_versions[day - 1].at(id);
      const int64_t prev_index = poisoned.index_versions[day - 1].at(id);
      if (frozen) {
        EXPECT_EQ(poisoned.store_versions[day].at(id), prev_store)
            << "retailer " << id << " day " << day;
        EXPECT_EQ(poisoned.index_versions[day].at(id), prev_index)
            << "retailer " << id << " day " << day;
      } else {
        EXPECT_GT(poisoned.store_versions[day].at(id), prev_store)
            << "retailer " << id << " day " << day;
        EXPECT_GT(poisoned.index_versions[day].at(id), prev_index)
            << "retailer " << id << " day " << day;
      }
    }
  }

  // 2. Zero failed serves, both runs, all days, all retailers.
  EXPECT_EQ(clean.failed_serves, 0);
  EXPECT_EQ(poisoned.failed_serves, 0);

  // 3. The never-poisoned retailer (id 1) is untouched by its neighbors'
  // chaos: its durable recommendation and index bytes match the fault-free
  // run exactly.
  EXPECT_EQ(poisoned.recommendation_bytes.at(1),
            clean.recommendation_bytes.at(1));
  EXPECT_EQ(poisoned.index_bytes.at(1), clean.index_bytes.at(1));
  EXPECT_NE(poisoned.recommendation_bytes.at(1), "<unreadable>");
  EXPECT_NE(poisoned.index_bytes.at(1), "<unreadable>");

  // 5. Releases happened (r0 on days 2 and 4, r2 on day 5) and the
  // release days warm-started: no retailer was re-planned as a full-grid
  // new sign-up anywhere in the run.
  int64_t releases = 0;
  for (const pipeline::DailyReport& report : poisoned.reports) {
    releases += report.quarantine_releases;
    EXPECT_EQ(report.new_retailers, 0);
  }
  EXPECT_EQ(releases, 4);
  EXPECT_EQ(poisoned.reports.back().quarantined_retailers, 0);
  // Models trained on a quarantine day shrink by the quarantined
  // retailer's share and recover after release.
  EXPECT_EQ(poisoned.reports[1].models_trained, 4);  // r1 + r2 only
  EXPECT_EQ(poisoned.reports.back().models_trained, 6);
}

TEST(DataQualChaosTest, SameSeedPoisonedRunsAreByteIdentical) {
  const RunResult a = RunScenario(/*poison=*/true);
  const RunResult b = RunScenario(/*poison=*/true);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (size_t day = 0; day < a.reports.size(); ++day) {
    EXPECT_EQ(a.reports[day].ToString(), b.reports[day].ToString())
        << "day " << day;
    EXPECT_EQ(a.store_versions[day], b.store_versions[day]);
    EXPECT_EQ(a.index_versions[day], b.index_versions[day]);
  }
  EXPECT_EQ(a.recommendation_bytes, b.recommendation_bytes);
  EXPECT_EQ(a.index_bytes, b.index_bytes);
}

}  // namespace
}  // namespace sigmund::dataqual
