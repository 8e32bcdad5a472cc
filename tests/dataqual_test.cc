// Data-plane sentry (DESIGN.md §12): feed profiling, verdict tiers,
// drift detection against the last-good baseline, the noise floor for
// tiny retailers, the seeded FeedCorruptor, and the quarantine wiring
// through SigmundService::RunDaily (skip-retrain, carry-forward
// warm-start, QualityMonitor isolation).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "data/retailer_data.h"
#include "data/world_generator.h"
#include "dataqual/corruptor.h"
#include "dataqual/feed_profile.h"
#include "dataqual/sentry.h"
#include "pipeline/config_record.h"
#include "pipeline/service.h"
#include "sfs/mem_filesystem.h"

namespace sigmund::dataqual {
namespace {

using Verdict = DataSentry::Verdict;

// ---------------------------------------------------------------------------
// Shared statistics helpers.
// ---------------------------------------------------------------------------

TEST(StatsTest, TwoProportionZBasics) {
  // Empty arms: not computable yet.
  EXPECT_EQ(TwoProportionZ(0, 0, 5, 100), 0.0);
  EXPECT_EQ(TwoProportionZ(5, 100, 0, 0), 0.0);
  // Identical proportions: z == 0.
  EXPECT_DOUBLE_EQ(TwoProportionZ(10, 100, 10, 100), 0.0);
  // Higher first proportion: z > 0; symmetric under swapping arms.
  const double z = TwoProportionZ(30, 100, 10, 100);
  EXPECT_GT(z, 2.0);
  EXPECT_DOUBLE_EQ(TwoProportionZ(10, 100, 30, 100), -z);
  // Degenerate pooled variance (all hits or none): 0.
  EXPECT_EQ(TwoProportionZ(100, 100, 100, 100), 0.0);
  EXPECT_EQ(TwoProportionZ(0, 100, 0, 100), 0.0);
}

TEST(StatsTest, PopulationStabilityIndex) {
  const std::vector<double> base = {10, 20, 40, 20, 10};
  // Identical distribution (any scale): PSI == 0.
  EXPECT_NEAR(PopulationStabilityIndex(base, base), 0.0, 1e-12);
  EXPECT_NEAR(PopulationStabilityIndex(base, {20, 40, 80, 40, 20}), 0.0,
              1e-12);
  // A mild shift registers but stays under the conventional 0.25 bar.
  const double mild =
      PopulationStabilityIndex(base, {12, 22, 38, 18, 10});
  EXPECT_GT(mild, 0.0);
  EXPECT_LT(mild, 0.25);
  // Mass moving into a previously-empty bucket is a large PSI.
  EXPECT_GT(PopulationStabilityIndex(base, {0, 0, 0, 0, 100}), 1.0);
  // Mismatched bucket counts / empty histograms: defined as 0.
  EXPECT_EQ(PopulationStabilityIndex(base, {1, 2}), 0.0);
  EXPECT_EQ(PopulationStabilityIndex({0, 0}, {1, 2}), 0.0);
}

// ---------------------------------------------------------------------------
// FeedProfile.
// ---------------------------------------------------------------------------

data::RetailerData HandMadeData() {
  data::RetailerData data;
  data.id = 7;
  for (int i = 0; i < 4; ++i) data.catalog.AddItem(data::Item{0, data::kUnknownBrand, 0.0, 0});
  data.catalog.Finalize();
  data.histories.resize(3);
  auto add = [&](int user, int item, data::ActionType action, int64_t ts) {
    data.histories[user].push_back(
        data::Interaction{0, item, action, ts});
  };
  add(0, 0, data::ActionType::kView, 10);
  add(0, 1, data::ActionType::kSearch, 20);
  add(0, 1, data::ActionType::kSearch, 20);  // exact consecutive duplicate
  add(0, 2, data::ActionType::kCart, 15);    // out of order
  add(1, 3, data::ActionType::kView, 5);
  add(1, 9, data::ActionType::kConversion, 6);  // invalid item reference
  // histories[2] stays empty (inactive user).
  return data;
}

TEST(FeedProfileTest, CountsEverything) {
  const FeedProfile profile = BuildFeedProfile(HandMadeData());
  EXPECT_EQ(profile.retailer, 7);
  EXPECT_EQ(profile.events, 6);
  EXPECT_EQ(profile.num_users, 3);
  EXPECT_EQ(profile.active_users, 2);
  EXPECT_EQ(profile.num_items, 4);
  EXPECT_EQ(profile.distinct_items, 4);  // item 9 is invalid, not distinct
  EXPECT_EQ(profile.action_counts[0], 2);  // views
  EXPECT_EQ(profile.action_counts[1], 2);  // searches
  EXPECT_EQ(profile.action_counts[2], 1);  // carts
  EXPECT_EQ(profile.action_counts[3], 1);  // conversions
  EXPECT_EQ(profile.duplicate_events, 1);
  EXPECT_EQ(profile.out_of_order_events, 1);
  EXPECT_EQ(profile.invalid_item_events, 1);
  EXPECT_EQ(profile.min_timestamp, 5);
  EXPECT_EQ(profile.max_timestamp, 20);
  EXPECT_EQ(profile.max_user_events, 4);
  EXPECT_DOUBLE_EQ(profile.TopUserShare(), 4.0 / 6.0);
  // User histogram: user 0 has 4 events (bucket 2), user 1 has 2 (bucket 1).
  EXPECT_EQ(profile.user_events_hist[1], 1);
  EXPECT_EQ(profile.user_events_hist[2], 1);
}

TEST(FeedProfileTest, EmptyFeedIsAllZeros) {
  data::RetailerData data;
  data.id = 1;
  const FeedProfile profile = BuildFeedProfile(data);
  EXPECT_EQ(profile.events, 0);
  EXPECT_EQ(profile.active_users, 0);
  EXPECT_DOUBLE_EQ(profile.TopUserShare(), 0.0);
  EXPECT_DOUBLE_EQ(profile.ActionFraction(data::ActionType::kView), 0.0);
}

TEST(FeedProfileTest, GeneratedWorldIsClean) {
  data::WorldConfig config;
  config.seed = 11;
  data::WorldGenerator generator(config);
  const data::RetailerWorld world = generator.GenerateRetailer(0, 200);
  const FeedProfile profile = BuildFeedProfile(world.data);
  EXPECT_GT(profile.events, 0);
  EXPECT_EQ(profile.invalid_item_events, 0);
  EXPECT_EQ(profile.out_of_order_events, 0);
  // Organic feeds are view-dominated (the funnel).
  EXPECT_GT(profile.ActionFraction(data::ActionType::kView), 0.4);
  EXPECT_GT(profile.action_counts[0], profile.action_counts[2]);
}

// ---------------------------------------------------------------------------
// DataSentry: invariants, drift, noise floor, quarantine state machine.
// ---------------------------------------------------------------------------

struct WorldFixture {
  data::WorldConfig config = [] {
    data::WorldConfig c;
    c.seed = 17;
    return c;
  }();
  data::WorldGenerator generator{config};
  data::RetailerWorld world = generator.GenerateRetailer(3, 300);
};

TEST(DataSentryTest, CleanFeedsPassAcrossDays) {
  WorldFixture f;
  obs::MetricRegistry metrics;
  DataSentry sentry(DataSentry::Options{}, &metrics);
  DataSentry::Observation day1 =
      sentry.Observe(BuildFeedProfile(f.world.data));
  EXPECT_EQ(day1.verdict, Verdict::kPass) << [&] {
    std::string all;
    for (const auto& finding : day1.findings) all += finding.ToString() + "; ";
    return all;
  }();
  EXPECT_TRUE(day1.first_observation);
  for (int day = 0; day < 3; ++day) {
    data::AdvanceOneDay(f.generator, &f.world, /*new_items=*/3,
                        /*seed=*/1000 + day);
    DataSentry::Observation obs =
        sentry.Observe(BuildFeedProfile(f.world.data));
    EXPECT_EQ(obs.verdict, Verdict::kPass)
        << "day " << day << ": "
        << (obs.findings.empty() ? "" : obs.findings[0].ToString());
    EXPECT_FALSE(obs.first_observation);
  }
  EXPECT_EQ(sentry.QuarantinedCount(), 0);
}

TEST(DataSentryTest, EveryCorruptionModeQuarantines) {
  const Corruption kModes[] = {
      Corruption::kDuplicateEvents,   Corruption::kDropPartition,
      Corruption::kBotFlood,          Corruption::kTimestampScramble,
      Corruption::kCatalogTruncation, Corruption::kActionFlip,
  };
  for (Corruption mode : kModes) {
    WorldFixture f;
    obs::MetricRegistry metrics;
    DataSentry sentry(DataSentry::Options{}, &metrics);
    ASSERT_EQ(sentry.Observe(BuildFeedProfile(f.world.data)).verdict,
              Verdict::kPass);
    FeedCorruptor::Options corruptor_options;
    corruptor_options.seed = 99;
    FeedCorruptor corruptor(corruptor_options);
    const data::RetailerData poisoned =
        corruptor.Apply(f.world.data, mode, f.world.data.id, /*day=*/1);
    const DataSentry::Observation obs =
        sentry.Observe(BuildFeedProfile(poisoned));
    EXPECT_EQ(obs.verdict, Verdict::kQuarantine)
        << "mode " << CorruptionName(mode) << " went undetected";
    EXPECT_TRUE(sentry.IsQuarantined(f.world.data.id));
  }
}

TEST(DataSentryTest, QuarantinedDayNeverBecomesBaseline) {
  WorldFixture f;
  obs::MetricRegistry metrics;
  DataSentry sentry(DataSentry::Options{}, &metrics);
  ASSERT_EQ(sentry.Observe(BuildFeedProfile(f.world.data)).verdict,
            Verdict::kPass);
  const FeedProfile day1_baseline =
      *sentry.LastGoodProfile(f.world.data.id);

  FeedCorruptor::Options corruptor_options;
  corruptor_options.seed = 5;
  corruptor_options.bot_flood_multiple = 4.0;
  FeedCorruptor corruptor(corruptor_options);
  const data::RetailerData poisoned = corruptor.Apply(
      f.world.data, Corruption::kBotFlood, f.world.data.id, /*day=*/1);
  ASSERT_EQ(sentry.Observe(BuildFeedProfile(poisoned)).verdict,
            Verdict::kQuarantine);
  // The baseline is still day 1's profile, not the poisoned feed.
  EXPECT_EQ(sentry.LastGoodProfile(f.world.data.id)->events,
            day1_baseline.events);

  // The next clean feed releases the retailer. Crucially it is judged
  // against day 1, not against the poisoned day — a clean day after a 5x
  // bot flood would look like an event collapse if the poisoned feed had
  // become the reference.
  data::AdvanceOneDay(f.generator, &f.world, /*new_items=*/2, /*seed=*/77);
  const DataSentry::Observation release =
      sentry.Observe(BuildFeedProfile(f.world.data));
  EXPECT_EQ(release.verdict, Verdict::kPass);
  EXPECT_TRUE(release.released);
  EXPECT_FALSE(sentry.IsQuarantined(f.world.data.id));
}

TEST(DataSentryTest, NoiseFloorKeepsTinyRetailersOutOfQuarantine) {
  // A two-user shop whose whole feed is one user's three events: top-user
  // share is 1.0, far past the bot-flood bar, but the feed is legitimate.
  data::RetailerData tiny;
  tiny.id = 9;
  for (int i = 0; i < 5; ++i) tiny.catalog.AddItem(data::Item{0, data::kUnknownBrand, 0.0, 0});
  tiny.catalog.Finalize();
  tiny.histories.resize(2);
  tiny.histories[0] = {
      data::Interaction{0, 0, data::ActionType::kView, 1},
      data::Interaction{0, 1, data::ActionType::kView, 2},
      data::Interaction{0, 1, data::ActionType::kConversion, 3},
  };
  obs::MetricRegistry metrics;
  DataSentry sentry(DataSentry::Options{}, &metrics);
  const DataSentry::Observation obs =
      sentry.Observe(BuildFeedProfile(tiny));
  EXPECT_NE(obs.verdict, Verdict::kQuarantine);
  EXPECT_FALSE(sentry.IsQuarantined(tiny.id));
}

TEST(DataSentryTest, HardIntegrityChecksIgnoreTheNoiseFloor) {
  // Same tiny shop, but the feed references items outside the catalog —
  // that crashes training at any size, so the floor must not save it.
  data::RetailerData tiny;
  tiny.id = 10;
  tiny.catalog.AddItem(data::Item{0, data::kUnknownBrand, 0.0, 0});
  tiny.catalog.Finalize();
  tiny.histories.resize(1);
  tiny.histories[0] = {
      data::Interaction{0, 0, data::ActionType::kView, 1},
      data::Interaction{0, 50, data::ActionType::kView, 2},
  };
  obs::MetricRegistry metrics;
  DataSentry sentry(DataSentry::Options{}, &metrics);
  EXPECT_EQ(sentry.Observe(BuildFeedProfile(tiny)).verdict,
            Verdict::kQuarantine);
}

TEST(DataSentryTest, DegenerateWorldsPassTheSentry) {
  // Zero-interaction users and single-item catalogs are legal worlds; the
  // sentry (and the split/profile machinery) must wave them through.
  data::RetailerData ghosts;
  ghosts.id = 21;
  for (int i = 0; i < 3; ++i) ghosts.catalog.AddItem(data::Item{0, data::kUnknownBrand, 0.0, 0});
  ghosts.catalog.Finalize();
  ghosts.histories.resize(10);  // every user silent
  obs::MetricRegistry metrics;
  DataSentry sentry(DataSentry::Options{}, &metrics);
  EXPECT_EQ(sentry.Observe(BuildFeedProfile(ghosts)).verdict, Verdict::kPass);
  const data::TrainTestSplit ghost_split = data::SplitLeaveLastOut(ghosts);
  EXPECT_TRUE(ghost_split.holdout.empty());

  data::RetailerData single;
  single.id = 22;
  single.catalog.AddItem(data::Item{0, data::kUnknownBrand, 0.0, 0});
  single.catalog.Finalize();
  single.histories.resize(2);
  single.histories[0] = {
      data::Interaction{0, 0, data::ActionType::kView, 1},
      data::Interaction{0, 0, data::ActionType::kConversion, 2},
  };
  EXPECT_NE(sentry.Observe(BuildFeedProfile(single)).verdict,
            Verdict::kQuarantine);
  const data::TrainTestSplit single_split = data::SplitLeaveLastOut(single);
  EXPECT_EQ(single_split.train.size(), 2u);
}

// ---------------------------------------------------------------------------
// FeedCorruptor: determinism and schedule.
// ---------------------------------------------------------------------------

std::string HistoryFingerprint(const data::RetailerData& data) {
  std::string out;
  for (const auto& history : data.histories) {
    for (const data::Interaction& event : history) {
      out += std::to_string(event.item) + ":" +
             std::to_string(static_cast<int>(event.action)) + ":" +
             std::to_string(event.timestamp) + ",";
    }
    out += "|";
  }
  out += "#items=" + std::to_string(data.num_items());
  return out;
}

TEST(FeedCorruptorTest, SameSeedSameBytes) {
  WorldFixture f;
  FeedCorruptor::Options options;
  options.seed = 123;
  options.corruption_probability = 0.5;
  FeedCorruptor a(options);
  FeedCorruptor b(options);
  for (int day = 0; day < 6; ++day) {
    EXPECT_EQ(a.Plan(f.world.data.id, day), b.Plan(f.world.data.id, day));
    EXPECT_EQ(HistoryFingerprint(a.Corrupt(f.world.data, day)),
              HistoryFingerprint(b.Corrupt(f.world.data, day)));
  }
  EXPECT_EQ(a.counters().total, b.counters().total);
}

TEST(FeedCorruptorTest, PlanIsIndependentOfCallOrder) {
  FeedCorruptor::Options options;
  options.seed = 9;
  options.corruption_probability = 0.5;
  FeedCorruptor corruptor(options);
  const Corruption day3 = corruptor.Plan(1, 3);
  const Corruption day0 = corruptor.Plan(1, 0);
  FeedCorruptor reversed(options);
  EXPECT_EQ(reversed.Plan(1, 0), day0);
  EXPECT_EQ(reversed.Plan(1, 3), day3);
}

TEST(FeedCorruptorTest, DisabledAndNonePassThroughUntouched) {
  WorldFixture f;
  FeedCorruptor::Options options;
  options.seed = 1;
  options.corruption_probability = 1.0;
  FeedCorruptor corruptor(options);
  corruptor.set_enabled(false);
  EXPECT_EQ(HistoryFingerprint(corruptor.Corrupt(f.world.data, 0)),
            HistoryFingerprint(f.world.data));
  EXPECT_EQ(corruptor.counters().total, 0);

  FeedCorruptor::Options off;
  off.corruption_probability = 0.0;
  FeedCorruptor never(off);
  for (int day = 0; day < 20; ++day) {
    EXPECT_EQ(never.Plan(0, day), Corruption::kNone);
  }
}

// ---------------------------------------------------------------------------
// Service integration: quarantine semantics through RunDaily.
// ---------------------------------------------------------------------------

pipeline::SigmundService::Options ServiceOptions() {
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
  return options;
}

struct ServiceFixture {
  data::WorldGenerator generator{[] {
    data::WorldConfig config;
    config.seed = 31;
    return config;
  }()};
  data::RetailerWorld r0 = generator.GenerateRetailer(0, 120);
  data::RetailerWorld r1 = generator.GenerateRetailer(1, 150);
};

TEST(ServiceDataQualTest, QuarantineSkipsTrainingAndKeepsServing) {
  ServiceFixture f;
  sfs::MemFileSystem fs;
  pipeline::SigmundService service(&fs, ServiceOptions());
  service.UpsertRetailer(&f.r0.data);
  service.UpsertRetailer(&f.r1.data);

  StatusOr<pipeline::DailyReport> day1 = service.RunDaily();
  ASSERT_TRUE(day1.ok()) << day1.status().ToString();
  EXPECT_EQ(day1->quarantined_retailers, 0);
  EXPECT_EQ(day1->feed_quarantines, 0);
  const int64_t r0_version = service.store().RetailerVersion(0);
  ASSERT_GT(r0_version, 0);
  const int day1_models = day1->models_trained;
  ASSERT_GT(day1_models, 0);

  // Day 2: r0's feed arrives poisoned (catalog truncated under its
  // events); r1 advances normally.
  FeedCorruptor::Options corruptor_options;
  corruptor_options.seed = 4;
  FeedCorruptor corruptor(corruptor_options);
  data::RetailerData poisoned = corruptor.Apply(
      f.r0.data, Corruption::kCatalogTruncation, 0, /*day=*/2);
  service.UpsertRetailer(&poisoned);
  data::AdvanceOneDay(f.generator, &f.r1, /*new_items=*/2, /*seed=*/55);
  service.UpsertRetailer(&f.r1.data);

  StatusOr<pipeline::DailyReport> day2 = service.RunDaily();
  ASSERT_TRUE(day2.ok()) << day2.status().ToString();
  EXPECT_EQ(day2->feed_quarantines, 1);
  EXPECT_EQ(day2->quarantined_retailers, 1);
  ASSERT_NE(service.sentry(), nullptr);
  EXPECT_TRUE(service.sentry()->IsQuarantined(0));
  // Only r1 trained (top-k records), and r0's serving version is frozen at
  // its last-known-good batch — which still serves.
  EXPECT_EQ(day2->models_trained, 2);
  EXPECT_EQ(service.store().RetailerVersion(0), r0_version);
  EXPECT_TRUE(service.store().Lookup(0, 0, serving::RecommendationKind::kViewBased).ok());
  // The quarantined day never reached the quality monitor's window.
  EXPECT_EQ(service.quality_monitor().days_observed(0), 1);
  EXPECT_EQ(service.quality_monitor().days_observed(1), 2);
  // The report and profile both carry the verdict.
  EXPECT_NE(day2->ToString().find("quarantined=1"), std::string::npos);
  EXPECT_NE(day2->profile_json.find("\"dataqual\":{\"quarantined_retailers\":1"),
            std::string::npos);

  // Day 3: a clean feed releases r0 — and warm-starts (top-k incremental
  // records, not a full-grid cold start), because its previous results
  // were carried across the quarantined day.
  data::AdvanceOneDay(f.generator, &f.r0, /*new_items=*/2, /*seed=*/56);
  service.UpsertRetailer(&f.r0.data);
  StatusOr<pipeline::DailyReport> day3 = service.RunDaily();
  ASSERT_TRUE(day3.ok()) << day3.status().ToString();
  EXPECT_EQ(day3->quarantine_releases, 1);
  EXPECT_EQ(day3->quarantined_retailers, 0);
  EXPECT_FALSE(service.sentry()->IsQuarantined(0));
  // Warm start: both retailers retrained exactly top-k records; r0 did
  // not show up as a "new" retailer needing the full grid.
  EXPECT_EQ(day3->models_trained, 4);
  EXPECT_EQ(day3->new_retailers, 0);
  EXPECT_GT(service.store().RetailerVersion(0), r0_version);
  EXPECT_EQ(service.quality_monitor().days_observed(0), 2);
}

TEST(ServiceDataQualTest, DegenerateRetailersFlowThroughTheFullPipeline) {
  // A single-item catalog and a world full of silent users must survive
  // sweep → train → profile → inference → store without crashing, and the
  // sentry must not quarantine them (noise floor).
  data::RetailerData single;
  single.id = 0;
  single.catalog.AddItem(data::Item{0, data::kUnknownBrand, 0.0, 0});
  single.catalog.Finalize();
  single.histories.resize(3);
  single.histories[0] = {
      data::Interaction{0, 0, data::ActionType::kView, 1},
      data::Interaction{0, 0, data::ActionType::kView, 2},
      data::Interaction{0, 0, data::ActionType::kConversion, 3},
  };
  single.histories[1] = {
      data::Interaction{0, 0, data::ActionType::kView, 4},
  };

  data::WorldGenerator generator{[] {
    data::WorldConfig config;
    config.seed = 41;
    return config;
  }()};
  data::RetailerWorld normal = generator.GenerateRetailer(1, 80);
  // Silence most users: zero-interaction users are common in real feeds.
  for (size_t u = 0; u < normal.data.histories.size(); u += 2) {
    normal.data.histories[u].clear();
  }

  sfs::MemFileSystem fs;
  pipeline::SigmundService service(&fs, ServiceOptions());
  service.UpsertRetailer(&single);
  service.UpsertRetailer(&normal.data);
  for (int day = 0; day < 2; ++day) {
    StatusOr<pipeline::DailyReport> report = service.RunDaily();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->feed_quarantines, 0);
  }
  EXPECT_TRUE(service.store().Lookup(0, 0, serving::RecommendationKind::kViewBased).ok());
  EXPECT_TRUE(service.store().Lookup(1, 0, serving::RecommendationKind::kViewBased).ok());
}

}  // namespace
}  // namespace sigmund::dataqual
