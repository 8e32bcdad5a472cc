#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "core/ab_experiment.h"
#include "data/world_generator.h"
#include "fake_reader.h"
#include "serving/frontend.h"

namespace sigmund {
namespace {

using data::ActionType;

core::ItemRecommendations MakeRecs(data::ItemIndex query) {
  core::ItemRecommendations recs;
  recs.query = query;
  recs.view_based = {{1, 2.0}, {2, 0.5}, {3, -1.0}};
  recs.purchase_based = {{4, 1.0}};
  recs.view_based_late = {{5, 1.5}};
  return recs;
}

void LoadStore(serving::RecommendationStore* store) {
  store->LoadRetailer(1, {MakeRecs(0)});
}

// A fake that serves `store`'s lists and versions until a test swaps in a
// failing lookup with set_lookup.
testutil::FakeReader StoreBacked(const serving::RecommendationStore& store) {
  return testutil::FakeReader(
      [&store](data::RetailerId retailer, const core::Context& context) {
        return store.ServeContext(retailer, context);
      },
      &store);
}

core::ScoreCalibrator IdentityCalibrator() {
  // Fit on clean separable data: positive scores click, negatives don't.
  std::vector<double> scores = {-2, -1, 1, 2};
  std::vector<bool> clicked = {false, false, true, true};
  auto calibrator = core::ScoreCalibrator::Fit(scores, clicked);
  SIGCHECK(calibrator.ok());
  return *calibrator;
}

TEST(FrontendTest, BasicRequestServesViewBased) {
  serving::RecommendationStore store;
  LoadStore(&store);
  obs::MetricRegistry metrics;
  serving::Frontend frontend(&store, nullptr, &metrics);
  serving::RecommendationRequest request;
  request.retailer = 1;
  request.context = {{0, ActionType::kView}};
  auto response = frontend.Handle(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->items.size(), 3u);
  EXPECT_EQ(response->items[0].item, 1);
  EXPECT_EQ(response->funnel, core::FunnelStage::kEarly);
  EXPECT_FALSE(response->post_purchase);
  EXPECT_EQ(response->suppressed_by_threshold, 0);
}

TEST(FrontendTest, PostPurchaseAndLateFunnelRouting) {
  serving::RecommendationStore store;
  LoadStore(&store);
  obs::MetricRegistry metrics;
  serving::Frontend frontend(&store, nullptr, &metrics);
  serving::RecommendationRequest request;
  request.retailer = 1;
  request.context = {{0, ActionType::kConversion}};
  auto post = frontend.Handle(request);
  ASSERT_TRUE(post.ok());
  EXPECT_TRUE(post->post_purchase);
  EXPECT_EQ(post->items[0].item, 4);

  request.context = {{0, ActionType::kView}, {0, ActionType::kView}};
  auto late = frontend.Handle(request);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->funnel, core::FunnelStage::kLate);
  EXPECT_EQ(late->items[0].item, 5);  // late-funnel variant
}

TEST(FrontendTest, MaxResultsTruncates) {
  serving::RecommendationStore store;
  LoadStore(&store);
  obs::MetricRegistry metrics;
  serving::Frontend frontend(&store, nullptr, &metrics);
  serving::RecommendationRequest request;
  request.retailer = 1;
  request.context = {{0, ActionType::kView}};
  request.max_results = 2;
  auto response = frontend.Handle(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->items.size(), 2u);
}

TEST(FrontendTest, ThresholdSuppressesWeakItems) {
  serving::RecommendationStore store;
  LoadStore(&store);
  core::ScoreCalibrator calibrator = IdentityCalibrator();
  obs::MetricRegistry metrics;
  serving::Frontend frontend(&store, &calibrator, &metrics);
  serving::RecommendationRequest request;
  request.retailer = 1;
  request.context = {{0, ActionType::kView}};
  request.display_threshold = 0.5;
  auto response = frontend.Handle(request);
  ASSERT_TRUE(response.ok());
  // Scores 2.0 and 0.5 pass the 0.5 probability bar; -1.0 is suppressed.
  EXPECT_EQ(response->items.size(), 2u);
  EXPECT_EQ(response->suppressed_by_threshold, 1);
  for (const core::ScoredItem& item : response->items) {
    EXPECT_GE(calibrator.Probability(item.score), 0.5);
  }
}

TEST(FrontendTest, ThresholdIgnoredWithoutCalibrator) {
  serving::RecommendationStore store;
  LoadStore(&store);
  obs::MetricRegistry metrics;
  serving::Frontend frontend(&store, nullptr, &metrics);
  serving::RecommendationRequest request;
  request.retailer = 1;
  request.context = {{0, ActionType::kView}};
  request.display_threshold = 0.99;
  auto response = frontend.Handle(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->items.size(), 3u);
}

TEST(FrontendTest, InvalidRequestsRejected) {
  serving::RecommendationStore store;
  LoadStore(&store);
  obs::MetricRegistry metrics;
  serving::Frontend frontend(&store, nullptr, &metrics);
  serving::RecommendationRequest request;
  request.retailer = 1;
  EXPECT_EQ(frontend.Handle(request).status().code(),
            StatusCode::kInvalidArgument);  // empty context
  request.context = {{0, ActionType::kView}};
  request.max_results = 0;
  EXPECT_EQ(frontend.Handle(request).status().code(),
            StatusCode::kInvalidArgument);
  request.max_results = 5;
  request.retailer = 9;  // unknown
  EXPECT_EQ(frontend.Handle(request).status().code(),
            StatusCode::kNotFound);
}

// --- Batch-version labeling ---------------------------------------------------

TEST(FrontendTest, ResponsesCarryTheServingBatchVersion) {
  serving::RecommendationStore store;
  LoadStore(&store);
  obs::MetricRegistry metrics;
  serving::Frontend frontend(&store, nullptr, &metrics);
  serving::RecommendationRequest request;
  request.retailer = 1;
  request.context = {{0, ActionType::kView}};

  auto v1 = frontend.Handle(request);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->batch_version, 1);

  // After a batch cutover the label follows the active version, so
  // per-request counters split cleanly by serving batch.
  store.LoadRetailer(1, {MakeRecs(0)});
  auto v2 = frontend.Handle(request);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->batch_version, 2);

  obs::RegistrySnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue(
                "serving_requests_total",
                {{"outcome", "ok"}, {"version", "1"}}),
            1);
  EXPECT_EQ(snapshot.CounterValue(
                "serving_requests_total",
                {{"outcome", "ok"}, {"version", "2"}}),
            1);
  // The unlabeled view still aggregates across versions.
  EXPECT_EQ(snapshot.CounterValue("serving_requests_total",
                                  {{"outcome", "ok"}}),
            2);
}

TEST(FrontendTest, FallbacksLabelTheVersionTheyActuallyServe) {
  serving::RecommendationStore store;
  LoadStore(&store);
  obs::MetricRegistry metrics;
  testutil::FakeReader reader = StoreBacked(store);
  serving::Frontend frontend(&reader, nullptr, &metrics);
  serving::RecommendationRequest request;
  request.retailer = 1;
  request.context = {{0, ActionType::kView}};

  // Populate the last-known-good cache at version 1, then break the store.
  ASSERT_TRUE(frontend.Handle(request).ok());
  reader.set_lookup([](data::RetailerId, const core::Context&) {
    return StatusOr<std::vector<core::ScoredItem>>(
        UnavailableError("store down"));
  });

  // The LKG rung serves version 1's cached list and says so — even though
  // the store's active version has moved on to 2 underneath.
  store.LoadRetailer(1, {MakeRecs(0)});
  auto lkg = frontend.Handle(request);
  ASSERT_TRUE(lkg.ok());
  EXPECT_EQ(lkg->source, serving::ServingSource::kLastKnownGood);
  EXPECT_EQ(lkg->batch_version, 1);

  // The popularity rung serves no batch at all: version 0.
  testutil::FakeReader bare_reader(
      [](data::RetailerId, const core::Context&) {
        return StatusOr<std::vector<core::ScoredItem>>(
            UnavailableError("store down"));
      },
      &store);
  serving::Frontend bare(&bare_reader, nullptr, &metrics);
  bare.SetPopularityFallback(1, {{7, 1.0}});
  auto popularity = bare.Handle(request);
  ASSERT_TRUE(popularity.ok());
  EXPECT_EQ(popularity->source, serving::ServingSource::kPopularity);
  EXPECT_EQ(popularity->batch_version, 0);

  obs::RegistrySnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue(
                "serving_fallbacks_total",
                {{"source", "last_known_good"}, {"version", "1"}}),
            1);
  EXPECT_EQ(snapshot.CounterValue(
                "serving_fallbacks_total",
                {{"source", "popularity"}, {"version", "0"}}),
            1);
}

// --- Frontend degradation ladder ---------------------------------------------

serving::RecommendationRequest ViewRequest() {
  serving::RecommendationRequest request;
  request.retailer = 1;
  request.context = {{0, ActionType::kView}};
  return request;
}

TEST(FrontendDegradationTest, LastKnownGoodServedAfterStoreFailure) {
  serving::RecommendationStore store;
  LoadStore(&store);
  obs::MetricRegistry metrics;
  SimClock clock;
  testutil::FakeReader reader = StoreBacked(store);
  serving::Frontend frontend(&reader, nullptr, &metrics, &clock);

  // A healthy request populates the last-known-good cache.
  auto healthy = frontend.Handle(ViewRequest());
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy->degraded);
  EXPECT_EQ(healthy->source, serving::ServingSource::kStore);

  // Now the store starts failing; the frontend replays the cached list.
  reader.set_lookup([](data::RetailerId, const core::Context&) {
    return StatusOr<std::vector<core::ScoredItem>>(
        UnavailableError("store down"));
  });
  auto degraded = frontend.Handle(ViewRequest());
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->source, serving::ServingSource::kLastKnownGood);
  ASSERT_EQ(degraded->items.size(), healthy->items.size());
  EXPECT_EQ(degraded->items[0].item, healthy->items[0].item);
  obs::RegistrySnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_fallbacks_total",
                                  {{"source", "last_known_good"}}),
            1);
}

TEST(FrontendDegradationTest, PopularityIsTheLastRungBeforeError) {
  testutil::FakeReader reader([](data::RetailerId, const core::Context&) {
    return StatusOr<std::vector<core::ScoredItem>>(
        UnavailableError("store down"));
  });
  obs::MetricRegistry metrics;
  serving::Frontend frontend(&reader, nullptr, &metrics);
  // No last-known-good and no popularity list: the error surfaces.
  EXPECT_EQ(frontend.Handle(ViewRequest()).status().code(),
            StatusCode::kUnavailable);
  // With a popularity list installed the ladder catches the failure.
  frontend.SetPopularityFallback(1, {{7, 1.0}, {8, 0.5}});
  auto response = frontend.Handle(ViewRequest());
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->degraded);
  EXPECT_EQ(response->source, serving::ServingSource::kPopularity);
  ASSERT_EQ(response->items.size(), 2u);
  EXPECT_EQ(response->items[0].item, 7);
}

TEST(FrontendDegradationTest, BreakerTripsShortCircuitsAndRecovers) {
  obs::MetricRegistry metrics;
  SimClock clock;
  serving::Frontend::Options options;
  options.breaker_failure_threshold = 3;
  options.breaker_open_seconds = 30.0;
  int lookup_calls = 0;
  bool lookup_healthy = false;
  testutil::FakeReader reader(
      [&](data::RetailerId, const core::Context&)
          -> StatusOr<std::vector<core::ScoredItem>> {
        ++lookup_calls;
        if (!lookup_healthy) return UnavailableError("store down");
        return std::vector<core::ScoredItem>{{1, 2.0}};
      });
  serving::Frontend frontend(&reader, nullptr, &metrics, &clock, options);
  frontend.SetPopularityFallback(1, {{7, 1.0}});

  // Three consecutive failures trip the breaker.
  for (int n = 0; n < 3; ++n) {
    auto r = frontend.Handle(ViewRequest());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->source, serving::ServingSource::kPopularity);
  }
  EXPECT_EQ(lookup_calls, 3);
  EXPECT_TRUE(frontend.BreakerOpen(1));

  // While open, requests never reach the store.
  auto shorted = frontend.Handle(ViewRequest());
  ASSERT_TRUE(shorted.ok());
  EXPECT_TRUE(shorted->degraded);
  EXPECT_EQ(lookup_calls, 3);

  // After the cooldown a half-open probe goes through; its success
  // closes the breaker again.
  clock.AdvanceSeconds(31.0);
  lookup_healthy = true;
  auto probe = frontend.Handle(ViewRequest());
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(probe->degraded);
  EXPECT_EQ(probe->source, serving::ServingSource::kStore);
  EXPECT_EQ(lookup_calls, 4);
  EXPECT_FALSE(frontend.BreakerOpen(1));

  obs::RegistrySnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_breaker_trips_total", {}), 1);
  EXPECT_EQ(snapshot.CounterValue("serving_breaker_short_circuits_total", {}),
            1);
}

TEST(FrontendDegradationTest, SlowLookupPastDeadlineFallsBack) {
  obs::MetricRegistry metrics;
  SimClock clock;
  serving::Frontend::Options options;
  options.request_deadline_micros = 1000;
  // The lookup "takes" 5ms of simulated time — well past the 1ms
  // deadline — and still returns a list; the frontend must discard it.
  testutil::FakeReader reader(
      [&clock](data::RetailerId, const core::Context&)
          -> StatusOr<std::vector<core::ScoredItem>> {
        clock.AdvanceMicros(5000);
        return std::vector<core::ScoredItem>{{1, 2.0}};
      });
  serving::Frontend frontend(&reader, nullptr, &metrics, &clock, options);
  frontend.SetPopularityFallback(1, {{7, 1.0}});
  auto response = frontend.Handle(ViewRequest());
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->degraded);
  EXPECT_EQ(response->source, serving::ServingSource::kPopularity);
  obs::RegistrySnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_deadline_exceeded_total", {}), 1);
}

// --- AbExperiment ------------------------------------------------------------

struct AbFixture {
  data::RetailerWorld world;

  AbFixture()
      : world([] {
          data::WorldConfig config;
          config.seed = 9;
          data::WorldGenerator generator(config);
          return generator.GenerateRetailer(0, 120);
        }()) {}

  // Policy recommending each user's true-affinity top items.
  core::AbExperiment::Arm OraclePolicy() {
    return {"oracle", [this](data::UserIndex u, data::ItemIndex) {
              std::vector<data::ItemIndex> items(world.data.num_items());
              for (int i = 0; i < world.data.num_items(); ++i) items[i] = i;
              std::partial_sort(
                  items.begin(), items.begin() + 10, items.end(),
                  [this, u](data::ItemIndex a, data::ItemIndex b) {
                    return world.truth.Affinity(u, a) >
                           world.truth.Affinity(u, b);
                  });
              items.resize(10);
              return items;
            }};
  }

  core::AbExperiment::Arm RandomPolicy() {
    return {"random", [this](data::UserIndex u, data::ItemIndex) {
              Rng rng(u * 31 + 7);
              std::vector<data::ItemIndex> items;
              for (int n = 0; n < 10; ++n) {
                items.push_back(static_cast<data::ItemIndex>(
                    rng.Uniform(world.data.num_items())));
              }
              return items;
            }};
  }
};

TEST(AbExperimentTest, OracleBeatsRandomSignificantly) {
  AbFixture f;
  core::AbExperiment::Options options;
  options.rounds_per_user = 5;
  options.ctr.click_bias = 2.0;
  core::AbExperiment::Outcome outcome = core::AbExperiment::Run(
      f.world, f.world.data.histories, f.RandomPolicy(), f.OraclePolicy(),
      options);
  EXPECT_GT(outcome.treatment.Ctr(), outcome.control.Ctr());
  EXPECT_TRUE(outcome.SignificantAt95());
  EXPECT_GT(outcome.z_score, 1.96);
  EXPECT_GT(outcome.RelativeLift(), 0.1);
}

TEST(AbExperimentTest, IdenticalArmsNotSignificant) {
  AbFixture f;
  core::AbExperiment::Options options;
  options.rounds_per_user = 3;
  core::AbExperiment::Outcome outcome = core::AbExperiment::Run(
      f.world, f.world.data.histories, f.OraclePolicy(), f.OraclePolicy(),
      options);
  EXPECT_FALSE(outcome.SignificantAt95());
  EXPECT_NEAR(outcome.RelativeLift(), 0.0, 0.1);
}

TEST(AbExperimentTest, StickyAssignmentSplitsTraffic) {
  AbFixture f;
  core::AbExperiment::Options options;
  options.rounds_per_user = 1;
  core::AbExperiment::Outcome outcome = core::AbExperiment::Run(
      f.world, f.world.data.histories, f.RandomPolicy(), f.OraclePolicy(),
      options);
  int64_t total = outcome.control.impressions + outcome.treatment.impressions;
  EXPECT_GT(total, 0);
  // Roughly balanced split.
  EXPECT_NEAR(static_cast<double>(outcome.control.impressions) / total, 0.5,
              0.15);
  // Deterministic: same seed, same outcome.
  core::AbExperiment::Outcome again = core::AbExperiment::Run(
      f.world, f.world.data.histories, f.RandomPolicy(), f.OraclePolicy(),
      options);
  EXPECT_EQ(again.control.clicks, outcome.control.clicks);
  EXPECT_EQ(again.treatment.clicks, outcome.treatment.clicks);
}

}  // namespace
}  // namespace sigmund
