// Overload robustness (DESIGN.md §8): admission control primitives, the
// Frontend's shed/brownout/retry-budget integration, the LRU-bounded
// retailer state map, hedge budgets, canary sample exclusion, and the
// deterministic load harness.

#include <gtest/gtest.h>

#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "data/world_generator.h"
#include "fake_reader.h"
#include "pipeline/canary.h"
#include "serving/admission.h"
#include "serving/frontend.h"
#include "serving/loadgen.h"
#include "serving/replicated_store.h"
#include "serving/store.h"

namespace sigmund {
namespace {

using pipeline::CanaryController;
using serving::AdaptiveConcurrencyLimiter;
using serving::AdmissionController;
using serving::Frontend;
using serving::RequestPriority;
using serving::RetryBudget;
using serving::ShedReason;
using serving::TokenBucket;

// --- TokenBucket -------------------------------------------------------------

TEST(TokenBucketTest, RefillsAtRateUpToBurst) {
  TokenBucket bucket(/*tokens_per_second=*/10.0, /*burst=*/5.0);
  // Burst drains...
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_FALSE(bucket.TryTake(0));
  // ...150ms refills ~1.5 tokens: one take fits, a second does not...
  EXPECT_TRUE(bucket.TryTake(150000));
  EXPECT_FALSE(bucket.TryTake(150000));
  // ...and a long idle period caps at burst, not rate × time.
  EXPECT_TRUE(bucket.TryTake(100000000));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.TryTake(100000000));
  EXPECT_FALSE(bucket.TryTake(100000000));
}

TEST(TokenBucketTest, ZeroRateDisables) {
  TokenBucket bucket(0.0, 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryTake(0));
}

// --- RetryBudget -------------------------------------------------------------

TEST(RetryBudgetTest, WithdrawalsCappedByDepositsPlusReserve) {
  RetryBudget::Options options;
  options.ratio = 0.25;  // exactly representable: no FP drift in the test
  options.initial_tokens = 2.0;
  RetryBudget budget(options);
  // The reserve affords 2 retries cold.
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_FALSE(budget.TryWithdraw());
  // 4 requests bank exactly one more token.
  for (int i = 0; i < 4; ++i) budget.RecordRequest();
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_FALSE(budget.TryWithdraw());
}

TEST(RetryBudgetTest, TokensCapAtMax) {
  RetryBudget::Options options;
  options.ratio = 1.0;
  options.initial_tokens = 0.0;
  options.max_tokens = 3.0;
  RetryBudget budget(options);
  for (int i = 0; i < 100; ++i) budget.RecordRequest();
  EXPECT_DOUBLE_EQ(budget.tokens(), 3.0);
}

// --- AdaptiveConcurrencyLimiter ----------------------------------------------

TEST(AdaptiveLimiterTest, AimdOnLatencyVsTarget) {
  AdaptiveConcurrencyLimiter::Options options;
  options.initial_limit = 100;
  options.target_latency_micros = 1000;
  options.window = 4;
  options.ewma_alpha = 1.0;  // no smoothing: the test controls samples
  AdaptiveConcurrencyLimiter limiter(options);
  // A window under target: additive increase.
  for (int i = 0; i < 4; ++i) limiter.Record(500);
  EXPECT_EQ(limiter.limit(), 101);
  // A window over target: multiplicative decrease.
  for (int i = 0; i < 4; ++i) limiter.Record(5000);
  EXPECT_EQ(limiter.limit(), static_cast<int>(101 * 0.85));
}

TEST(AdaptiveLimiterTest, ClampsToBounds) {
  AdaptiveConcurrencyLimiter::Options options;
  options.initial_limit = 2;
  options.min_limit = 2;
  options.max_limit = 3;
  options.target_latency_micros = 1000;
  options.window = 1;
  AdaptiveConcurrencyLimiter limiter(options);
  for (int i = 0; i < 50; ++i) limiter.Record(100000);
  EXPECT_EQ(limiter.limit(), 2);
  for (int i = 0; i < 50; ++i) limiter.Record(10);
  EXPECT_EQ(limiter.limit(), 3);
}

TEST(AdaptiveLimiterTest, VegasQueueEstimate) {
  AdaptiveConcurrencyLimiter::Options options;
  options.initial_limit = 10;
  options.window = 1000;  // no adjustment during the test
  options.ewma_alpha = 1.0;
  AdaptiveConcurrencyLimiter limiter(options);
  limiter.Record(1000);  // min latency
  limiter.Record(2000);  // smoothed = 2000 → half the window is queue
  EXPECT_NEAR(limiter.EstimatedQueue(), 5.0, 1e-9);
}

// --- AdmissionController -----------------------------------------------------

AdmissionController::Options SmallController(int limit, int queue = 0) {
  AdmissionController::Options options;
  options.limiter.initial_limit = limit;
  options.limiter.min_limit = limit;
  options.limiter.max_limit = limit;
  options.queue_capacity = queue;
  return options;
}

TEST(AdmissionControllerTest, AdmitsUntilLimitThenSheds) {
  SimClock clock;
  obs::MetricRegistry metrics;
  AdmissionController controller(SmallController(2), &metrics, &clock);
  EXPECT_EQ(controller.Offer(1, RequestPriority::kUserFacing, 0, false)
                .outcome,
            AdmissionController::Outcome::kAdmitted);
  EXPECT_EQ(controller.Offer(1, RequestPriority::kUserFacing, 0, false)
                .outcome,
            AdmissionController::Outcome::kAdmitted);
  const AdmissionController::Admission shed =
      controller.Offer(1, RequestPriority::kUserFacing, 0, false);
  EXPECT_EQ(shed.outcome, AdmissionController::Outcome::kShed);
  EXPECT_EQ(shed.reason, ShedReason::kQueueFull);
  EXPECT_EQ(controller.in_flight(), 2);
  auto snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_shed_total",
                                  {{"priority", "user_facing"},
                                   {"reason", "queue_full"}}),
            1);
  EXPECT_EQ(snapshot.CounterValue("serving_admitted_total",
                                  {{"priority", "user_facing"}}),
            2);
}

TEST(AdmissionControllerTest, WatermarksShedProbesBeforeCanariesBeforeUsers) {
  SimClock clock;
  obs::MetricRegistry metrics;
  AdmissionController controller(SmallController(10), &metrics, &clock);
  // 7/10 slots → occupancy 0.7: probes refused, canaries and users pass.
  for (int i = 0; i < 7; ++i) {
    ASSERT_EQ(
        controller.Offer(1, RequestPriority::kUserFacing, 0, false).outcome,
        AdmissionController::Outcome::kAdmitted);
  }
  EXPECT_EQ(
      controller.Offer(1, RequestPriority::kHealthProbe, 0, false).reason,
      ShedReason::kWatermark);
  EXPECT_EQ(
      controller.Offer(1, RequestPriority::kCanary, 0, false).outcome,
      AdmissionController::Outcome::kAdmitted);
  // 9/10 → canaries refused too; user-facing still admitted to the brim.
  ASSERT_EQ(
      controller.Offer(1, RequestPriority::kUserFacing, 0, false).outcome,
      AdmissionController::Outcome::kAdmitted);
  EXPECT_EQ(controller.Offer(1, RequestPriority::kCanary, 0, false).reason,
            ShedReason::kWatermark);
  EXPECT_EQ(
      controller.Offer(1, RequestPriority::kUserFacing, 0, false).outcome,
      AdmissionController::Outcome::kAdmitted);
}

TEST(AdmissionControllerTest, QueueDrainsInPriorityOrderOnRelease) {
  SimClock clock;
  obs::MetricRegistry metrics;
  AdmissionController controller(SmallController(1, /*queue=*/4), &metrics,
                                 &clock);
  ASSERT_EQ(
      controller.Offer(1, RequestPriority::kUserFacing, 0, true).outcome,
      AdmissionController::Outcome::kAdmitted);
  // Queue a probe first, then a user request (watermarks don't apply: a
  // probe offered at low occupancy may still queue).
  const AdmissionController::Admission probe =
      controller.Offer(1, RequestPriority::kHealthProbe, 0, true);
  ASSERT_EQ(probe.outcome, AdmissionController::Outcome::kQueued);
  const AdmissionController::Admission user =
      controller.Offer(2, RequestPriority::kUserFacing, 0, true);
  ASSERT_EQ(user.outcome, AdmissionController::Outcome::kQueued);
  // The freed slot goes to the user request despite the probe queueing
  // first.
  AdmissionController::Drained drained = controller.Release(1000);
  ASSERT_EQ(drained.admitted.size(), 1u);
  EXPECT_EQ(drained.admitted[0].id, user.id);
  EXPECT_EQ(drained.admitted[0].priority, RequestPriority::kUserFacing);
  drained = controller.Release(1000);
  ASSERT_EQ(drained.admitted.size(), 1u);
  EXPECT_EQ(drained.admitted[0].id, probe.id);
}

TEST(AdmissionControllerTest, FullQueueEvictsLowestPriorityWaiter) {
  SimClock clock;
  obs::MetricRegistry metrics;
  AdmissionController controller(SmallController(1, /*queue=*/2), &metrics,
                                 &clock);
  ASSERT_EQ(
      controller.Offer(1, RequestPriority::kUserFacing, 0, true).outcome,
      AdmissionController::Outcome::kAdmitted);
  ASSERT_EQ(
      controller.Offer(1, RequestPriority::kHealthProbe, 0, true).outcome,
      AdmissionController::Outcome::kQueued);
  ASSERT_EQ(
      controller.Offer(1, RequestPriority::kCanary, 0, true).outcome,
      AdmissionController::Outcome::kQueued);
  // Queue full. A user arrival evicts the queued probe (lowest class)...
  EXPECT_EQ(
      controller.Offer(2, RequestPriority::kUserFacing, 0, true).outcome,
      AdmissionController::Outcome::kQueued);
  EXPECT_EQ(metrics.Snapshot().CounterValue(
                "serving_shed_total", {{"priority", "health_probe"},
                                       {"reason", "queue_full"}}),
            1);
  // ...and a probe arrival sheds outright: with the plane this full
  // (occupancy 1.0) the probe watermark refuses it before the queue is
  // even consulted.
  EXPECT_EQ(
      controller.Offer(3, RequestPriority::kHealthProbe, 0, true).outcome,
      AdmissionController::Outcome::kShed);
}

TEST(AdmissionControllerTest, ExpiredWaitersAreShedOnDrain) {
  SimClock clock;
  obs::MetricRegistry metrics;
  AdmissionController controller(SmallController(1, /*queue=*/2), &metrics,
                                 &clock);
  ASSERT_EQ(
      controller.Offer(1, RequestPriority::kUserFacing, 0, true).outcome,
      AdmissionController::Outcome::kAdmitted);
  const AdmissionController::Admission waiting = controller.Offer(
      1, RequestPriority::kUserFacing, /*deadline_micros=*/500, true);
  ASSERT_EQ(waiting.outcome, AdmissionController::Outcome::kQueued);
  clock.AdvanceMicros(1000);  // past the waiter's deadline
  const AdmissionController::Drained drained = controller.Release(1000);
  EXPECT_TRUE(drained.admitted.empty());
  ASSERT_EQ(drained.shed.size(), 1u);
  EXPECT_EQ(drained.shed[0].id, waiting.id);
  EXPECT_EQ(drained.shed[0].shed_reason, ShedReason::kQueueDeadline);
}

TEST(AdmissionControllerTest, CodelShedsStandingQueue) {
  SimClock clock;
  AdmissionController::Options options = SmallController(1, /*queue=*/8);
  options.codel_target_micros = 100;
  options.codel_interval_micros = 1000;
  obs::MetricRegistry metrics;
  AdmissionController controller(options, &metrics, &clock);
  ASSERT_EQ(
      controller.Offer(1, RequestPriority::kUserFacing, 0, true).outcome,
      AdmissionController::Outcome::kAdmitted);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(
        controller.Offer(1, RequestPriority::kUserFacing, 0, true).outcome,
        AdmissionController::Outcome::kQueued);
  }
  // First drain past target starts the CoDel interval; sojourn stays
  // above target for a full interval, so the next drain sheds the head.
  clock.AdvanceMicros(500);
  AdmissionController::Drained drained = controller.Release(500);
  EXPECT_EQ(drained.admitted.size(), 1u);
  EXPECT_TRUE(drained.shed.empty());
  clock.AdvanceMicros(1500);
  drained = controller.Release(1500);
  ASSERT_EQ(drained.shed.size(), 1u);
  EXPECT_EQ(drained.shed[0].shed_reason, ShedReason::kCodel);
  EXPECT_EQ(drained.admitted.size(), 1u);
}

TEST(AdmissionControllerTest, RetailerRateLimitShedsUserTrafficOnly) {
  SimClock clock;
  AdmissionController::Options options = SmallController(100);
  options.retailer_tokens_per_second = 1.0;
  options.retailer_burst = 2.0;
  obs::MetricRegistry metrics;
  AdmissionController controller(options, &metrics, &clock);
  EXPECT_EQ(
      controller.Offer(7, RequestPriority::kUserFacing, 0, false).outcome,
      AdmissionController::Outcome::kAdmitted);
  EXPECT_EQ(
      controller.Offer(7, RequestPriority::kUserFacing, 0, false).outcome,
      AdmissionController::Outcome::kAdmitted);
  EXPECT_EQ(
      controller.Offer(7, RequestPriority::kUserFacing, 0, false).reason,
      ShedReason::kRateLimited);
  // Another retailer has its own bucket.
  EXPECT_EQ(
      controller.Offer(8, RequestPriority::kUserFacing, 0, false).outcome,
      AdmissionController::Outcome::kAdmitted);
  // Probes don't consume (or get refused by) retailer tokens.
  EXPECT_EQ(
      controller.Offer(7, RequestPriority::kHealthProbe, 0, false).outcome,
      AdmissionController::Outcome::kAdmitted);
}

TEST(AdmissionControllerTest, PressureRisesUnderSaturation) {
  SimClock clock;
  AdmissionController::Options options = SmallController(1);
  options.pressure_alpha = 0.5;
  obs::MetricRegistry metrics;
  AdmissionController controller(options, &metrics, &clock);
  EXPECT_DOUBLE_EQ(controller.Pressure(), 0.0);
  ASSERT_EQ(
      controller.Offer(1, RequestPriority::kUserFacing, 0, false).outcome,
      AdmissionController::Outcome::kAdmitted);
  for (int i = 0; i < 20; ++i) {
    controller.Offer(1, RequestPriority::kUserFacing, 0, false);
  }
  EXPECT_GT(controller.Pressure(), 0.9);
}

// --- Frontend integration ----------------------------------------------------

testutil::FakeReader::Lookup CountingLookup(int* calls) {
  return [calls](data::RetailerId, const core::Context&)
             -> StatusOr<std::vector<core::ScoredItem>> {
    ++*calls;
    return std::vector<core::ScoredItem>{{1, 2.0}, {2, 1.5}, {3, 1.0},
                                         {4, 0.5}, {5, 0.1}};
  };
}

serving::RecommendationRequest UserRequest(data::RetailerId retailer = 1) {
  serving::RecommendationRequest request;
  request.retailer = retailer;
  request.context = {{0, data::ActionType::kView}};
  return request;
}

// Pumps the controller's pressure EWMA to ~1.0 by saturating the plane
// and hammering it with refused offers, then frees ONE slot so the
// frontend request under test is admitted (browned out, not shed). With
// pressure_alpha=0.02 the single release leaves pressure at ~0.99.
void SaturatePressure(AdmissionController* controller) {
  int admitted = 0;
  while (controller->Offer(99, RequestPriority::kUserFacing, 0, false)
             .outcome == AdmissionController::Outcome::kAdmitted) {
    ++admitted;
  }
  ASSERT_GT(admitted, 0);
  for (int i = 0; i < 500; ++i) {
    controller->Offer(99, RequestPriority::kUserFacing, 0, false);
  }
  controller->Release(/*latency_micros=*/1000);
}

TEST(FrontendOverloadTest, ShedRequestsReturnResourceExhausted) {
  SimClock clock;
  obs::MetricRegistry metrics;
  AdmissionController controller(SmallController(1), &metrics, &clock);
  Frontend::Options options;
  options.admission = &controller;
  int calls = 0;
  testutil::FakeReader reader(CountingLookup(&calls));
  Frontend frontend(&reader, nullptr, &metrics, &clock, options);

  // Fill the only slot from outside, so the frontend's request sheds.
  ASSERT_EQ(
      controller.Offer(9, RequestPriority::kUserFacing, 0, false).outcome,
      AdmissionController::Outcome::kAdmitted);
  auto response = frontend.Handle(UserRequest());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(calls, 0);  // the store was never touched
  auto snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_requests_total",
                                  {{"outcome", "shed"}, {"version", "0"}}),
            1);
  EXPECT_EQ(snapshot.CounterValue("serving_shed_total",
                                  {{"priority", "user_facing"},
                                   {"reason", "queue_full"}}),
            1);
}

TEST(FrontendOverloadTest, AdmittedRequestsReleaseTheirSlot) {
  SimClock clock;
  obs::MetricRegistry metrics;
  AdmissionController controller(SmallController(4), &metrics, &clock);
  Frontend::Options options;
  options.admission = &controller;
  int calls = 0;
  testutil::FakeReader reader(CountingLookup(&calls));
  Frontend frontend(&reader, nullptr, &metrics, &clock, options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(frontend.Handle(UserRequest()).ok());
  }
  EXPECT_EQ(controller.in_flight(), 0);
  EXPECT_EQ(calls, 10);
}

TEST(FrontendOverloadTest, BrownoutRungsDegradeProgressively) {
  SimClock clock;
  AdmissionController::Options coptions = SmallController(2);
  coptions.pressure_alpha = 0.02;
  obs::MetricRegistry metrics;
  AdmissionController controller(coptions, &metrics, &clock);
  Frontend::Options options;
  options.admission = &controller;
  options.brownout_max_results = 2;
  int calls = 0;
  testutil::FakeReader reader(CountingLookup(&calls));
  Frontend frontend(&reader, nullptr, &metrics, &clock, options);

  // Healthy: full results, rung 0; caches the last-known-good list.
  auto healthy = frontend.Handle(UserRequest());
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy->brownout_rung, 0);
  EXPECT_EQ(healthy->items.size(), 5u);

  SaturatePressure(&controller);  // pressure → ~1.0: rung 3 territory
  auto browned = frontend.Handle(UserRequest());
  ASSERT_TRUE(browned.ok());
  EXPECT_EQ(browned->brownout_rung, 3);
  EXPECT_EQ(browned->source, serving::ServingSource::kBrownoutLastKnownGood);
  EXPECT_TRUE(browned->degraded);
  EXPECT_EQ(browned->items.size(), 2u);  // rung >= 1 shrinks max_results
  EXPECT_EQ(calls, 1);                   // rung 3 never touched the store
  EXPECT_EQ(metrics.Snapshot().CounterValue("serving_brownout_total",
                                            {{"rung", "3"}}),
            1);

  // A retailer with no cached list yet falls through to the store.
  // (Re-pump first: each served request's release decays the EWMA.)
  SaturatePressure(&controller);
  auto fresh = frontend.Handle(UserRequest(/*retailer=*/2));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->brownout_rung, 3);
  EXPECT_EQ(fresh->source, serving::ServingSource::kStore);
  EXPECT_EQ(calls, 2);
}

TEST(FrontendOverloadTest, BrownoutRungTwoSkipsCalibrationThresholding) {
  SimClock clock;
  AdmissionController::Options coptions = SmallController(2);
  coptions.pressure_alpha = 0.02;
  obs::MetricRegistry metrics;
  AdmissionController controller(coptions, &metrics, &clock);
  Frontend::Options options;
  options.admission = &controller;
  // Only rungs 1-2 reachable: rung 3 threshold out of reach.
  options.brownout_shrink_pressure = 0.1;
  options.brownout_skip_threshold_pressure = 0.5;
  options.brownout_serve_lkg_pressure = 1.1;
  options.brownout_max_results = 3;
  int calls = 0;
  testutil::FakeReader reader(CountingLookup(&calls));
  Frontend frontend(&reader, nullptr, &metrics, &clock, options);

  SaturatePressure(&controller);
  serving::RecommendationRequest request = UserRequest();
  request.display_threshold = 0.99;  // would normally suppress items
  auto response = frontend.Handle(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->brownout_rung, 2);
  // Rung 2: thresholding skipped entirely (nothing suppressed), results
  // still shrunk, store still consulted.
  EXPECT_EQ(response->suppressed_by_threshold, 0);
  EXPECT_EQ(response->items.size(), 3u);
  EXPECT_EQ(response->source, serving::ServingSource::kStore);
  EXPECT_EQ(calls, 1);
}

TEST(FrontendOverloadTest, LruBoundsRetailerStateMap) {
  obs::MetricRegistry metrics;
  Frontend::Options options;
  options.max_retailer_states = 2;
  int calls = 0;
  testutil::FakeReader reader(CountingLookup(&calls));
  Frontend frontend(&reader, nullptr, &metrics, nullptr, options);

  EXPECT_TRUE(frontend.Handle(UserRequest(1)).ok());
  EXPECT_TRUE(frontend.Handle(UserRequest(2)).ok());
  EXPECT_EQ(frontend.NumRetailerStates(), 2);
  // Touch 1 so 2 becomes the LRU victim when 3 arrives.
  EXPECT_TRUE(frontend.Handle(UserRequest(1)).ok());
  EXPECT_TRUE(frontend.Handle(UserRequest(3)).ok());
  EXPECT_EQ(frontend.NumRetailerStates(), 2);
  auto snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_state_evictions_total", {}), 1);
  EXPECT_DOUBLE_EQ(snapshot.GaugeValue("serving_state_entries", {}), 2.0);

  // Retailer 2's cached fallback went with its state: a store failure for
  // 2 now has no last-known-good to serve, while 1 (still resident) does.
  // (Check 1 first — probing 2 re-creates its state and would evict 1.)
  reader.set_lookup(
      [](data::RetailerId, const core::Context&)
          -> StatusOr<std::vector<core::ScoredItem>> {
        return UnavailableError("store down");
      });
  auto resident = frontend.Handle(UserRequest(1));
  ASSERT_TRUE(resident.ok());
  EXPECT_EQ(resident->source, serving::ServingSource::kLastKnownGood);
  auto evicted = frontend.Handle(UserRequest(2));
  EXPECT_FALSE(evicted.ok());
}

TEST(FrontendOverloadTest, ClientRetriesSpendTheBudget) {
  obs::MetricRegistry metrics;
  Frontend::Options options;
  options.store_retries = 5;
  options.retry_budget.ratio = 0.0;  // nothing banked per request
  options.retry_budget.initial_tokens = 2.0;
  int calls = 0;
  testutil::FakeReader reader(
      [&calls](data::RetailerId, const core::Context&)
          -> StatusOr<std::vector<core::ScoredItem>> {
        ++calls;
        return UnavailableError("transient");
      });
  Frontend frontend(&reader, nullptr, &metrics, nullptr, options);
  // First request: 1 try + 2 budgeted retries, then the budget is dry.
  EXPECT_FALSE(frontend.Handle(UserRequest()).ok());
  EXPECT_EQ(calls, 3);
  // Second request: no tokens left → single attempt.
  EXPECT_FALSE(frontend.Handle(UserRequest()).ok());
  EXPECT_EQ(calls, 4);
  auto snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_client_retries_total", {}), 2);
  EXPECT_EQ(
      snapshot.CounterValue("serving_retry_budget_exhausted_total", {}), 2);
}

TEST(FrontendOverloadTest, ShedResponsesAreNotRetried) {
  // kResourceExhausted is not a retryable error: retrying into an
  // overloaded plane amplifies the overload.
  obs::MetricRegistry metrics;
  Frontend::Options options;
  options.store_retries = 5;
  options.retry_budget.initial_tokens = 100.0;
  int calls = 0;
  testutil::FakeReader reader(
      [&calls](data::RetailerId, const core::Context&)
          -> StatusOr<std::vector<core::ScoredItem>> {
        ++calls;
        return ResourceExhaustedError("downstream shed");
      });
  Frontend frontend(&reader, nullptr, &metrics, nullptr, options);
  EXPECT_FALSE(frontend.Handle(UserRequest()).ok());
  EXPECT_EQ(calls, 1);
}

TEST(FrontendOverloadTest, DeadlineOverrunRecordedOnResponseAndHistogram) {
  SimClock clock;
  obs::MetricRegistry metrics;
  Frontend::Options options;
  options.request_deadline_micros = 1000;
  int calls = 0;
  // Prime a last-known-good list with a fast lookup.
  testutil::FakeReader reader(CountingLookup(&calls));
  Frontend frontend(&reader, nullptr, &metrics, &clock, options);
  ASSERT_TRUE(frontend.Handle(UserRequest()).ok());
  // Now a slow lookup: 2500 micros against a 1000-micro deadline.
  reader.set_lookup(
      [&clock](data::RetailerId, const core::Context&)
          -> StatusOr<std::vector<core::ScoredItem>> {
        clock.AdvanceMicros(2500);
        return std::vector<core::ScoredItem>{{1, 2.0}};
      });
  auto response = frontend.Handle(UserRequest());
  ASSERT_TRUE(response.ok());  // served from last-known-good
  EXPECT_EQ(response->source, serving::ServingSource::kLastKnownGood);
  EXPECT_EQ(response->overrun_micros, 1500);
  auto snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_deadline_exceeded_total", {}), 1);
  const auto* histogram =
      snapshot.FindHistogram("serving_deadline_overrun_micros", {});
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->count, 1);
}

// --- Hedge budget ------------------------------------------------------------

TEST(HedgeBudgetTest, BudgetSuppressesHedgesPastTheRatio) {
  obs::MetricRegistry metrics;
  serving::ReplicatedStoreGroup::Options options;
  options.num_replicas = 2;
  options.hedged_reads = true;
  options.hedge_budget_ratio = 0.0;  // nothing banked: only the reserve
  options.hedge_budget_initial_tokens = 2.0;
  serving::ReplicatedStoreGroup group(options, &metrics);
  std::vector<core::ItemRecommendations> recs(1);
  recs[0].query = 0;
  recs[0].view_based = {{1, 1.0}};
  group.LoadRetailer(1, recs);

  const core::Context context{{0, data::ActionType::kView}};
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(group.ServeContext(1, context).ok());
  }
  auto snapshot = metrics.Snapshot();
  // The 2-token reserve afforded 2 hedges; the rest were suppressed.
  EXPECT_EQ(snapshot.CounterValue("serving_hedged_reads_total", {}), 2);
  EXPECT_EQ(snapshot.CounterValue("serving_hedges_suppressed_total", {}), 3);
}

TEST(HedgeBudgetTest, NegativeRatioKeepsLegacyUnlimitedHedging) {
  obs::MetricRegistry metrics;
  serving::ReplicatedStoreGroup::Options options;
  options.num_replicas = 2;
  options.hedged_reads = true;
  serving::ReplicatedStoreGroup group(options, &metrics);
  std::vector<core::ItemRecommendations> recs(1);
  recs[0].query = 0;
  recs[0].view_based = {{1, 1.0}};
  group.LoadRetailer(1, recs);
  const core::Context context{{0, data::ActionType::kView}};
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(group.ServeContext(1, context).ok());
  }
  auto snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_hedged_reads_total", {}), 5);
  EXPECT_EQ(snapshot.CounterValue("serving_hedges_suppressed_total", {}), 0);
}

// --- Canary overload exclusion (regression) ----------------------------------

struct CanaryOverloadFixture {
  data::WorldGenerator generator{[] {
    data::WorldConfig config;
    config.seed = 33;
    return config;
  }()};
  data::RetailerWorld world = generator.GenerateRetailer(0, 40);
  serving::RecommendationStore store;

  CanaryOverloadFixture() {
    std::vector<core::ItemRecommendations> batch(world.data.num_items());
    for (int i = 0; i < world.data.num_items(); ++i) {
      batch[i].query = i;
      batch[i].view_based = {{static_cast<data::ItemIndex>(
                                  (i + 1) % world.data.num_items()),
                              1.0}};
    }
    store.LoadRetailer(0, batch);   // active v1
    store.StageRetailer(0, batch);  // staged v2, identical quality
  }

  CanaryController::Options Options() {
    CanaryController::Options options;
    options.enabled = true;
    options.canary_fraction = 0.5;
    options.seed = 5;
    options.max_impressions = 400;
    options.oracle = [this](data::RetailerId) { return &world.truth; };
    return options;
  }
};

TEST(CanaryOverloadTest, OverloadShedsCountedAsSamplesWouldRollBack) {
  // The failure mode this PR closes, reconstructed: if canary-arm serves
  // hitting an overloaded plane were counted as clickless impressions,
  // a perfectly good batch would be rolled back.
  CanaryOverloadFixture f;
  CanaryController::Options options = f.Options();
  options.serve_hook = [&](data::RetailerId retailer,
                           const core::Context& context, int64_t version)
      -> CanaryController::CanaryServe {
    CanaryController::CanaryServe serve;
    if (version != 0) {
      // Canary arm shed, but miscounted as an ok empty serve (the old
      // behavior): an impression with no possible click.
      serve.status = OkStatus();
      return serve;
    }
    auto list = f.store.ServeContextAtVersion(retailer, context, 0);
    serve.status = list.status();
    if (list.ok()) serve.items = *list;
    return serve;
  };
  obs::MetricRegistry metrics;
  CanaryController controller(options, &metrics);
  const CanaryController::Outcome outcome =
      controller.Evaluate(0, f.store, 2, f.world.data, /*day=*/0);
  EXPECT_EQ(outcome.verdict, CanaryController::Verdict::kRolledBack);
}

TEST(CanaryOverloadTest, ShedAndDegradedServesAreExcludedFromArms) {
  // With the fix: the same overload is reported as kResourceExhausted,
  // the samples are excluded, and the good batch survives.
  CanaryOverloadFixture f;
  obs::MetricRegistry metrics;
  CanaryController::Options options = f.Options();
  int sheds = 0;
  options.serve_hook = [&](data::RetailerId retailer,
                           const core::Context& context, int64_t version)
      -> CanaryController::CanaryServe {
    CanaryController::CanaryServe serve;
    if (version != 0) {
      ++sheds;
      serve.status = ResourceExhaustedError("request shed: queue_full");
      return serve;
    }
    auto list = f.store.ServeContextAtVersion(retailer, context, 0);
    serve.status = list.status();
    if (list.ok()) serve.items = *list;
    return serve;
  };
  CanaryController controller(options, &metrics);
  const CanaryController::Outcome outcome =
      controller.Evaluate(0, f.store, 2, f.world.data, /*day=*/0);
  EXPECT_NE(outcome.verdict, CanaryController::Verdict::kRolledBack);
  EXPECT_EQ(outcome.canary_impressions, 0);
  EXPECT_GT(outcome.ignored_samples, 0);
  EXPECT_EQ(outcome.ignored_samples, sheds);
  EXPECT_EQ(metrics.Snapshot().CounterValue("canary_samples_ignored_total",
                                            {{"reason", "shed"}}),
            sheds);
}

TEST(CanaryOverloadTest, FallbackSourcedServesAreExcludedToo) {
  CanaryOverloadFixture f;
  obs::MetricRegistry metrics;
  CanaryController::Options options = f.Options();
  options.serve_hook = [&](data::RetailerId retailer,
                           const core::Context& context, int64_t version)
      -> CanaryController::CanaryServe {
    CanaryController::CanaryServe serve;
    auto list = f.store.ServeContextAtVersion(retailer, context, 0);
    serve.status = list.status();
    if (list.ok()) serve.items = *list;
    // Every canary-arm serve came from a fallback (brownout/LKG): it says
    // nothing about the staged batch.
    serve.degraded = version != 0;
    return serve;
  };
  CanaryController controller(options, &metrics);
  const CanaryController::Outcome outcome =
      controller.Evaluate(0, f.store, 2, f.world.data, /*day=*/0);
  EXPECT_NE(outcome.verdict, CanaryController::Verdict::kRolledBack);
  EXPECT_EQ(outcome.canary_impressions, 0);
  EXPECT_GT(outcome.ignored_samples, 0);
  EXPECT_GT(metrics.Snapshot().CounterValue("canary_samples_ignored_total",
                                            {{"reason", "degraded"}}),
            0);
}

// --- Load harness ------------------------------------------------------------

TEST(LoadGenTest, SameSeedRerunsAreByteIdentical) {
  serving::LoadGenOptions options;
  options.seed = 11;
  options.duration_seconds = 1.0;
  options.open_rps = 2000.0;
  options.probe_rps = 20.0;
  options.client_retries = 2;
  options.retry_budget_ratio = 0.1;
  options.admission.queue_capacity = 32;
  const serving::LoadGenReport a = serving::RunLoadGenerator(options);
  const serving::LoadGenReport b = serving::RunLoadGenerator(options);
  EXPECT_EQ(a.decision_hash, b.decision_hash);
  EXPECT_EQ(a.total_offered, b.total_offered);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_GT(a.total_completed, 0);

  options.seed = 12;  // a different seed must change the decision stream
  const serving::LoadGenReport c = serving::RunLoadGenerator(options);
  EXPECT_NE(a.decision_hash, c.decision_hash);
}

TEST(LoadGenTest, OverloadShedsProbesBeforeUsers) {
  serving::LoadGenOptions options;
  options.seed = 3;
  options.duration_seconds = 2.0;
  options.open_rps = 20000.0;  // far past the ~8000/s capacity
  options.probe_rps = 100.0;
  options.admission.queue_capacity = 32;
  const serving::LoadGenReport report = serving::RunLoadGenerator(options);
  const auto& probes = report.priorities[static_cast<int>(
      RequestPriority::kHealthProbe)];
  const auto& users = report.priorities[static_cast<int>(
      RequestPriority::kUserFacing)];
  EXPECT_GT(probes.shed, 0);
  EXPECT_GT(users.good, 0);
  // Strict ordering: every probe admission happened at lower occupancy
  // than the cheapest user-facing capacity shed.
  if (report.min_occupancy_user_shed <= 1.0) {
    EXPECT_LT(report.max_occupancy_probe_admitted,
              report.min_occupancy_user_shed);
  }
}

}  // namespace
}  // namespace sigmund
