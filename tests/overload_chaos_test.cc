// Overload chaos: hammers one Frontend from many threads while the
// circuit breaker flaps between open/half-open, the admission controller
// admits and releases, and the LRU cap churns retailer states — the three
// mutating paths under Frontend::mu_ plus the controller's own lock, all
// racing. Runs under the `chaos` ctest label, so the CI ASan/TSan lanes
// pick it up; TSan is the real assertion here.
//
// Also smoke-runs the million-user load harness at a small scale and
// checks the same-seed determinism contract end to end.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "fake_reader.h"
#include "serving/admission.h"
#include "serving/frontend.h"
#include "serving/loadgen.h"

namespace sigmund {
namespace {

using serving::AdmissionController;
using serving::Frontend;
using serving::RequestPriority;

TEST(OverloadChaosTest, ConcurrentHandleUnderBreakerLimiterAndLru) {
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 2000;
  constexpr int kRetailers = 64;
  constexpr int kStateCap = 16;

  obs::MetricRegistry metrics;
  AdmissionController::Options coptions;
  coptions.limiter.initial_limit = 4;
  coptions.limiter.min_limit = 2;
  coptions.limiter.max_limit = 16;
  coptions.limiter.window = 8;
  // RealClock: actual wall time drives breaker cooldowns and bucket
  // refills, so thread interleaving (not a scripted SimClock) decides
  // when the breaker half-opens.
  AdmissionController controller(coptions, &metrics, nullptr);

  Frontend::Options options;
  options.admission = &controller;
  options.max_retailer_states = kStateCap;
  options.breaker_failure_threshold = 3;
  options.breaker_open_seconds = 0.0005;  // flaps open -> half-open fast
  options.store_retries = 2;
  options.retry_budget.ratio = 0.2;

  // The lookup itself races: every 7th call fails, so breakers trip,
  // half-open probes go through, and the retry budget is spent — all
  // while other threads serve fine and churn the LRU.
  std::atomic<int64_t> lookups{0};
  testutil::FakeReader reader(
      [&lookups](data::RetailerId, const core::Context&)
          -> StatusOr<std::vector<core::ScoredItem>> {
        const int64_t n = lookups.fetch_add(1, std::memory_order_relaxed);
        if (n % 7 == 6) return UnavailableError("injected store failure");
        return std::vector<core::ScoredItem>{{1, 2.0}, {2, 1.0}};
      });
  Frontend frontend(&reader, nullptr, &metrics, nullptr, options);

  std::atomic<int64_t> ok{0}, shed{0}, failed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        serving::RecommendationRequest request;
        // Thread-skewed retailer choice keeps the LRU evicting hot.
        request.retailer = (t * 31 + i * 7) % kRetailers;
        request.context = {{0, data::ActionType::kView}};
        if (i % 17 == 0) request.priority = RequestPriority::kHealthProbe;
        auto response = frontend.Handle(request);
        if (response.ok()) {
          ++ok;
        } else if (response.status().code() ==
                   StatusCode::kResourceExhausted) {
          ++shed;
        } else {
          ++failed;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Liveness + conservation: every admitted request released its slot,
  // every request got exactly one outcome, the LRU held its cap.
  EXPECT_EQ(controller.in_flight(), 0);
  EXPECT_EQ(ok + shed + failed,
            static_cast<int64_t>(kThreads) * kRequestsPerThread);
  EXPECT_GT(ok.load(), 0);
  EXPECT_LE(frontend.NumRetailerStates(), kStateCap);
  EXPECT_GE(controller.concurrency_limit(), coptions.limiter.min_limit);
  EXPECT_LE(controller.concurrency_limit(), coptions.limiter.max_limit);
}

TEST(OverloadChaosTest, LoadHarnessOverloadSmoke) {
  // A compressed e21: a few simulated seconds at 3x capacity with flash
  // crowd, retry pressure and probes. Checks the harness's headline
  // invariants (admission keeps goodput alive, probes shed first, reruns
  // are byte-identical) without the bench's full duration.
  serving::LoadGenOptions options;
  options.seed = 77;
  options.duration_seconds = 3.0;
  options.num_retailers = 50;
  options.open_rps = 24000.0;  // ~3x the 8k/s service capacity
  options.closed_users = 2000;
  options.think_seconds = 1.0;
  options.probe_rps = 50.0;
  options.canary_rps = 50.0;
  options.flash_at_seconds = 1.0;
  options.flash_duration_seconds = 0.5;
  options.flash_factor = 2.0;
  options.client_retries = 2;
  options.retry_budget_ratio = 0.1;
  options.admission.queue_capacity = 64;
  options.admission.limiter.max_limit = 2048;

  const serving::LoadGenReport report = serving::RunLoadGenerator(options);
  const auto& users =
      report.priorities[static_cast<int>(RequestPriority::kUserFacing)];
  const auto& probes =
      report.priorities[static_cast<int>(RequestPriority::kHealthProbe)];
  EXPECT_GT(report.total_offered, 0);
  EXPECT_GT(users.good, 0);
  // Overloaded 3x: something must shed, and probes shed proportionally
  // harder than user traffic (priority ordering).
  EXPECT_GT(probes.shed + users.shed, 0);
  if (probes.offered > 0 && users.offered > 0 && users.shed > 0) {
    const double probe_shed_rate =
        static_cast<double>(probes.shed) / probes.offered;
    const double user_shed_rate =
        static_cast<double>(users.shed) / users.offered;
    EXPECT_GE(probe_shed_rate, user_shed_rate);
  }
  // Goodput survives the overload (no congestion collapse).
  EXPECT_GT(report.goodput_rps, 1000.0);

  const serving::LoadGenReport rerun = serving::RunLoadGenerator(options);
  EXPECT_EQ(report.decision_hash, rerun.decision_hash);
  EXPECT_EQ(report.total_offered, rerun.total_offered);
  EXPECT_EQ(report.total_completed, rerun.total_completed);
}

}  // namespace
}  // namespace sigmund
