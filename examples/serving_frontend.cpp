// The serving path (§II-A): materialized recommendations behind a
// two-tier (memory + flash) store, fronted by the request handler that
// routes by purchase stage and shopping-funnel stage and applies a
// calibrated display threshold.

#include <cstdio>

#include "common/logging.h"
#include "core/candidate_selector.h"
#include "core/grid_search.h"
#include "data/world_generator.h"
#include "serving/admission.h"
#include "serving/frontend.h"
#include "serving/loadgen.h"
#include "serving/tiered_store.h"
#include "sfs/mem_filesystem.h"

using namespace sigmund;  // example code; library code never does this

namespace {

void Show(const char* label,
          const StatusOr<serving::RecommendationResponse>& response) {
  if (!response.ok()) {
    std::printf("%-28s %s\n", label, response.status().ToString().c_str());
    return;
  }
  std::printf("%-28s funnel=%-5s post_purchase=%d suppressed=%d ->", label,
              core::FunnelStageName(response->funnel),
              response->post_purchase ? 1 : 0,
              response->suppressed_by_threshold);
  for (const core::ScoredItem& item : response->items) {
    std::printf(" %d", item.item);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // --- Offline: train one retailer and materialize recommendations with
  // the late-funnel variant included.
  data::WorldConfig config;
  config.seed = 21;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, 300);
  data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);

  core::TrainRequest request;
  request.catalog = &world.data.catalog;
  request.train_histories = &split.train;
  request.holdout = &split.holdout;
  request.params.num_factors = 16;
  request.params.num_epochs = 10;
  StatusOr<core::TrainOutput> trained = core::TrainOneModel(request);
  SIGCHECK(trained.ok());

  core::CooccurrenceModel cooccurrence = core::CooccurrenceModel::Build(
      world.data.histories, world.data.num_items(), {});
  core::RepurchaseEstimator repurchase = core::RepurchaseEstimator::Build(
      world.data.histories, world.data.catalog, {});
  core::CandidateSelector selector(&world.data.catalog, &cooccurrence,
                                   &repurchase);
  core::InferenceEngine engine(&trained->model, &selector);
  core::InferenceEngine::Options options;
  options.top_k = 5;
  options.materialize_late_funnel = true;
  std::vector<core::ItemRecommendations> recs =
      engine.MaterializeAll(options);

  // --- Serving: load the in-memory store (frontend source of truth) and
  // the two-tier store (capacity planning view).
  serving::RecommendationStore store;
  {
    std::vector<core::ItemRecommendations> copy = recs;
    store.LoadRetailer(0, std::move(copy));
  }
  sfs::MemFileSystem flash;
  serving::TieredStore tiered(&flash, {});
  SIGCHECK_OK(tiered.LoadRetailer(0, recs, world.data.ItemPopularity()));
  auto footprint = tiered.RetailerFootprint(0);
  SIGCHECK(footprint.ok());
  std::printf("tiered store: %lld items pinned hot, %lld on flash\n",
              static_cast<long long>(footprint->hot_items),
              static_cast<long long>(footprint->flash_items));

  // Calibrate display decisions on the model's own score scale.
  std::vector<double> scores = {-1.0, -0.5, 0.5, 1.0, 1.5, 2.0};
  std::vector<bool> clicked = {false, false, true, true, true, true};
  StatusOr<core::ScoreCalibrator> calibrator =
      core::ScoreCalibrator::Fit(scores, clicked);
  SIGCHECK(calibrator.ok());
  obs::MetricRegistry metrics;
  serving::Frontend frontend(&store, &*calibrator, &metrics);

  // --- Requests across the shopping journey for item 3's shopper.
  serving::RecommendationRequest req;
  req.retailer = 0;
  req.max_results = 5;

  req.context = {{3, data::ActionType::kView}};
  Show("early browse:", frontend.Handle(req));

  req.context = {{3, data::ActionType::kView},
                 {8, data::ActionType::kView},
                 {3, data::ActionType::kView}};
  Show("late funnel (repeat views):", frontend.Handle(req));

  req.context = {{3, data::ActionType::kConversion}};
  Show("post purchase:", frontend.Handle(req));

  // Threshold at the calibrated probability of the 3rd-ranked item: the
  // tail of the list is suppressed, the confident head survives.
  req.context = {{3, data::ActionType::kView}};
  StatusOr<serving::RecommendationResponse> unthresholded =
      frontend.Handle(req);
  SIGCHECK(unthresholded.ok() && unthresholded->items.size() >= 3);
  std::printf("calibrated click probabilities:");
  for (const core::ScoredItem& item : unthresholded->items) {
    std::printf(" %d:%.2f", item.item, calibrator->Probability(item.score));
  }
  std::printf("\n");
  req.display_threshold =
      calibrator->Probability(unthresholded->items[2].score) - 1e-9;
  Show("thresholded (keep top-3 p):", frontend.Handle(req));

  // Tiered lookups: hot vs. cold.
  auto pop = world.data.ItemPopularity();
  data::ItemIndex hot = 0, cold = 0;
  for (data::ItemIndex i = 1; i < world.data.num_items(); ++i) {
    if (pop[i] > pop[hot]) hot = i;
    if (pop[i] < pop[cold]) cold = i;
  }
  SIGCHECK(tiered.Lookup(0, hot, serving::RecommendationKind::kViewBased).ok());
  SIGCHECK(
      tiered.Lookup(0, cold, serving::RecommendationKind::kViewBased).ok());
  auto stats = tiered.stats();
  std::printf("tiered lookups: memory_hits=%lld flash_reads=%lld "
              "(simulated flash time %lldus)\n",
              static_cast<long long>(stats.memory_hits),
              static_cast<long long>(stats.flash_reads),
              static_cast<long long>(stats.simulated_flash_micros));

  // --- Overload: the same frontend behind an admission controller
  // (DESIGN.md §8). With the only two slots taken, a request sheds with
  // kResourceExhausted; under sustained pressure the brownout ladder
  // serves the cached last-known-good list without touching the store.
  SimClock clock;
  serving::AdmissionController::Options admission_options;
  admission_options.limiter.initial_limit = 2;
  admission_options.limiter.min_limit = 2;
  admission_options.limiter.max_limit = 2;
  admission_options.pressure_alpha = 0.02;  // slow EWMA: pressure lingers
  serving::AdmissionController admission(admission_options, &metrics, &clock);
  serving::Frontend::Options overload_options;
  overload_options.admission = &admission;
  overload_options.brownout_max_results = 2;
  serving::Frontend protected_frontend(&store, &*calibrator, &metrics, &clock,
                                       overload_options);
  req.display_threshold = 0.0;
  Show("admitted (plane idle):", protected_frontend.Handle(req));
  admission.Offer(0, serving::RequestPriority::kUserFacing, 0, false);
  admission.Offer(0, serving::RequestPriority::kUserFacing, 0, false);
  Show("shed (plane full):", protected_frontend.Handle(req));
  for (int i = 0; i < 500; ++i) {  // sustained saturation -> pressure ~1
    admission.Offer(0, serving::RequestPriority::kUserFacing, 0, false);
  }
  admission.Release(1000);  // one slot free, pressure still ~1: brownout
  StatusOr<serving::RecommendationResponse> browned =
      protected_frontend.Handle(req);
  SIGCHECK(browned.ok() && browned->brownout_rung == 3);
  Show("brownout rung 3 (LKG):", browned);

  // The goodput story at a glance: 3x capacity offered, admission keeps
  // the plane out of congestion collapse (full curve: bench/e21_overload).
  serving::LoadGenOptions load;
  load.seed = 21;
  load.duration_seconds = 2.0;
  load.open_rps = 24000.0;
  load.probe_rps = 50.0;
  load.admission.queue_capacity = 64;
  load.admission.limiter.max_limit = 2048;
  serving::LoadGenReport report = serving::RunLoadGenerator(load);
  std::printf(
      "overload (3x capacity): offered=%.0f rps goodput=%.0f rps p99=%.1fms "
      "shed(user)=%lld shed(probe)=%lld\n",
      report.offered_rps, report.goodput_rps,
      report.p99_latency_micros / 1000.0,
      static_cast<long long>(
          report.priorities[static_cast<int>(
                                serving::RequestPriority::kUserFacing)]
              .shed),
      static_cast<long long>(
          report.priorities[static_cast<int>(
                                serving::RequestPriority::kHealthProbe)]
              .shed));
  return 0;
}
