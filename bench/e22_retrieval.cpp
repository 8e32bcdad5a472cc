// E22: Online embedding retrieval (DESIGN.md §11). Three questions about
// the ANN serving path, answered head-to-head against the exact scan and
// the materialized store lookup:
//
//  1. Quality — recall@10 of the IVF index vs the exact top-10, across
//     catalog sizes. Acceptance: >= 0.95 at the served nprobe.
//  2. Latency — p50/p99 request latency of each plane. The gated numbers
//     come from a deterministic cost model over the per-query work the
//     index actually did (lists probed, candidates scanned), so same-seed
//     reruns are byte-identical; measured wall-clock is reported alongside
//     for information but never gated (CI hardware jitter).
//  3. Safety — the CanaryController must promote a healthy index evaluated
//     against the materialized plane on a seeded world, and auto-roll-back
//     a degraded one (factors truncated to their first dimension: a
//     well-formed, CRC-clean artifact that retrieves garbage — exactly the
//     failure only live signal catches).
//
// Results land in BENCH_retrieval.json; bench/baselines/retrieval_quick.json
// gates recall, the ANN/materialized p99 ratio, scan fraction, and both
// canary verdicts in CI.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/world_generator.h"
#include "pipeline/canary.h"
#include "retrieval/artifact.h"
#include "retrieval/index.h"
#include "retrieval/reader.h"
#include "serving/store.h"

using namespace sigmund;

namespace {

constexpr int kDim = 16;
constexpr int kTopK = 10;
constexpr int kQueries = 200;

// --- Deterministic request-latency cost model -------------------------------
// Fixed constants, documented rather than measured, so the gated p50/p99
// are pure functions of the per-query work counters. Units: microseconds.
// Both planes share the request overhead (parse, funnel, admission,
// metrics); the materialized plane then pays one store lookup + list copy,
// the retrieval planes pay query-embedding + centroid ranking + a per-
// candidate dot product (~30ns for a 16-dim f32 row, memory-bound).
constexpr double kBaseMicros = 120.0;
constexpr double kStoreLookupMicros = 60.0;
constexpr double kAnnFixedMicros = 25.0;
constexpr double kPerCentroidMicros = 0.02;
constexpr double kPerCandidateMicros = 0.03;

double SimAnnMicros(const retrieval::SearchStats& stats, int num_lists) {
  return kBaseMicros + kAnnFixedMicros + kPerCentroidMicros * num_lists +
         kPerCandidateMicros * static_cast<double>(stats.candidates_scanned);
}

double Percentile(std::vector<double> values, double p) {
  SIGCHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[idx];
}

// Clustered synthetic catalog: `n` item vectors scattered around 64 cluster
// centers — the structure (categories, brands) that makes IVF coarse
// quantization work on real factor matrices.
struct Catalog {
  std::vector<float> items;    // n x kDim
  std::vector<float> queries;  // kQueries x kDim
};

Catalog MakeCatalog(uint64_t seed, int n) {
  Rng rng(seed);
  const int kClusters = 64;
  std::vector<float> centers(kClusters * kDim);
  for (float& v : centers) v = static_cast<float>(rng.Gaussian());
  Catalog catalog;
  catalog.items.resize(static_cast<size_t>(n) * kDim);
  for (int i = 0; i < n; ++i) {
    const float* c = centers.data() + (rng.Uniform(kClusters)) * kDim;
    for (int k = 0; k < kDim; ++k) {
      catalog.items[static_cast<size_t>(i) * kDim + k] =
          c[k] + static_cast<float>(rng.Gaussian(0.0, 0.35));
    }
  }
  // Queries look like users: near a cluster, with more spread.
  catalog.queries.resize(static_cast<size_t>(kQueries) * kDim);
  for (int q = 0; q < kQueries; ++q) {
    const float* c = centers.data() + (rng.Uniform(kClusters)) * kDim;
    for (int k = 0; k < kDim; ++k) {
      catalog.queries[static_cast<size_t>(q) * kDim + k] =
          c[k] + static_cast<float>(rng.Gaussian(0.0, 0.6));
    }
  }
  return catalog;
}

struct SizeResult {
  int n = 0;
  int num_lists = 0;
  int nprobe = 0;
  double recall = 0.0;
  double scan_fraction = 0.0;
  double sim_p50_ann = 0.0, sim_p99_ann = 0.0;
  double sim_p50_exact = 0.0, sim_p99_exact = 0.0;
  double sim_p50_store = 0.0, sim_p99_store = 0.0;
  double wall_p50_ann = 0.0, wall_p99_ann = 0.0;
  double wall_p50_exact = 0.0, wall_p99_exact = 0.0;
  double wall_p50_store = 0.0, wall_p99_store = 0.0;
  double p99_ratio = 0.0;  // sim ANN p99 / sim materialized p99
};

SizeResult RunSize(int n) {
  Catalog catalog = MakeCatalog(/*seed=*/1000 + n, n);

  SizeResult result;
  result.n = n;
  result.num_lists = std::max(
      16, static_cast<int>(std::lround(std::sqrt(static_cast<double>(n)))));
  result.nprobe = std::max(4, result.num_lists / 4);

  retrieval::ExactIndex exact(catalog.items, kDim);
  retrieval::AnnIndex::Options options;
  options.num_lists = result.num_lists;
  retrieval::AnnIndex ann =
      retrieval::AnnIndex::Build(catalog.items, kDim, options);

  // Materialized stand-in: the per-item top-K lists are precomputed
  // offline, so lookup cost is independent of their content — load
  // arbitrary lists and measure the lookup itself.
  serving::RecommendationStore store;
  {
    std::vector<core::ItemRecommendations> batch(n);
    for (int i = 0; i < n; ++i) {
      batch[i].query = i;
      for (int j = 1; j <= kTopK; ++j) {
        batch[i].view_based.push_back({(i + j) % n, 1.0 / j});
      }
    }
    store.LoadRetailer(0, std::move(batch));
  }

  std::vector<double> sim_ann, sim_exact, sim_store;
  std::vector<double> wall_ann, wall_exact, wall_store;
  double hits = 0.0;
  int64_t scanned_total = 0;
  RealClock* wall = RealClock::Get();
  for (int q = 0; q < kQueries; ++q) {
    const float* query = catalog.queries.data() + static_cast<size_t>(q) * kDim;

    int64_t t0 = wall->NowMicros();
    std::vector<core::ScoredItem> truth =
        exact.Search(query, kTopK, 0, nullptr);
    int64_t t1 = wall->NowMicros();
    retrieval::SearchStats stats;
    std::vector<core::ScoredItem> approx =
        ann.Search(query, kTopK, result.nprobe, &stats);
    int64_t t2 = wall->NowMicros();
    StatusOr<std::vector<core::ScoredItem>> materialized = store.ServeContext(
        0, {{static_cast<data::ItemIndex>(q % n), data::ActionType::kView}});
    int64_t t3 = wall->NowMicros();
    SIGCHECK(materialized.ok());

    wall_exact.push_back(static_cast<double>(t1 - t0));
    wall_ann.push_back(static_cast<double>(t2 - t1));
    wall_store.push_back(static_cast<double>(t3 - t2));
    sim_exact.push_back(kBaseMicros + kAnnFixedMicros +
                        kPerCandidateMicros * static_cast<double>(n));
    sim_ann.push_back(SimAnnMicros(stats, result.num_lists));
    sim_store.push_back(kBaseMicros + kStoreLookupMicros);
    scanned_total += stats.candidates_scanned;

    std::vector<bool> found(truth.size(), false);
    for (const core::ScoredItem& item : approx) {
      for (size_t t = 0; t < truth.size(); ++t) {
        if (!found[t] && truth[t].item == item.item) {
          found[t] = true;
          hits += 1.0;
          break;
        }
      }
    }
  }

  result.recall = hits / (kQueries * kTopK);
  result.scan_fraction =
      static_cast<double>(scanned_total) / (static_cast<double>(kQueries) * n);
  result.sim_p50_ann = Percentile(sim_ann, 0.50);
  result.sim_p99_ann = Percentile(sim_ann, 0.99);
  result.sim_p50_exact = Percentile(sim_exact, 0.50);
  result.sim_p99_exact = Percentile(sim_exact, 0.99);
  result.sim_p50_store = Percentile(sim_store, 0.50);
  result.sim_p99_store = Percentile(sim_store, 0.99);
  result.wall_p50_ann = Percentile(wall_ann, 0.50);
  result.wall_p99_ann = Percentile(wall_ann, 0.99);
  result.wall_p50_exact = Percentile(wall_exact, 0.50);
  result.wall_p99_exact = Percentile(wall_exact, 0.99);
  result.wall_p50_store = Percentile(wall_store, 0.50);
  result.wall_p99_store = Percentile(wall_store, 0.99);
  result.p99_ratio = result.sim_p99_ann / result.sim_p99_store;

  // The acceptance bar, enforced in the binary as well as the baseline:
  // served-quality recall and a p99 within 2x of the materialized path.
  SIGCHECK(result.recall >= 0.95);
  SIGCHECK(result.p99_ratio <= 2.0);
  return result;
}

// --- Canary gate on a seeded world ------------------------------------------

struct CanaryResult {
  bool healthy_promoted = false;
  bool degraded_rolled_back = false;
  double healthy_ctr_ratio = 0.0;
  double degraded_ctr_ratio = 0.0;
};

CanaryResult RunCanaryScenario(int world_items) {
  data::RetailerWorld world = bench::MakeWorld(/*seed=*/7, world_items);
  const int dim = world.truth.dim;
  const int n = static_cast<int>(world.truth.item_vecs.size());
  std::vector<float> factors;
  factors.reserve(static_cast<size_t>(n) * dim);
  for (const std::vector<float>& row : world.truth.item_vecs) {
    factors.insert(factors.end(), row.begin(), row.end());
  }

  // Materialized plane: exact offline top-K per query item from the same
  // factors the index will serve — the honest baseline arm.
  retrieval::ExactIndex exact(factors, dim);
  serving::RecommendationStore store;
  {
    std::vector<core::ItemRecommendations> batch(n);
    for (int i = 0; i < n; ++i) {
      batch[i].query = i;
      const float* query = factors.data() + static_cast<size_t>(i) * dim;
      for (core::ScoredItem item :
           exact.Search(query, kTopK + 1, 0, nullptr)) {
        if (item.item != i &&
            static_cast<int>(batch[i].view_based.size()) < kTopK) {
          batch[i].view_based.push_back(item);
        }
      }
    }
    store.LoadRetailer(0, std::move(batch));
  }

  // Online plane: the same factors behind the ANN reader. v1 = healthy;
  // v2 = degraded — every factor truncated to its first dimension, the
  // classic torn-export failure (file intact, numbers meaningless).
  retrieval::OnlineRetrievalReader::Options reader_options;
  reader_options.top_k = kTopK;
  reader_options.nprobe = 8;
  obs::MetricRegistry metrics;
  retrieval::OnlineRetrievalReader reader(reader_options, &metrics);
  retrieval::AnnIndex::Options ann_options;
  ann_options.num_lists = 32;
  const int64_t healthy = reader.StageArtifact(
      0, retrieval::BuildArtifactFromFactors(0, factors, factors, dim, 25,
                                             0.85, ann_options));
  std::vector<float> truncated = factors;
  for (size_t i = 0; i < truncated.size(); ++i) {
    if (i % dim != 0) truncated[i] = 0.0f;
  }
  const int64_t degraded = reader.StageArtifact(
      0, retrieval::BuildArtifactFromFactors(0, truncated, truncated, dim, 25,
                                             0.85, ann_options));

  pipeline::CanaryController::Options options;
  options.enabled = true;
  options.canary_fraction = 0.5;
  options.max_impressions = 2400;
  options.seed = 17;
  options.oracle = [&](data::RetailerId) { return &world.truth; };
  options.plane = "retrieval";
  options.serve_hook = [&](data::RetailerId retailer,
                           const core::Context& context, int64_t version) {
    pipeline::CanaryController::CanaryServe serve;
    StatusOr<std::vector<core::ScoredItem>> result =
        version != 0 ? reader.ServeContextAtVersion(retailer, context, version)
                     : store.ServeContext(retailer, context);
    serve.status = result.status();
    if (result.ok()) serve.items = std::move(result).value();
    return serve;
  };
  pipeline::CanaryController controller(options, &metrics);

  CanaryResult result;
  pipeline::CanaryController::Outcome good =
      controller.Evaluate(0, store, healthy, world.data, /*day=*/0);
  result.healthy_promoted =
      good.verdict == pipeline::CanaryController::Verdict::kPromoted;
  result.healthy_ctr_ratio =
      good.ControlCtr() > 0.0 ? good.CanaryCtr() / good.ControlCtr() : 0.0;

  pipeline::CanaryController::Outcome bad =
      controller.Evaluate(0, store, degraded, world.data, /*day=*/0);
  result.degraded_rolled_back =
      bad.verdict == pipeline::CanaryController::Verdict::kRolledBack;
  result.degraded_ctr_ratio =
      bad.ControlCtr() > 0.0 ? bad.CanaryCtr() / bad.ControlCtr() : 0.0;

  SIGCHECK(result.healthy_promoted);
  SIGCHECK(result.degraded_rolled_back);
  return result;
}

// Fingerprint of everything gated: recall, work counters, cost-model
// percentiles, canary verdicts and CTR ratios. Wall-clock excluded.
uint64_t Fingerprint(const std::vector<SizeResult>& sizes,
                     const CanaryResult& canary) {
  uint64_t h = kFnv64OffsetBasis;
  for (const SizeResult& r : sizes) {
    h = Fnv1a64(StrFormat("%d|%d|%d|%.9f|%.9f|%.6f|%.6f|%.6f|%.6f", r.n,
                          r.num_lists, r.nprobe, r.recall, r.scan_fraction,
                          r.sim_p50_ann, r.sim_p99_ann, r.sim_p99_store,
                          r.p99_ratio),
                h);
  }
  h = Fnv1a64(StrFormat("%d|%d|%.9f|%.9f", canary.healthy_promoted ? 1 : 0,
                        canary.degraded_rolled_back ? 1 : 0,
                        canary.healthy_ctr_ratio, canary.degraded_ctr_ratio),
              h);
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::vector<int> sizes =
      quick ? std::vector<int>{1000, 4000}
            : std::vector<int>{1000, 4000, 16000, 64000};
  const int world_items = quick ? 400 : 1200;

  auto run_all = [&](std::vector<SizeResult>* size_results,
                     CanaryResult* canary_result) {
    size_results->clear();
    for (int n : sizes) size_results->push_back(RunSize(n));
    *canary_result = RunCanaryScenario(world_items);
  };

  std::printf("e22_retrieval: ANN vs exact vs materialized (%s run)\n",
              quick ? "quick" : "full");
  std::vector<SizeResult> size_results;
  CanaryResult canary;
  run_all(&size_results, &canary);

  std::printf("%-8s %6s %6s | %8s %8s | %10s %10s %10s | %10s\n", "items",
              "lists", "probe", "recall", "scan%", "ann_p99", "exact_p99",
              "store_p99", "p99ratio");
  for (const SizeResult& r : size_results) {
    std::printf(
        "%-8d %6d %6d | %8.4f %7.1f%% | %9.1fus %9.1fus %9.1fus | %10.3f\n",
        r.n, r.num_lists, r.nprobe, r.recall, 100.0 * r.scan_fraction,
        r.sim_p99_ann, r.sim_p99_exact, r.sim_p99_store, r.p99_ratio);
    std::printf("%-8s wall-clock (informational): ann %.0f/%.0fus "
                "exact %.0f/%.0fus store %.0f/%.0fus (p50/p99)\n",
                "", r.wall_p50_ann, r.wall_p99_ann, r.wall_p50_exact,
                r.wall_p99_exact, r.wall_p50_store, r.wall_p99_store);
  }
  std::printf(
      "canary: healthy %s (ctr ratio %.3f), degraded %s (ctr ratio %.3f)\n",
      canary.healthy_promoted ? "promoted" : "NOT PROMOTED",
      canary.healthy_ctr_ratio,
      canary.degraded_rolled_back ? "rolled back" : "NOT ROLLED BACK",
      canary.degraded_ctr_ratio);

  // Same-seed rerun of the whole scenario must be byte-identical on every
  // gated number.
  std::vector<SizeResult> rerun_sizes;
  CanaryResult rerun_canary;
  run_all(&rerun_sizes, &rerun_canary);
  const uint64_t hash = Fingerprint(size_results, canary);
  const uint64_t rerun_hash = Fingerprint(rerun_sizes, rerun_canary);
  SIGCHECK(hash == rerun_hash);
  std::printf("determinism: %016llx == %016llx\n",
              static_cast<unsigned long long>(hash),
              static_cast<unsigned long long>(rerun_hash));

  std::string json = "{\n  \"bench\": \"e22_retrieval\",\n";
  json += StrFormat("  \"quick\": %s,\n", quick ? "true" : "false");
  json += "  \"sizes\": [\n";
  for (size_t i = 0; i < size_results.size(); ++i) {
    const SizeResult& r = size_results[i];
    json += StrFormat(
        "    {\"n\": %d, \"num_lists\": %d, \"nprobe\": %d, "
        "\"recall_at_10\": %.6f, \"scan_fraction\": %.6f,\n"
        "     \"sim_micros\": {\"ann_p50\": %.3f, \"ann_p99\": %.3f, "
        "\"exact_p99\": %.3f, \"materialized_p99\": %.3f, "
        "\"p99_ratio\": %.6f},\n"
        "     \"wall_micros_informational\": {\"ann_p50\": %.1f, "
        "\"ann_p99\": %.1f, \"exact_p99\": %.1f, \"materialized_p99\": "
        "%.1f}}%s\n",
        r.n, r.num_lists, r.nprobe, r.recall, r.scan_fraction, r.sim_p50_ann,
        r.sim_p99_ann, r.sim_p99_exact, r.sim_p99_store, r.p99_ratio,
        r.wall_p50_ann, r.wall_p99_ann, r.wall_p99_exact, r.wall_p99_store,
        i + 1 < size_results.size() ? "," : "");
  }
  json += "  ],\n";
  json += "  \"recall\": {";
  for (size_t i = 0; i < size_results.size(); ++i) {
    json += StrFormat("%s\"n%d\": %.6f", i > 0 ? ", " : "",
                      size_results[i].n, size_results[i].recall);
  }
  json += "},\n  \"scan\": {";
  for (size_t i = 0; i < size_results.size(); ++i) {
    json += StrFormat("%s\"fraction_n%d\": %.6f", i > 0 ? ", " : "",
                      size_results[i].n, size_results[i].scan_fraction);
  }
  json += "},\n  \"latency\": {";
  for (size_t i = 0; i < size_results.size(); ++i) {
    json += StrFormat("%s\"sim_p99_ratio_n%d\": %.6f", i > 0 ? ", " : "",
                      size_results[i].n, size_results[i].p99_ratio);
  }
  json += StrFormat(
      "},\n  \"canary\": {\"healthy_promoted\": %d, "
      "\"degraded_rolled_back\": %d, \"healthy_ctr_ratio\": %.6f, "
      "\"degraded_ctr_ratio\": %.6f},\n",
      canary.healthy_promoted ? 1 : 0, canary.degraded_rolled_back ? 1 : 0,
      canary.healthy_ctr_ratio, canary.degraded_ctr_ratio);
  json += StrFormat(
      "  \"determinism\": {\"hash\": \"%016llx\", \"rerun_hash\": "
      "\"%016llx\", \"identical\": true}\n}\n",
      static_cast<unsigned long long>(hash),
      static_cast<unsigned long long>(rerun_hash));

  std::FILE* out = std::fopen("BENCH_retrieval.json", "w");
  SIGCHECK(out != nullptr);
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("wrote BENCH_retrieval.json\n");
  return 0;
}
