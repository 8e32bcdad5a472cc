// E10: Lightweight serving (§II-A, §V of the paper) — all computation
// happens offline; serving is an in-memory lookup of materialized lists,
// batch-updated per retailer. Measures lookup latency, context-serving
// latency, the Frontend's request path around it, batch-load throughput,
// and the CRC-32 under every durable frame.
//
// google-benchmark binary.

#include <benchmark/benchmark.h>

#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/inference.h"
#include "core/recommendation_batch.h"
#include "serving/frontend.h"
#include "serving/replicated_store.h"
#include "serving/store.h"
#include "serving/tiered_store.h"
#include "sfs/mem_filesystem.h"

using namespace sigmund;

namespace {

constexpr int kItems = 5000;
constexpr int kRetailers = 50;

std::vector<core::ItemRecommendations> MakeRetailerRecs(int items,
                                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<core::ItemRecommendations> recs(items);
  for (int i = 0; i < items; ++i) {
    recs[i].query = i;
    for (int k = 0; k < 10; ++k) {
      recs[i].view_based.push_back(
          {static_cast<data::ItemIndex>(rng.Uniform(items)),
           rng.UniformDouble()});
      recs[i].purchase_based.push_back(
          {static_cast<data::ItemIndex>(rng.Uniform(items)),
           rng.UniformDouble()});
    }
  }
  return recs;
}

serving::RecommendationStore& LoadedStore() {
  static serving::RecommendationStore* store = [] {
    auto* s = new serving::RecommendationStore;
    for (data::RetailerId r = 0; r < kRetailers; ++r) {
      s->LoadRetailer(r, MakeRetailerRecs(kItems, r));
    }
    return s;
  }();
  return *store;
}

void BM_ServingLookup(benchmark::State& state) {
  serving::RecommendationStore& store = LoadedStore();
  Rng rng(1);
  for (auto _ : state) {
    data::RetailerId retailer =
        static_cast<data::RetailerId>(rng.Uniform(kRetailers));
    data::ItemIndex item = static_cast<data::ItemIndex>(rng.Uniform(kItems));
    auto recs =
        store.Lookup(retailer, item, serving::RecommendationKind::kViewBased);
    benchmark::DoNotOptimize(recs);
  }
}
BENCHMARK(BM_ServingLookup);

void BM_ServeContext(benchmark::State& state) {
  serving::RecommendationStore& store = LoadedStore();
  Rng rng(2);
  core::Context context = {{3, data::ActionType::kView},
                           {7, data::ActionType::kSearch},
                           {11, data::ActionType::kConversion}};
  for (auto _ : state) {
    data::RetailerId retailer =
        static_cast<data::RetailerId>(rng.Uniform(kRetailers));
    context.back().item = static_cast<data::ItemIndex>(rng.Uniform(kItems));
    auto recs = store.ServeContext(retailer, context);
    benchmark::DoNotOptimize(recs);
  }
}
BENCHMARK(BM_ServeContext);

// The whole request path: a Frontend, counting into a registry, over a
// 2-replica group. Against BM_ServeContext this is what the Frontend and
// the replica routing add to a lookup; the multi-threaded runs show what
// they cost when request threads share the registry and the group.
void BM_FrontendHandle(benchmark::State& state) {
  struct Plane {
    obs::MetricRegistry metrics;
    serving::ReplicatedStoreGroup group;
    serving::Frontend frontend;
    Plane()
        : group(
              [] {
                serving::ReplicatedStoreGroup::Options options;
                options.num_replicas = 2;
                return options;
              }(),
              &metrics),
          frontend(&group, /*calibrator=*/nullptr, &metrics) {
      for (data::RetailerId r = 0; r < kRetailers; ++r) {
        group.LoadRetailer(r, MakeRetailerRecs(kItems, r));
      }
    }
  };
  static Plane* plane = new Plane;
  Rng rng(3 + static_cast<uint64_t>(state.thread_index()));
  serving::RecommendationRequest request;
  request.context = {{3, data::ActionType::kView},
                     {7, data::ActionType::kSearch},
                     {11, data::ActionType::kView}};
  for (auto _ : state) {
    request.retailer = static_cast<data::RetailerId>(rng.Uniform(kRetailers));
    request.context.back().item =
        static_cast<data::ItemIndex>(rng.Uniform(kItems));
    auto response = plane->frontend.Handle(request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_FrontendHandle)->Threads(1)->Threads(3);

void BM_BatchLoadRetailer(benchmark::State& state) {
  serving::RecommendationStore store;
  const int items = static_cast<int>(state.range(0));
  auto recs = MakeRetailerRecs(items, 9);
  for (auto _ : state) {
    store.LoadRetailer(0, recs);
  }
  state.counters["items/s"] = benchmark::Counter(
      static_cast<double>(items) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchLoadRetailer)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMillisecond);

// The store side of a daily refresh: read a CRC-framed batch file, check
// the frame, decode and validate the columns, and stage them as a new
// version. The batch is what the inference job writes.
void BM_StageRetailerFromFile(benchmark::State& state) {
  const int items = static_cast<int>(state.range(0));
  sfs::MemFileSystem fs;
  if (!fs.Write("batch", WriteChecksummedFrame(
                             core::RecommendationBatch::FromLists(
                                 MakeRetailerRecs(items, 9))
                                 .Encode()))
           .ok()) {
    state.SkipWithError("setup write failed");
    return;
  }
  serving::RecommendationStore store;
  for (auto _ : state) {
    StatusOr<int64_t> version = store.StageRetailerFromFile(0, fs, "batch");
    if (!version.ok()) {
      state.SkipWithError("stage failed");
      return;
    }
    benchmark::DoNotOptimize(version);
  }
  state.counters["items/s"] = benchmark::Counter(
      static_cast<double>(items) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StageRetailerFromFile)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMillisecond);

// The checksum under every durable frame, alone: CRC-32 over a buffer of
// the given size in bytes. 1.7 MB is the size of the 10000-item batch
// frame BM_StageRetailerFromFile reads.
void BM_Crc32(benchmark::State& state) {
  Rng rng(11);
  std::string data(static_cast<size_t>(state.range(0)), '\0');
  for (char& ch : data) ch = static_cast<char>(rng.Uniform(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(data.size()) *
                          state.iterations());
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(64 << 10)->Arg(1700 << 10);

// Two-tier store (§II-A "main-memory and flash"): lookup latency under a
// Zipf-ish access pattern, by pinned hot fraction (arg = hot percent).
// The counters show how much traffic the memory tier absorbs.
void BM_TieredLookupZipf(benchmark::State& state) {
  static sfs::MemFileSystem* fs = new sfs::MemFileSystem;
  serving::TieredStore::Options options;
  options.hot_fraction = static_cast<double>(state.range(0)) / 100.0;
  options.cache_capacity = 256;
  serving::TieredStore store(fs, options);
  auto recs = MakeRetailerRecs(kItems, 3);
  // Popularity: item i has weight ~ 1/(i+1).
  std::vector<int64_t> popularity(kItems);
  for (int i = 0; i < kItems; ++i) popularity[i] = kItems / (i + 1);
  benchmark::DoNotOptimize(store.LoadRetailer(0, recs, popularity));

  Rng rng(5);
  for (auto _ : state) {
    // Zipf-ish draw: squash a uniform draw toward small indices.
    double u = rng.UniformDouble();
    data::ItemIndex item =
        static_cast<data::ItemIndex>(u * u * u * (kItems - 1));
    auto result =
        store.Lookup(0, item, serving::RecommendationKind::kViewBased);
    benchmark::DoNotOptimize(result);
  }
  state.counters["flash_frac"] = store.stats().FlashReadFraction();
  state.counters["mem_hits"] =
      static_cast<double>(store.stats().memory_hits);
}
BENCHMARK(BM_TieredLookupZipf)->Arg(1)->Arg(10)->Arg(50);

}  // namespace

BENCHMARK_MAIN();
