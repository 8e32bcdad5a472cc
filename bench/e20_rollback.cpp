// E20: Rollback cost (safe-rollout ladder, DESIGN.md §7). Rolling a
// retailer back to a retained snapshot must be O(pointer flip) — no SFS
// I/O, no deserialization, independent of catalog size — so an operator
// (or the canary controller) can undo a bad batch in microseconds while
// it is actively serving. Contrast with what rollback would cost if it
// had to reload the previous batch from the shared filesystem.
//
// google-benchmark binary.

#include <benchmark/benchmark.h>

#include "common/binary_io.h"
#include "common/random.h"
#include "core/inference.h"
#include "core/recommendation_batch.h"
#include "serving/replicated_store.h"
#include "serving/store.h"
#include "sfs/mem_filesystem.h"

using namespace sigmund;

namespace {

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

// Pointer-flip rollback: alternate the active version between the two
// retained snapshots. Catalog size is the arg — the flat line across
// 1k/10k/100k items is the point of the versioned store.
void BM_RollbackPointerFlip(benchmark::State& state) {
  const int items = static_cast<int>(state.range(0));
  serving::RecommendationStore store;
  store.LoadRetailer(0, MakeRetailerRecs(items, 1));
  store.LoadRetailer(0, MakeRetailerRecs(items, 2));
  int64_t target = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.RollbackRetailer(0, target));
    target = 3 - target;  // 1 <-> 2
  }
  state.counters["items"] = static_cast<double>(items);
}
BENCHMARK(BM_RollbackPointerFlip)->Arg(1000)->Arg(10000)->Arg(100000);

// What rollback costs without retained versions: re-read + re-decode the
// previous batch from the (in-memory!) shared filesystem. Real flash or
// network storage only widens the gap.
void BM_RollbackViaReload(benchmark::State& state) {
  const int items = static_cast<int>(state.range(0));
  sfs::MemFileSystem fs;
  // A CRC-framed batch file, as the inference job writes it.
  if (!fs.Write("v1", WriteChecksummedFrame(
                          core::RecommendationBatch::FromLists(
                              MakeRetailerRecs(items, 1))
                              .Encode()))
           .ok()) {
    state.SkipWithError("setup write failed");
    return;
  }
  serving::RecommendationStore store;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.LoadRetailerFromFile(0, fs, "v1"));
  }
  state.counters["items"] = static_cast<double>(items);
}
BENCHMARK(BM_RollbackViaReload)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Group-wide rollback: one pointer flip per replica, still no I/O.
void BM_GroupRollback(benchmark::State& state) {
  serving::ReplicatedStoreGroup::Options options;
  options.num_replicas = static_cast<int>(state.range(0));
  obs::MetricRegistry metrics;
  serving::ReplicatedStoreGroup group(options, &metrics);
  group.LoadRetailer(0, MakeRetailerRecs(10000, 1));
  group.LoadRetailer(0, MakeRetailerRecs(10000, 2));
  int64_t target = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.RollbackRetailer(0, target));
    target = 3 - target;
  }
}
BENCHMARK(BM_GroupRollback)->Arg(1)->Arg(3)->Arg(5);

}  // namespace

BENCHMARK_MAIN();
