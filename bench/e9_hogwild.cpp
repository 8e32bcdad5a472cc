// E9: Hogwild multi-threaded training (§IV-B2 of the paper) — SGD
// throughput vs. thread count, against the same cores each training its
// own single-threaded model, and the observation that motivates the
// one-retailer-per-machine policy: model memory is independent of the
// number of training threads, so "requesting CPUs to run additional
// training threads helps us make more efficient use of the memory already
// requested".
//
// google-benchmark binary. On a single-core host the thread scaling is
// bounded by the hardware; the memory table is machine-independent.

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "core/negative_sampler.h"
#include "core/trainer.h"

using namespace sigmund;

namespace {

struct TrainingFixture {
  data::RetailerWorld world;
  data::TrainTestSplit split;
  core::TrainingData training_data;
  core::UniformSampler sampler;

  TrainingFixture()
      : world(bench::MakeWorld(71, 600, 4.0)),
        split(data::SplitLeaveLastOut(world.data)),
        training_data(&split.train, world.data.num_items()) {}
};

TrainingFixture& Fixture() {
  static TrainingFixture* fixture = new TrainingFixture;
  return *fixture;
}

void BM_HogwildSgdSteps(benchmark::State& state) {
  TrainingFixture& f = Fixture();
  core::HyperParams params = bench::DefaultParams(16, 1);
  core::BprModel model(&f.world.data.catalog, params);
  Rng rng(3);
  model.InitRandom(&rng);
  core::BprTrainer trainer(&model, &f.training_data, &f.sampler);

  const int threads = static_cast<int>(state.range(0));
  const int64_t steps = 20000;
  for (auto _ : state) {
    core::BprTrainer::Options options;
    options.num_threads = threads;
    options.num_epochs = 1;
    options.steps_per_epoch = steps;
    trainer.Train(options);
  }
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps) * state.iterations(),
      benchmark::Counter::kIsRate);
  state.counters["model_MB"] =
      static_cast<double>(model.MemoryBytes()) / (1024.0 * 1024.0);
}
// UseRealTime: the SGD work runs on pool threads, so the main thread's
// CPU time is meaningless for throughput.
BENCHMARK(BM_HogwildSgdSteps)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same N cores spent the way the training job now spends them: N
// independent models, each trained single-threaded on its own core, over
// the same fixture and step count as BM_HogwildSgdSteps. Small models put
// one embedding row in one cache line, so Hogwild threads on one model
// mostly trade lines while separate models share none.
void BM_ModelsPerCore(benchmark::State& state) {
  TrainingFixture& f = Fixture();
  core::HyperParams params = bench::DefaultParams(16, 1);
  const int models = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<core::BprModel>> replicas;
  std::vector<std::unique_ptr<core::BprTrainer>> trainers;
  for (int m = 0; m < models; ++m) {
    replicas.push_back(
        std::make_unique<core::BprModel>(&f.world.data.catalog, params));
    Rng rng(3 + m);
    replicas.back()->InitRandom(&rng);
    trainers.push_back(std::make_unique<core::BprTrainer>(
        replicas.back().get(), &f.training_data, &f.sampler));
  }
  ThreadPool pool(models);

  const int64_t steps = 20000;
  for (auto _ : state) {
    pool.ParallelFor(models, [&](int64_t m) {
      core::BprTrainer::Options options;
      options.num_epochs = 1;
      options.steps_per_epoch = steps;
      core::TrainStats stats = trainers[m]->Train(options);
      benchmark::DoNotOptimize(stats);
    });
  }
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps) * models * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ModelsPerCore)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ModelMemoryByFactors(benchmark::State& state) {
  TrainingFixture& f = Fixture();
  core::HyperParams params = bench::DefaultParams(
      static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    core::BprModel model(&f.world.data.catalog, params);
    benchmark::DoNotOptimize(model.MemoryBytes());
  }
  core::BprModel model(&f.world.data.catalog, params);
  state.counters["model_MB"] =
      static_cast<double>(model.MemoryBytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_ModelMemoryByFactors)->Arg(8)->Arg(32)->Arg(128)->Unit(
    benchmark::kMillisecond);

void BM_SingleSgdStep(benchmark::State& state) {
  TrainingFixture& f = Fixture();
  core::HyperParams params = bench::DefaultParams(
      static_cast<int>(state.range(0)), 1);
  core::BprModel model(&f.world.data.catalog, params);
  Rng init(3);
  model.InitRandom(&init);
  core::BprTrainer trainer(&model, &f.training_data, &f.sampler);
  Rng rng(9);
  core::Context context;
  for (auto _ : state) {
    core::TrainingData::Position pos = f.training_data.SamplePosition(&rng);
    f.training_data.ContextAt(pos, 25, &context);
    if (context.empty()) continue;
    data::ItemIndex positive = f.training_data.EventAt(pos).item;
    data::ItemIndex negative = f.sampler.Sample(f.training_data, pos.user,
                                                nullptr, positive, &rng);
    if (negative == data::kInvalidItem) continue;
    benchmark::DoNotOptimize(trainer.Step(context, positive, negative, &rng));
  }
}
BENCHMARK(BM_SingleSgdStep)->Arg(8)->Arg(32)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
