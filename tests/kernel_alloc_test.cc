// Guards the SGD kernel's allocation budget: a steady-state training step
// allocates nothing. The global operator new is replaced to count heap
// allocations on every thread (Hogwild workers included), which is why
// this test lives in a binary of its own.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "core/cooccurrence.h"
#include "core/negative_sampler.h"
#include "core/trainer.h"
#include "data/world_generator.h"

namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sigmund::core {
namespace {

int64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

struct World {
  data::RetailerWorld world;
  data::TrainTestSplit split;
  TrainingData training_data;
  CooccurrenceModel cooccurrence;

  World()
      : world([] {
          data::WorldConfig config;
          config.seed = 5;
          config.mean_sessions_per_user = 5.0;
          data::WorldGenerator generator(config);
          return generator.GenerateRetailer(0, 200);
        }()),
        split(data::SplitLeaveLastOut(world.data)),
        training_data(&split.train, world.data.num_items()),
        cooccurrence(CooccurrenceModel::Build(split.train,
                                              world.data.num_items(), {})) {}
};

HyperParams AllFeatures(NegativeSamplerKind sampler) {
  HyperParams params;
  params.num_factors = 16;
  params.use_taxonomy = true;
  params.use_brand = true;
  params.use_price = true;
  params.sampler = sampler;
  return params;
}

// Heap allocations of one single-epoch Train() call of `steps` steps.
int64_t TrainAllocations(const World& w, const HyperParams& params,
                         int64_t steps, int threads) {
  BprModel model(&w.world.data.catalog, params);
  Rng rng(params.seed);
  model.InitRandom(&rng);
  std::unique_ptr<NegativeSampler> sampler =
      MakeNegativeSampler(params, &w.world.data.catalog, &w.training_data,
                          &model, &w.cooccurrence);
  BprTrainer trainer(&model, &w.training_data, sampler.get());
  BprTrainer::Options options;
  options.num_threads = threads;
  options.num_epochs = 1;
  options.steps_per_epoch = steps;
  const int64_t before = Allocations();
  const TrainStats stats = trainer.Train(options);
  const int64_t allocations = Allocations() - before;
  EXPECT_GT(stats.sgd_steps, steps / 2);
  return allocations;
}

TEST(KernelAllocTest, CounterSeesAllocations) {
  const int64_t before = Allocations();
  auto boxed = std::make_unique<int>(3);
  EXPECT_EQ(Allocations() - before, 1);
  EXPECT_EQ(*boxed, 3);
}

// Train()'s fixed cost (thread pool, per-chunk buffers) does not depend on
// the step count, so any difference between a short and a long run is
// allocations per step. Every sampler and every side feature is on the
// step path here. With two threads one pool thread may run no chunk at
// all in a short run and so never size its per-thread scoring buffer
// (adaptive sampling), which allows a difference of one allocation.
TEST(KernelAllocTest, SteadyStateSgdStepsAllocateNothing) {
  const World w;
  for (NegativeSamplerKind kind :
       {NegativeSamplerKind::kUniform, NegativeSamplerKind::kPopularity,
        NegativeSamplerKind::kTaxonomy, NegativeSamplerKind::kAdaptive}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const HyperParams params = AllFeatures(kind);
    for (int threads : {1, 2}) {
      const int64_t short_run = TrainAllocations(w, params, 2000, threads);
      const int64_t long_run = TrainAllocations(w, params, 20000, threads);
      EXPECT_LE(std::abs(long_run - short_run), threads - 1)
          << threads << " threads: " << short_run << " vs " << long_run;
    }
  }
}

TEST(KernelAllocTest, StepAllocatesNothingAfterWarmUp) {
  const World w;
  const HyperParams params = AllFeatures(NegativeSamplerKind::kUniform);
  BprModel model(&w.world.data.catalog, params);
  Rng rng(3);
  model.InitRandom(&rng);
  UniformSampler sampler;
  BprTrainer trainer(&model, &w.training_data, &sampler);

  Context context;
  auto step = [&] {
    const TrainingData::Position pos = w.training_data.SamplePosition(&rng);
    w.training_data.ContextAt(pos, params.context_window, &context);
    if (context.empty()) return;
    const data::ItemIndex positive = w.training_data.EventAt(pos).item;
    const data::ItemIndex negative =
        sampler.Sample(w.training_data, pos.user, nullptr, positive, &rng);
    if (negative == data::kInvalidItem) return;
    trainer.Step(context, positive, negative, &rng);
  };
  context.reserve(params.context_window);
  step();  // sizes the per-thread scratch
  const int64_t before = Allocations();
  for (int i = 0; i < 5000; ++i) step();
  EXPECT_EQ(Allocations() - before, 0);
}

}  // namespace
}  // namespace sigmund::core
