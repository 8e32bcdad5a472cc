#include <cmath>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/negative_sampler.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "data/world_generator.h"

namespace sigmund::core {
namespace {

// A small but learnable world.
data::RetailerWorld MakeWorld(uint64_t seed = 3, int items = 120) {
  data::WorldConfig config;
  config.seed = seed;
  config.mean_sessions_per_user = 4.0;
  data::WorldGenerator generator(config);
  return generator.GenerateRetailer(0, items);
}

HyperParams FastParams() {
  HyperParams params;
  params.num_factors = 8;
  params.learning_rate = 0.08;
  params.lambda_v = 0.005;
  params.lambda_vc = 0.005;
  params.num_epochs = 8;
  params.context_window = 10;
  params.use_taxonomy = true;
  return params;
}

struct Fixture {
  data::RetailerWorld world;
  data::TrainTestSplit split;
  TrainingData training_data;
  BprModel model;
  UniformSampler sampler;

  explicit Fixture(HyperParams params = FastParams(), uint64_t seed = 3)
      : world(MakeWorld(seed)),
        split(data::SplitLeaveLastOut(world.data)),
        training_data(&split.train, world.data.num_items()),
        model(&world.data.catalog, params) {
    Rng rng(params.seed);
    model.InitRandom(&rng);
  }
};

TEST(TrainingDataTest, PositionsSkipFirstEvent) {
  Fixture f;
  // Every position must have index >= 1 (context non-empty).
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    TrainingData::Position p = f.training_data.SamplePosition(&rng);
    EXPECT_GE(p.index, 1);
    EXPECT_LT(p.index,
              static_cast<int>(f.split.train[p.user].size()));
  }
}

TEST(TrainingDataTest, ContextMatchesHistoryPrefix) {
  Fixture f;
  // Find a user with >= 3 training events.
  data::UserIndex user = -1;
  for (data::UserIndex u = 0; u < f.training_data.num_users(); ++u) {
    if (f.split.train[u].size() >= 3) {
      user = u;
      break;
    }
  }
  ASSERT_NE(user, -1);
  Context ctx;
  f.training_data.ContextAt({user, 2}, 10, &ctx);
  ASSERT_EQ(ctx.size(), 2u);
  EXPECT_EQ(ctx[0].item, f.split.train[user][0].item);
  EXPECT_EQ(ctx[1].item, f.split.train[user][1].item);

  // Window truncation keeps the most recent events.
  Context ctx1;
  f.training_data.ContextAt({user, 2}, 1, &ctx1);
  ASSERT_EQ(ctx1.size(), 1u);
  EXPECT_EQ(ctx1[0].item, f.split.train[user][1].item);
}

TEST(TrainingDataTest, SeenReflectsTrainingEvents) {
  Fixture f;
  for (data::UserIndex u = 0; u < std::min(5, f.training_data.num_users());
       ++u) {
    for (const data::Interaction& event : f.split.train[u]) {
      EXPECT_TRUE(f.training_data.Seen(u, event.item));
    }
  }
}

TEST(TrainingDataTest, TierBucketsPartitionSeenItems) {
  Fixture f;
  for (data::UserIndex u = 0; u < std::min(10, f.training_data.num_users());
       ++u) {
    size_t total = 0;
    for (int s = 0; s < data::kNumActionTypes; ++s) {
      for (data::ItemIndex item : f.training_data.TierBucket(u, s)) {
        EXPECT_TRUE(f.training_data.Seen(u, item));
        ++total;
      }
    }
    // Buckets partition distinct seen items exactly.
    std::unordered_set<data::ItemIndex> seen_items;
    for (const data::Interaction& event : f.split.train[u]) {
      seen_items.insert(event.item);
    }
    EXPECT_EQ(total, seen_items.size());
  }
}

TEST(TrainingDataTest, LowerTierItemIsStrictlyWeaker) {
  Fixture f;
  Rng rng(5);
  int checked = 0;
  for (data::UserIndex u = 0; u < f.training_data.num_users() && checked < 50;
       ++u) {
    data::ItemIndex j = f.training_data.SampleLowerTierItem(
        u, data::ActionType::kConversion, &rng);
    if (j == data::kInvalidItem) continue;
    ++checked;
    // j must be in a bucket with strength < conversion.
    bool found_weaker = false;
    for (int s = 0; s < data::ActionStrength(data::ActionType::kConversion);
         ++s) {
      const auto& bucket = f.training_data.TierBucket(u, s);
      if (std::find(bucket.begin(), bucket.end(), j) != bucket.end()) {
        found_weaker = true;
      }
    }
    EXPECT_TRUE(found_weaker);
  }
  EXPECT_GT(checked, 0);
}

// --- The paper's §III-B1 guarantee: "Following the update step, the loss
// is guaranteed to be strictly smaller for the example."
TEST(BprTrainerTest, StepStrictlyDecreasesExampleLoss) {
  Fixture f;
  BprTrainer trainer(&f.model, &f.training_data, &f.sampler);
  Rng rng(9);

  int tested = 0;
  for (int trial = 0; trial < 30; ++trial) {
    TrainingData::Position pos = f.training_data.SamplePosition(&rng);
    Context ctx;
    f.training_data.ContextAt(pos, 10, &ctx);
    if (ctx.empty()) continue;
    data::ItemIndex i = f.training_data.EventAt(pos).item;
    data::ItemIndex j =
        f.sampler.Sample(f.training_data, pos.user, nullptr, i, &rng);
    if (j == data::kInvalidItem) continue;

    // Loss before (returned by Step) vs after (recompute via a dry dot).
    double before = trainer.Step(ctx, i, j, &rng);
    std::vector<float> u(f.model.dim()), phi_i(f.model.dim()),
        phi_j(f.model.dim());
    f.model.UserEmbedding(ctx, u.data());
    f.model.ItemRepresentation(i, phi_i.data());
    f.model.ItemRepresentation(j, phi_j.data());
    double x = 0;
    for (int k = 0; k < f.model.dim(); ++k) {
      x += u[k] * (phi_i[k] - phi_j[k]);
    }
    double after = std::log1p(std::exp(-x));
    EXPECT_LT(after, before) << "trial " << trial;
    ++tested;
  }
  EXPECT_GT(tested, 10);
}

TEST(BprTrainerTest, TrainingImprovesHoldoutMapOverRandom) {
  Fixture f;
  Evaluator::Options eval;
  MetricSet before = Evaluator::Evaluate(f.model, f.training_data,
                                         f.split.holdout, eval);

  BprTrainer trainer(&f.model, &f.training_data, &f.sampler);
  BprTrainer::Options options;
  trainer.Train(options);
  MetricSet after = Evaluator::Evaluate(f.model, f.training_data,
                                        f.split.holdout, eval);
  EXPECT_GT(after.map_at_k, before.map_at_k * 2 + 0.01);
  EXPECT_GT(after.auc, 0.6);
  EXPECT_GT(after.auc, before.auc);
}

TEST(BprTrainerTest, LossDecreasesAcrossEpochs) {
  Fixture f;
  BprTrainer trainer(&f.model, &f.training_data, &f.sampler);
  std::vector<double> losses;
  BprTrainer::Options options;
  options.epoch_callback = [&losses](int, const TrainStats& stats) {
    losses.push_back(stats.last_epoch_loss);
    return true;
  };
  trainer.Train(options);
  ASSERT_GE(losses.size(), 4u);
  EXPECT_LT(losses.back(), losses.front());
  // The first epoch's mean loss is below a random model's ln(2) (learning
  // happens within the epoch), but not yet converged.
  EXPECT_LT(losses.front(), std::log(2.0));
  EXPECT_GT(losses.front(), losses.back());
}

TEST(BprTrainerTest, EpochCallbackCanStopEarly) {
  Fixture f;
  BprTrainer trainer(&f.model, &f.training_data, &f.sampler);
  BprTrainer::Options options;
  options.epoch_callback = [](int epoch, const TrainStats&) {
    return epoch < 2;  // stop after the 3rd epoch begins reporting
  };
  TrainStats stats = trainer.Train(options);
  EXPECT_EQ(stats.epochs_run, 3);
}

TEST(BprTrainerTest, StepsPerEpochOverride) {
  Fixture f;
  BprTrainer trainer(&f.model, &f.training_data, &f.sampler);
  BprTrainer::Options options;
  options.steps_per_epoch = 64;
  TrainStats stats = trainer.Train(options);
  EXPECT_LE(stats.sgd_steps + stats.skipped_steps,
            64 * f.model.params().num_epochs);
}

TEST(BprTrainerTest, MultiThreadedTrainingAlsoLearns) {
  HyperParams params = FastParams();
  Fixture f(params);
  BprTrainer trainer(&f.model, &f.training_data, &f.sampler);
  BprTrainer::Options options;
  options.num_threads = 4;  // Hogwild
  trainer.Train(options);
  MetricSet metrics = Evaluator::Evaluate(f.model, f.training_data,
                                          f.split.holdout, {});
  EXPECT_GT(metrics.auc, 0.6);
}

TEST(BprTrainerTest, AdagradAccumulatorsGrowDuringTraining) {
  Fixture f;
  BprTrainer trainer(&f.model, &f.training_data, &f.sampler);
  BprTrainer::Options options;
  options.steps_per_epoch = 500;
  trainer.Train(options);
  double total = 0;
  for (int r = 0; r < f.model.item_embeddings().rows(); ++r) {
    EXPECT_GE(f.model.item_embeddings().adagrad(r), 0.0f);
    total += f.model.item_embeddings().adagrad(r);
  }
  EXPECT_GT(total, 0.0);
}

TEST(BprTrainerTest, PlainSgdAlsoLearns) {
  HyperParams params = FastParams();
  params.use_adagrad = false;
  params.learning_rate = 0.03;
  Fixture f(params);
  BprTrainer trainer(&f.model, &f.training_data, &f.sampler);
  trainer.Train({});
  MetricSet metrics = Evaluator::Evaluate(f.model, f.training_data,
                                          f.split.holdout, {});
  EXPECT_GT(metrics.auc, 0.55);
}

TEST(BprTrainerTest, RegularizationShrinksNorms) {
  HyperParams strong = FastParams();
  strong.lambda_v = 0.5;
  strong.lambda_vc = 0.5;
  HyperParams weak = FastParams();
  weak.lambda_v = 0.0;
  weak.lambda_vc = 0.0;

  auto norm_after_training = [](HyperParams params) {
    Fixture f(params);
    BprTrainer trainer(&f.model, &f.training_data, &f.sampler);
    BprTrainer::Options options;
    trainer.Train(options);
    double norm = 0;
    for (int r = 0; r < f.model.item_embeddings().rows(); ++r) {
      const float* v = f.model.item_embeddings().row(r);
      for (int k = 0; k < f.model.dim(); ++k) norm += v[k] * v[k];
    }
    return norm;
  };
  EXPECT_LT(norm_after_training(strong), norm_after_training(weak));
}

// Single-threaded training is a pure function of (seed, data): two runs
// serialize to the same bytes, Adagrad accumulators included.
TEST(BprTrainerTest, SingleThreadedRunsAreByteIdentical) {
  HyperParams params = FastParams();
  params.use_brand = true;
  params.use_price = true;
  auto train = [&params] {
    Fixture f(params);
    BprTrainer trainer(&f.model, &f.training_data, &f.sampler);
    trainer.Train({});
    return f.model.Serialize();
  };
  const std::string first = train();
  EXPECT_EQ(first, train());
}

// Records the thread of every Sample call, then samples uniformly.
class ThreadRecordingSampler : public NegativeSampler {
 public:
  data::ItemIndex Sample(const TrainingData& data, data::UserIndex u,
                         const float* user_vec, data::ItemIndex positive,
                         Rng* rng) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.insert(std::this_thread::get_id());
      ++calls_;
    }
    return uniform_.Sample(data, u, user_vec, positive, rng);
  }

  std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }
  int64_t calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  UniformSampler uniform_;
  mutable std::mutex mu_;
  mutable std::set<std::thread::id> threads_;
  mutable int64_t calls_ = 0;
};

// A single-threaded run samples on the caller's thread, on the first call
// and on a resume alike; a Hogwild run samples on its pool's threads.
TEST(BprTrainerTest, SingleThreadedTrainingRunsOnTheCallingThread) {
  Fixture f;
  ThreadRecordingSampler sampler;
  BprTrainer trainer(&f.model, &f.training_data, &sampler);
  BprTrainer::Options options;
  options.num_epochs = 1;
  trainer.Train(options);
  options.first_epoch = 1;  // a resume, as after a preemption
  trainer.Train(options);
  EXPECT_GT(sampler.calls(), 0);
  EXPECT_EQ(sampler.threads(),
            std::set<std::thread::id>{std::this_thread::get_id()});

  ThreadRecordingSampler hogwild_sampler;
  BprTrainer hogwild(&f.model, &f.training_data, &hogwild_sampler);
  options.num_threads = 2;
  hogwild.Train(options);
  EXPECT_GT(hogwild_sampler.calls(), 0);
  EXPECT_EQ(hogwild_sampler.threads().count(std::this_thread::get_id()), 0u);
}

// A model checkpointed after epoch k and resumed from that checkpoint with
// first_epoch = k + 1 replays epochs k+1.. with the same sample streams as
// an uninterrupted run, so the two end byte-identical.
TEST(BprTrainerTest, ResumeFromCheckpointMatchesUninterruptedRun) {
  HyperParams params = FastParams();
  params.num_epochs = 5;
  constexpr int kCheckpointEpoch = 1;

  Fixture uninterrupted(params);
  BprTrainer full(&uninterrupted.model, &uninterrupted.training_data,
                  &uninterrupted.sampler);
  std::vector<int> epochs_seen;
  BprTrainer::Options full_options;
  full_options.epoch_callback = [&epochs_seen](int epoch, const TrainStats&) {
    epochs_seen.push_back(epoch);
    return true;
  };
  EXPECT_EQ(full.Train(full_options).epochs_run, params.num_epochs);
  EXPECT_EQ(epochs_seen, (std::vector<int>{0, 1, 2, 3, 4}));

  Fixture interrupted(params);
  std::string checkpoint;
  BprTrainer first(&interrupted.model, &interrupted.training_data,
                   &interrupted.sampler);
  BprTrainer::Options first_options;
  first_options.epoch_callback = [&](int epoch, const TrainStats&) {
    if (epoch < kCheckpointEpoch) return true;
    checkpoint = interrupted.model.Serialize();
    return false;  // preempted right after the checkpoint
  };
  EXPECT_EQ(first.Train(first_options).epochs_run, kCheckpointEpoch + 1);

  StatusOr<BprModel> resumed =
      BprModel::Deserialize(checkpoint, &interrupted.world.data.catalog);
  ASSERT_TRUE(resumed.ok());
  BprTrainer second(&*resumed, &interrupted.training_data,
                    &interrupted.sampler);
  BprTrainer::Options resume_options;
  resume_options.first_epoch = kCheckpointEpoch + 1;
  epochs_seen.clear();
  resume_options.epoch_callback = full_options.epoch_callback;
  EXPECT_EQ(second.Train(resume_options).epochs_run,
            params.num_epochs - kCheckpointEpoch - 1);
  EXPECT_EQ(epochs_seen, (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(resumed->Serialize(), uninterrupted.model.Serialize());
}

// Tier constraints sweep: training remains sane across fractions.
class TierFractionTest : public ::testing::TestWithParam<double> {};

TEST_P(TierFractionTest, TrainingStableAndLearns) {
  HyperParams params = FastParams();
  params.tier_constraint_fraction = GetParam();
  params.num_epochs = 6;
  Fixture f(params);
  BprTrainer trainer(&f.model, &f.training_data, &f.sampler);
  TrainStats stats = trainer.Train({});
  EXPECT_GT(stats.sgd_steps, 0);
  // No NaNs in the model.
  for (int r = 0; r < f.model.item_embeddings().rows(); ++r) {
    for (int k = 0; k < f.model.dim(); ++k) {
      EXPECT_TRUE(std::isfinite(f.model.item_embeddings().row(r)[k]));
    }
  }
  MetricSet metrics = Evaluator::Evaluate(f.model, f.training_data,
                                          f.split.holdout, {});
  EXPECT_GT(metrics.auc, 0.55);
}

INSTANTIATE_TEST_SUITE_P(Fractions, TierFractionTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.9));

}  // namespace
}  // namespace sigmund::core
