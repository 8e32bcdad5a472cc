#include <cmath>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/wrmf.h"
#include "data/world_generator.h"

namespace sigmund::core {
namespace {

data::RetailerWorld MakeWorld(uint64_t seed = 3, int items = 120) {
  data::WorldConfig config;
  config.seed = seed;
  config.mean_sessions_per_user = 4.0;
  data::WorldGenerator generator(config);
  return generator.GenerateRetailer(0, items);
}

TEST(WrmfStrengthTest, MonotoneInActionTier) {
  EXPECT_LT(WrmfStrength(data::ActionType::kView),
            WrmfStrength(data::ActionType::kSearch));
  EXPECT_LT(WrmfStrength(data::ActionType::kSearch),
            WrmfStrength(data::ActionType::kCart));
  EXPECT_LT(WrmfStrength(data::ActionType::kCart),
            WrmfStrength(data::ActionType::kConversion));
}

TEST(WrmfTest, DimensionsMatchData) {
  data::RetailerWorld world = MakeWorld();
  data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);
  WrmfModel::Config config;
  config.num_factors = 8;
  config.iterations = 2;
  WrmfModel model =
      WrmfModel::Train(split.train, world.data.num_items(), config);
  EXPECT_EQ(model.num_users(), world.data.num_users());
  EXPECT_EQ(model.num_items(), world.data.num_items());
  EXPECT_EQ(model.dim(), 8);
}

TEST(WrmfTest, AlsIterationsDecreaseObjective) {
  // ALS is a block-coordinate-descent method: the confidence-weighted
  // objective must be non-increasing per sweep.
  data::RetailerWorld world = MakeWorld(7, 80);
  data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);
  WrmfModel::Config config;
  config.num_factors = 8;
  double previous = 1e300;
  for (int iterations = 1; iterations <= 4; ++iterations) {
    config.iterations = iterations;
    WrmfModel model =
        WrmfModel::Train(split.train, world.data.num_items(), config);
    double objective = model.Objective(split.train);
    EXPECT_LT(objective, previous + 1e-6) << "iterations=" << iterations;
    previous = objective;
  }
}

TEST(WrmfTest, ObservedItemsScoreHigherThanUnobserved) {
  data::RetailerWorld world = MakeWorld(11, 100);
  data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);
  WrmfModel::Config config;
  config.num_factors = 12;
  config.iterations = 8;
  WrmfModel model =
      WrmfModel::Train(split.train, world.data.num_items(), config);

  Rng rng(5);
  double observed = 0, unobserved = 0;
  int64_t n = 0;
  for (data::UserIndex u = 0; u < world.data.num_users(); ++u) {
    std::unordered_set<data::ItemIndex> seen;
    for (const data::Interaction& event : split.train[u]) {
      seen.insert(event.item);
    }
    for (data::ItemIndex item : seen) {
      observed += model.Score(u, item);
      data::ItemIndex other =
          static_cast<data::ItemIndex>(rng.Uniform(world.data.num_items()));
      if (seen.count(other) > 0) continue;
      unobserved += model.Score(u, other);
      ++n;
    }
  }
  ASSERT_GT(n, 100);
  EXPECT_GT(observed / n, unobserved / n + 0.1);
}

TEST(WrmfTest, LearnsToRankHeldOutItems) {
  data::RetailerWorld world = MakeWorld(13, 120);
  data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);
  WrmfModel::Config config;
  config.num_factors = 12;
  config.iterations = 8;
  WrmfModel model =
      WrmfModel::Train(split.train, world.data.num_items(), config);
  MetricSet metrics = model.EvaluateHoldout(split.train, split.holdout, 10);
  EXPECT_GT(metrics.num_examples, 0);
  EXPECT_GT(metrics.auc, 0.6);
  EXPECT_GT(metrics.map_at_k, 0.01);
}

TEST(WrmfTest, FoldInApproximatesTrainedUserFactor) {
  data::RetailerWorld world = MakeWorld(17, 100);
  data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);
  WrmfModel::Config config;
  config.num_factors = 8;
  config.iterations = 6;
  WrmfModel model =
      WrmfModel::Train(split.train, world.data.num_items(), config);

  // Fold in an existing user's history: the result should be exactly the
  // user's trained factor (same least-squares problem).
  data::UserIndex u = 0;
  for (data::UserIndex candidate = 0; candidate < world.data.num_users();
       ++candidate) {
    if (split.train[candidate].size() >= 3) {
      u = candidate;
      break;
    }
  }
  std::vector<float> folded = model.FoldInUser(split.train[u]);
  for (int k = 0; k < model.dim(); ++k) {
    EXPECT_NEAR(folded[k], model.user_factor(u)[k], 1e-4);
  }
}

TEST(WrmfTest, DeterministicForSeed) {
  data::RetailerWorld world = MakeWorld(19, 60);
  data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);
  WrmfModel::Config config;
  config.num_factors = 6;
  config.iterations = 3;
  WrmfModel a = WrmfModel::Train(split.train, world.data.num_items(), config);
  WrmfModel b = WrmfModel::Train(split.train, world.data.num_items(), config);
  for (int i = 0; i < world.data.num_items(); ++i) {
    for (int k = 0; k < 6; ++k) {
      EXPECT_EQ(a.item_factor(i)[k], b.item_factor(i)[k]);
    }
  }
}

TEST(WrmfTest, AllFactorsFinite) {
  data::RetailerWorld world = MakeWorld(23, 90);
  data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);
  WrmfModel::Config config;
  config.num_factors = 16;
  config.iterations = 5;
  config.alpha = 40.0;
  WrmfModel model =
      WrmfModel::Train(split.train, world.data.num_items(), config);
  for (int i = 0; i < model.num_items(); ++i) {
    for (int k = 0; k < model.dim(); ++k) {
      EXPECT_TRUE(std::isfinite(model.item_factor(i)[k]));
    }
  }
  for (int u = 0; u < model.num_users(); ++u) {
    for (int k = 0; k < model.dim(); ++k) {
      EXPECT_TRUE(std::isfinite(model.user_factor(u)[k]));
    }
  }
}

// Regularization sweep: larger lambda shrinks factor norms.
class WrmfLambdaTest : public ::testing::TestWithParam<double> {};

TEST_P(WrmfLambdaTest, TrainsStably) {
  data::RetailerWorld world = MakeWorld(29, 70);
  data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);
  WrmfModel::Config config;
  config.num_factors = 8;
  config.iterations = 3;
  config.lambda = GetParam();
  WrmfModel model =
      WrmfModel::Train(split.train, world.data.num_items(), config);
  MetricSet metrics = model.EvaluateHoldout(split.train, split.holdout, 10);
  EXPECT_GE(metrics.auc, 0.0);
  EXPECT_LE(metrics.auc, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, WrmfLambdaTest,
                         ::testing::Values(0.01, 0.1, 1.0, 10.0));

}  // namespace
}  // namespace sigmund::core
