#include <cmath>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/cooccurrence.h"
#include "core/evaluator.h"
#include "core/negative_sampler.h"
#include "core/training_data.h"
#include "data/world_generator.h"

namespace sigmund::core {
namespace {

struct Fixture {
  data::RetailerWorld world;
  data::TrainTestSplit split;
  TrainingData training_data;

  explicit Fixture(int items = 100, uint64_t seed = 3)
      : world([&] {
          data::WorldConfig config;
          config.seed = seed;
          data::WorldGenerator generator(config);
          return generator.GenerateRetailer(0, items);
        }()),
        split(data::SplitLeaveLastOut(world.data)),
        training_data(&split.train, world.data.num_items()) {}
};

HyperParams SmallParams() {
  HyperParams params;
  params.num_factors = 8;
  return params;
}

TEST(UniformSamplerTest, NeverReturnsSeenOrPositive) {
  Fixture f;
  UniformSampler sampler;
  Rng rng(1);
  for (int trial = 0; trial < 300; ++trial) {
    TrainingData::Position pos = f.training_data.SamplePosition(&rng);
    data::ItemIndex positive = f.training_data.EventAt(pos).item;
    data::ItemIndex j =
        sampler.Sample(f.training_data, pos.user, nullptr, positive, &rng);
    if (j == data::kInvalidItem) continue;
    EXPECT_NE(j, positive);
    EXPECT_FALSE(f.training_data.Seen(pos.user, j));
  }
}

TEST(UniformSamplerTest, TinyCatalogReturnsInvalid) {
  std::vector<std::vector<data::Interaction>> histories = {
      {{0, 0, data::ActionType::kView, 1}}};
  TrainingData data(&histories, 1);
  UniformSampler sampler;
  Rng rng(1);
  EXPECT_EQ(sampler.Sample(data, 0, nullptr, 0, &rng), data::kInvalidItem);
}

TEST(PopularitySamplerTest, SkewsTowardPopularItems) {
  Fixture f;
  PopularitySampler sampler(f.training_data.item_counts(), 1.0);
  Rng rng(2);
  std::vector<int64_t> draws(f.world.data.num_items(), 0);
  for (int trial = 0; trial < 5000; ++trial) {
    TrainingData::Position pos = f.training_data.SamplePosition(&rng);
    data::ItemIndex j = sampler.Sample(
        f.training_data, pos.user, nullptr, f.training_data.EventAt(pos).item,
        &rng);
    if (j != data::kInvalidItem) ++draws[j];
  }
  // Correlate draw frequency with popularity: top-decile items should be
  // drawn more often per item than bottom-decile items.
  auto items = f.training_data.item_counts();
  std::vector<int> order(items.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return items[a] > items[b]; });
  int decile = std::max<int>(1, static_cast<int>(order.size()) / 10);
  double top = 0, bottom = 0;
  for (int i = 0; i < decile; ++i) top += draws[order[i]];
  for (int i = 0; i < decile; ++i) {
    bottom += draws[order[order.size() - 1 - i]];
  }
  EXPECT_GT(top, bottom);
}

TEST(TaxonomySamplerTest, PrefersDistantCategories) {
  Fixture f;
  TaxonomySampler sampler(&f.world.data.catalog, /*min_distance=*/3);
  UniformSampler uniform;
  Rng rng(3);
  double taxonomy_distance_sum = 0, uniform_distance_sum = 0;
  int n = 0;
  for (int trial = 0; trial < 500; ++trial) {
    TrainingData::Position pos = f.training_data.SamplePosition(&rng);
    data::ItemIndex positive = f.training_data.EventAt(pos).item;
    data::ItemIndex a =
        sampler.Sample(f.training_data, pos.user, nullptr, positive, &rng);
    data::ItemIndex b =
        uniform.Sample(f.training_data, pos.user, nullptr, positive, &rng);
    if (a == data::kInvalidItem || b == data::kInvalidItem) continue;
    taxonomy_distance_sum += f.world.data.catalog.LcaDistance(positive, a);
    uniform_distance_sum += f.world.data.catalog.LcaDistance(positive, b);
    ++n;
  }
  ASSERT_GT(n, 100);
  EXPECT_GT(taxonomy_distance_sum / n, uniform_distance_sum / n);
}

TEST(AdaptiveSamplerTest, PicksHighestScoringCandidate) {
  Fixture f;
  BprModel model(&f.world.data.catalog, SmallParams());
  Rng init(7);
  model.InitRandom(&init);
  AdaptiveSampler sampler(&model, std::make_unique<UniformSampler>(), 8);
  UniformSampler uniform;
  Rng rng(5);

  std::vector<float> user_vec(model.dim());
  model.UserEmbedding({{0, data::ActionType::kView}}, user_vec.data());

  double adaptive_sum = 0, uniform_sum = 0;
  int n = 0;
  for (int trial = 0; trial < 300; ++trial) {
    TrainingData::Position pos = f.training_data.SamplePosition(&rng);
    data::ItemIndex positive = f.training_data.EventAt(pos).item;
    data::ItemIndex a = sampler.Sample(f.training_data, pos.user,
                                       user_vec.data(), positive, &rng);
    data::ItemIndex b = uniform.Sample(f.training_data, pos.user,
                                       user_vec.data(), positive, &rng);
    if (a == data::kInvalidItem || b == data::kInvalidItem) continue;
    adaptive_sum += model.Score(user_vec.data(), a);
    uniform_sum += model.Score(user_vec.data(), b);
    ++n;
  }
  ASSERT_GT(n, 100);
  // Adaptive picks the hardest (highest-scoring) negatives.
  EXPECT_GT(adaptive_sum / n, uniform_sum / n);
}

TEST(ExclusionSamplerTest, AvoidsStronglyCooccurringItems) {
  Fixture f;
  CooccurrenceModel cooccurrence = CooccurrenceModel::Build(
      f.split.train, f.world.data.num_items(), {});
  ExclusionSampler sampler(std::make_unique<UniformSampler>(), &cooccurrence,
                           /*max_co_count=*/0);
  Rng rng(11);
  int excluded_hits = 0, total = 0;
  for (int trial = 0; trial < 500; ++trial) {
    TrainingData::Position pos = f.training_data.SamplePosition(&rng);
    data::ItemIndex positive = f.training_data.EventAt(pos).item;
    data::ItemIndex j = sampler.Sample(f.training_data, pos.user, nullptr,
                                       positive, &rng);
    if (j == data::kInvalidItem) continue;
    ++total;
    if (cooccurrence.CoViewCount(positive, j) > 0) ++excluded_hits;
  }
  ASSERT_GT(total, 100);
  // Near-zero leakage (the sampler falls back after 8 tries, so a few may
  // slip through).
  EXPECT_LT(static_cast<double>(excluded_hits) / total, 0.05);
}

TEST(MakeNegativeSamplerTest, BuildsEveryKind) {
  Fixture f;
  BprModel model(&f.world.data.catalog, SmallParams());
  CooccurrenceModel cooccurrence = CooccurrenceModel::Build(
      f.split.train, f.world.data.num_items(), {});
  for (NegativeSamplerKind kind :
       {NegativeSamplerKind::kUniform, NegativeSamplerKind::kPopularity,
        NegativeSamplerKind::kTaxonomy, NegativeSamplerKind::kAdaptive}) {
    HyperParams params = SmallParams();
    params.sampler = kind;
    auto sampler = MakeNegativeSampler(params, &f.world.data.catalog,
                                       &f.training_data, &model,
                                       &cooccurrence);
    ASSERT_NE(sampler, nullptr);
    Rng rng(1);
    TrainingData::Position pos = f.training_data.SamplePosition(&rng);
    sampler->Sample(f.training_data, pos.user, nullptr,
                    f.training_data.EventAt(pos).item, &rng);
  }
}

// --- Evaluator ----------------------------------------------------------

TEST(EvaluatorTest, EmptyHoldoutGivesZeroExamples) {
  Fixture f;
  BprModel model(&f.world.data.catalog, SmallParams());
  MetricSet metrics =
      Evaluator::Evaluate(model, f.training_data, {}, {});
  EXPECT_EQ(metrics.num_examples, 0);
}

TEST(EvaluatorTest, MetricsWithinBounds) {
  Fixture f;
  BprModel model(&f.world.data.catalog, SmallParams());
  Rng rng(5);
  model.InitRandom(&rng);
  MetricSet metrics =
      Evaluator::Evaluate(model, f.training_data, f.split.holdout, {});
  EXPECT_GT(metrics.num_examples, 0);
  for (double v : {metrics.map_at_k, metrics.precision_at_k,
                   metrics.recall_at_k, metrics.ndcg_at_k, metrics.auc}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_GE(metrics.mean_rank, 1.0);
  // Untrained model: AUC should hover near 0.5.
  EXPECT_NEAR(metrics.auc, 0.5, 0.15);
}

TEST(EvaluatorTest, PerfectModelGetsPerfectMetrics) {
  // Build a model whose context embedding of the last-seen item points at
  // the held-out item's representation: plant phi(target) = huge in one
  // dimension.
  Fixture f;
  HyperParams params = SmallParams();
  params.use_taxonomy = false;
  BprModel model(&f.world.data.catalog, params);
  // All zero. For one holdout user, rig the scores.
  ASSERT_FALSE(f.split.holdout.empty());
  const data::HoldoutExample& example = f.split.holdout[0];
  Context context;
  f.training_data.FullContext(example.user, params.context_window, &context);
  ASSERT_FALSE(context.empty());
  // Set context embedding of every context item to e0, and the target's
  // item embedding to e0 too => target scores 1; all else 0.
  for (const ContextEntry& entry : context) {
    model.context_embeddings().row(entry.item)[0] = 1.0f;
  }
  model.item_embeddings().row(example.held_out)[0] = 1.0f;

  std::vector<data::HoldoutExample> single = {example};
  MetricSet metrics =
      Evaluator::Evaluate(model, f.training_data, single, {});
  EXPECT_DOUBLE_EQ(metrics.map_at_k, 1.0);  // rank 1
  EXPECT_DOUBLE_EQ(metrics.recall_at_k, 1.0);
  EXPECT_DOUBLE_EQ(metrics.ndcg_at_k, 1.0);
  EXPECT_DOUBLE_EQ(metrics.mean_rank, 1.0);
  EXPECT_DOUBLE_EQ(metrics.auc, 1.0);
}

TEST(EvaluatorTest, SampledMapApproximatesExactMap) {
  // §III-C2: sampling 10% of items to estimate MAP must not change model
  // comparisons. Check the estimate is close on a trained-ish model.
  Fixture f(200, 7);
  HyperParams params = SmallParams();
  BprModel model(&f.world.data.catalog, params);
  Rng rng(5);
  model.InitRandom(&rng);
  // Give the model some structure: bias item scores by popularity via the
  // context table so ranks are not all ties.
  for (int r = 0; r < model.item_embeddings().rows(); ++r) {
    model.item_embeddings().row(r)[0] +=
        0.01f * static_cast<float>(f.training_data.item_counts()[r]);
  }

  Evaluator::Options exact;
  Evaluator::Options sampled;
  sampled.item_sample_fraction = 0.3;
  MetricSet exact_metrics =
      Evaluator::Evaluate(model, f.training_data, f.split.holdout, exact);
  MetricSet sampled_metrics =
      Evaluator::Evaluate(model, f.training_data, f.split.holdout, sampled);
  EXPECT_NEAR(sampled_metrics.mean_rank, exact_metrics.mean_rank,
              0.35 * exact_metrics.mean_rank + 3.0);
}

TEST(EvaluatorTest, ExcludeSeenReducesDistractors) {
  Fixture f;
  HyperParams params = SmallParams();
  BprModel model(&f.world.data.catalog, params);
  Rng rng(5);
  model.InitRandom(&rng);
  Evaluator::Options with_seen;
  with_seen.exclude_seen = false;
  Evaluator::Options without_seen;
  without_seen.exclude_seen = true;
  MetricSet a =
      Evaluator::Evaluate(model, f.training_data, f.split.holdout, with_seen);
  MetricSet b = Evaluator::Evaluate(model, f.training_data, f.split.holdout,
                                    without_seen);
  // Removing distractors can only improve (or keep) the mean rank.
  EXPECT_LE(b.mean_rank, a.mean_rank + 1e-9);
}

}  // namespace
}  // namespace sigmund::core
