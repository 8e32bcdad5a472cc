// Equivalence tests for the indexed kernels: each fast structure (the
// inference phi table, the deduplicated candidate subtrees, the CSR
// co-occurrence rows, the CSR seen rows) must give exactly what a naive
// reference built here from the raw data gives, over several generated
// worlds.

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/candidate_selector.h"
#include "core/cooccurrence.h"
#include "core/inference.h"
#include "core/training_data.h"
#include "data/world_generator.h"

namespace sigmund::core {
namespace {

struct WorldSpec {
  uint64_t seed;
  int items;
  int taxonomy_depth;
  int max_fanout;
};

// Three worlds with different sizes and taxonomy shapes.
const WorldSpec kWorlds[] = {
    {11, 120, 2, 5},
    {23, 260, 3, 4},
    {37, 400, 4, 3},
};

data::RetailerWorld MakeWorld(const WorldSpec& spec) {
  data::WorldConfig config;
  config.seed = spec.seed;
  config.taxonomy_depth = spec.taxonomy_depth;
  config.max_fanout = spec.max_fanout;
  config.mean_sessions_per_user = 4.0;
  data::WorldGenerator generator(config);
  return generator.GenerateRetailer(0, spec.items);
}

// --- Co-occurrence: the counting rules of CooccurrenceModel::Build over
// hash maps keyed by the unordered pair.
struct NaiveCounts {
  std::map<std::pair<int, int>, int64_t> view, buy;
  std::vector<int64_t> view_counts;
  int64_t total_views = 0;

  static std::pair<int, int> Key(int a, int b) {
    return {std::min(a, b), std::max(a, b)};
  }
  int64_t View(int a, int b) const {
    auto it = view.find(Key(a, b));
    return it == view.end() ? 0 : it->second;
  }
  int64_t Buy(int a, int b) const {
    auto it = buy.find(Key(a, b));
    return it == buy.end() ? 0 : it->second;
  }
};

NaiveCounts CountNaively(
    const std::vector<std::vector<data::Interaction>>& histories,
    int num_items, const CooccurrenceModel::Options& options) {
  NaiveCounts counts;
  counts.view_counts.assign(num_items, 0);
  for (const auto& history : histories) {
    std::vector<data::ItemIndex> session, purchases;
    int64_t last_time = 0;
    for (const data::Interaction& event : history) {
      if (!session.empty() &&
          event.timestamp - last_time > options.session_gap_seconds) {
        session.clear();
      }
      last_time = event.timestamp;
      if (event.action == data::ActionType::kConversion) {
        for (data::ItemIndex prev : purchases) {
          if (prev != event.item) ++counts.buy[NaiveCounts::Key(prev, event.item)];
        }
        purchases.push_back(event.item);
      }
      ++counts.view_counts[event.item];
      ++counts.total_views;
      const size_t start =
          session.size() > static_cast<size_t>(options.window)
              ? session.size() - options.window
              : 0;
      for (size_t k = start; k < session.size(); ++k) {
        if (session[k] != event.item) {
          ++counts.view[NaiveCounts::Key(session[k], event.item)];
        }
      }
      session.push_back(event.item);
    }
  }
  return counts;
}

TEST(KernelEquivalenceTest, CsrPairCountsMatchHashMapCounts) {
  for (const WorldSpec& spec : kWorlds) {
    SCOPED_TRACE(spec.seed);
    const data::RetailerWorld world = MakeWorld(spec);
    const int n = world.data.num_items();
    const CooccurrenceModel::Options options;
    const CooccurrenceModel model =
        CooccurrenceModel::Build(world.data.histories, n, options);
    const NaiveCounts naive =
        CountNaively(world.data.histories, n, options);
    ASSERT_FALSE(naive.view.empty());
    ASSERT_FALSE(naive.buy.empty());

    for (data::ItemIndex a = 0; a < n; ++a) {
      for (data::ItemIndex b = 0; b < n; ++b) {
        ASSERT_EQ(model.CoViewCount(a, b), naive.View(a, b)) << a << "," << b;
        ASSERT_EQ(model.CoBuyCount(a, b), naive.Buy(a, b)) << a << "," << b;
        const int64_t joint = naive.View(a, b);
        double pmi = -1e30;
        if (joint > 0) {
          const double total = static_cast<double>(naive.total_views);
          pmi = std::log(
              (joint / total) /
              ((std::max<int64_t>(1, naive.view_counts[a]) / total) *
               (std::max<int64_t>(1, naive.view_counts[b]) / total)));
        }
        ASSERT_EQ(model.Pmi(a, b), pmi) << a << "," << b;
      }
    }

    // Neighbor lists: every pair with its cosine score, best first.
    for (data::ItemIndex a = 0; a < n; ++a) {
      std::vector<CooccurrenceModel::Neighbor> expected;
      for (const auto& [key, count] : naive.view) {
        if (key.first != a && key.second != a) continue;
        const data::ItemIndex b = key.first == a ? key.second : key.first;
        const double denom = std::sqrt(static_cast<double>(
            std::max<int64_t>(1, naive.view_counts[key.first]) *
            std::max<int64_t>(1, naive.view_counts[key.second])));
        expected.push_back({b, count / denom, count});
      }
      std::sort(expected.begin(), expected.end(),
                [](const auto& x, const auto& y) {
                  if (x.score != y.score) return x.score > y.score;
                  return x.item < y.item;
                });
      if (static_cast<int>(expected.size()) > options.max_neighbors) {
        expected.resize(options.max_neighbors);
      }
      const auto& actual = model.CoViewed(a);
      ASSERT_EQ(actual.size(), expected.size()) << a;
      for (size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(actual[k].item, expected[k].item);
        EXPECT_EQ(actual[k].score, expected[k].score);
        EXPECT_EQ(actual[k].count, expected[k].count);
      }
    }
  }
}

TEST(KernelEquivalenceTest, CsrSeenMatchesOrderedSet) {
  for (const WorldSpec& spec : kWorlds) {
    SCOPED_TRACE(spec.seed);
    const data::RetailerWorld world = MakeWorld(spec);
    const data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);
    const int n = world.data.num_items();
    const TrainingData training_data(&split.train, n);
    for (data::UserIndex u = 0; u < training_data.num_users(); ++u) {
      std::set<data::ItemIndex> seen;
      for (const data::Interaction& event : split.train[u]) {
        seen.insert(event.item);
      }
      const auto row = training_data.SeenItems(u);
      ASSERT_TRUE(std::equal(row.begin(), row.end(), seen.begin(), seen.end()))
          << "user " << u;
      for (data::ItemIndex i = 0; i < n; ++i) {
        ASSERT_EQ(training_data.Seen(u, i), seen.count(i) > 0)
            << "user " << u << " item " << i;
      }
    }
  }
}

// --- Candidate selection: the union of every expanded neighbour's
// CategoriesWithinLca items, sorted and deduplicated, then the facet filter
// and the cap.
std::vector<data::ItemIndex> LcaItems(const data::Catalog& catalog,
                                      data::ItemIndex i, int k) {
  std::vector<data::ItemIndex> out;
  for (data::CategoryId c :
       catalog.taxonomy().CategoriesWithinLca(catalog.item(i).category, k)) {
    const auto& items = catalog.ItemsInCategory(c);
    out.insert(out.end(), items.begin(), items.end());
  }
  return out;
}

std::vector<data::ItemIndex> NaiveFinalize(
    const data::Catalog& catalog, data::ItemIndex query,
    std::vector<data::ItemIndex> pool,
    const CandidateSelector::Options& options) {
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  std::vector<data::ItemIndex> result;
  for (data::ItemIndex item : pool) {
    if (options.late_funnel &&
        catalog.item(item).facet != catalog.item(query).facet) {
      continue;
    }
    result.push_back(item);
    if (static_cast<int>(result.size()) >= options.max_candidates) break;
  }
  return result;
}

std::vector<data::ItemIndex> NaiveViewBased(
    const data::Catalog& catalog, const CooccurrenceModel& cooccurrence,
    data::ItemIndex i, const CandidateSelector::Options& options) {
  std::vector<data::ItemIndex> pool;
  const auto& neighbors = cooccurrence.CoViewed(i);
  for (int n = 0; n < std::min<int>(options.max_co_items, neighbors.size());
       ++n) {
    for (data::ItemIndex item :
         LcaItems(catalog, neighbors[n].item, options.view_lca_k)) {
      pool.push_back(item);
    }
  }
  if (pool.empty()) pool = LcaItems(catalog, i, options.view_lca_k);
  pool.erase(std::remove(pool.begin(), pool.end(), i), pool.end());
  return NaiveFinalize(catalog, i, std::move(pool), options);
}

std::vector<data::ItemIndex> NaivePurchaseBased(
    const data::Catalog& catalog, const CooccurrenceModel& cooccurrence,
    const RepurchaseEstimator& repurchase, data::ItemIndex i,
    const CandidateSelector::Options& options) {
  std::vector<data::ItemIndex> pool;
  const auto& neighbors = cooccurrence.CoBought(i);
  for (int n = 0; n < std::min<int>(options.max_co_items, neighbors.size());
       ++n) {
    for (data::ItemIndex item :
         LcaItems(catalog, neighbors[n].item, options.purchase_lca_k)) {
      pool.push_back(item);
    }
  }
  if (pool.empty()) pool = LcaItems(catalog, i, options.purchase_lca_k + 1);
  const std::vector<data::ItemIndex> own = LcaItems(catalog, i, 1);
  if (repurchase.IsRepurchasable(catalog.item(i).category)) {
    pool.insert(pool.end(), own.begin(), own.end());
  } else {
    const std::set<data::ItemIndex> substitutes(own.begin(), own.end());
    pool.erase(std::remove_if(pool.begin(), pool.end(),
                              [&](data::ItemIndex item) {
                                return substitutes.count(item) > 0 ||
                                       item == i;
                              }),
               pool.end());
  }
  return NaiveFinalize(catalog, i, std::move(pool), options);
}

TEST(KernelEquivalenceTest, DeduplicatedCandidatesMatchNaiveUnion) {
  int repurchasable_items = 0;
  for (const WorldSpec& spec : kWorlds) {
    SCOPED_TRACE(spec.seed);
    const data::RetailerWorld world = MakeWorld(spec);
    const data::Catalog& catalog = world.data.catalog;
    const CooccurrenceModel cooccurrence = CooccurrenceModel::Build(
        world.data.histories, world.data.num_items(), {});
    RepurchaseEstimator::Options repurchase_options;
    repurchase_options.min_buyers = 2;
    repurchase_options.min_repeat_fraction = 0.05;
    const RepurchaseEstimator repurchase = RepurchaseEstimator::Build(
        world.data.histories, catalog, repurchase_options);
    const CandidateSelector selector(&catalog, &cooccurrence, &repurchase);

    // Radii from one level up to past the root (clamping), a small cap,
    // and the late-funnel filter.
    for (int k = 1; k <= spec.taxonomy_depth + 2; ++k) {
      for (bool late : {false, true}) {
        CandidateSelector::Options options;
        options.view_lca_k = k;
        options.purchase_lca_k = k;
        options.late_funnel = late;
        options.max_candidates = k == 2 ? 40 : 1000;
        for (data::ItemIndex i = 0; i < catalog.num_items(); ++i) {
          ASSERT_EQ(selector.ViewBased(i, options),
                    NaiveViewBased(catalog, cooccurrence, i, options))
              << "item " << i << " k " << k << " late " << late;
          ASSERT_EQ(selector.PurchaseBased(i, options),
                    NaivePurchaseBased(catalog, cooccurrence, repurchase, i,
                                       options))
              << "item " << i << " k " << k << " late " << late;
          repurchasable_items +=
              repurchase.IsRepurchasable(catalog.item(i).category);
        }
      }
    }
  }
  // Both purchase-based branches were exercised.
  EXPECT_GT(repurchasable_items, 0);
}

// --- Inference: ranking against the phi table equals scoring every
// candidate with BprModel::Score(), which rebuilds phi per item.
std::vector<ScoredItem> RankWithScore(const BprModel& model,
                                      const Context& context,
                                      const std::vector<data::ItemIndex>& items,
                                      int top_k) {
  std::vector<float> user_vec(model.dim());
  model.UserEmbedding(context, user_vec.data());
  std::vector<ScoredItem> scored;
  for (data::ItemIndex item : items) {
    scored.push_back({item, model.Score(user_vec.data(), item)});
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredItem& a, const ScoredItem& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.item < b.item;
            });
  scored.resize(std::min<size_t>(top_k, scored.size()));
  return scored;
}

void ExpectSameRanking(const std::vector<ScoredItem>& actual,
                       const std::vector<ScoredItem>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(actual[k].item, expected[k].item);
    EXPECT_EQ(actual[k].score, expected[k].score);  // bit-identical
  }
}

TEST(KernelEquivalenceTest, PhiTableRankingMatchesPerItemScore) {
  for (const WorldSpec& spec : kWorlds) {
    SCOPED_TRACE(spec.seed);
    const data::RetailerWorld world = MakeWorld(spec);
    const data::Catalog& catalog = world.data.catalog;
    const CooccurrenceModel cooccurrence = CooccurrenceModel::Build(
        world.data.histories, world.data.num_items(), {});
    const RepurchaseEstimator repurchase =
        RepurchaseEstimator::Build(world.data.histories, catalog, {});
    const CandidateSelector selector(&catalog, &cooccurrence, &repurchase);
    HyperParams params;
    params.num_factors = 12;
    params.use_taxonomy = true;
    params.use_brand = true;
    params.use_price = true;
    BprModel model(&catalog, params);
    Rng rng(spec.seed);
    model.InitRandom(&rng);
    const InferenceEngine engine(&model, &selector);

    InferenceEngine::Options options;
    options.materialize_late_funnel = true;
    CandidateSelector::Options late = options.selector;
    late.late_funnel = true;
    for (data::ItemIndex i = 0; i < catalog.num_items(); ++i) {
      const Context view = {{i, data::ActionType::kView}};
      const Context buy = {{i, data::ActionType::kConversion}};
      const std::vector<data::ItemIndex> candidates =
          selector.ViewBased(i, options.selector);
      // Every candidate, ranked.
      ExpectSameRanking(
          engine.RankCandidates(view, candidates, catalog.num_items()),
          RankWithScore(model, view, candidates, catalog.num_items()));

      const ItemRecommendations recs = engine.RecommendForItem(i, options);
      ExpectSameRanking(recs.view_based,
                        RankWithScore(model, view, candidates, options.top_k));
      ExpectSameRanking(
          recs.purchase_based,
          RankWithScore(model, buy, selector.PurchaseBased(i, options.selector),
                        options.top_k));
      ExpectSameRanking(recs.view_based_late,
                        RankWithScore(model, view, selector.ViewBased(i, late),
                                      options.top_k));
    }
  }
}

}  // namespace
}  // namespace sigmund::core
