#include <algorithm>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/candidate_selector.h"
#include "core/hybrid.h"
#include "core/inference.h"
#include "data/world_generator.h"

namespace sigmund::core {
namespace {

using data::ActionType;
using data::Interaction;

struct Fixture {
  data::RetailerWorld world;
  CooccurrenceModel cooccurrence;
  RepurchaseEstimator repurchase;
  CandidateSelector selector;
  BprModel model;
  InferenceEngine engine;

  explicit Fixture(int items = 150, uint64_t seed = 3)
      : world([&] {
          data::WorldConfig config;
          config.seed = seed;
          data::WorldGenerator generator(config);
          return generator.GenerateRetailer(0, items);
        }()),
        cooccurrence(CooccurrenceModel::Build(world.data.histories,
                                              world.data.num_items(), {})),
        repurchase(RepurchaseEstimator::Build(world.data.histories,
                                              world.data.catalog, {})),
        selector(&world.data.catalog, &cooccurrence, &repurchase),
        model([&] {
          HyperParams params;
          params.num_factors = 8;
          BprModel initialized(&world.data.catalog, params);
          Rng rng(7);
          initialized.InitRandom(&rng);
          return initialized;
        }()),
        // The engine snapshots phi(i), so it is built after the model.
        engine(&model, &selector) {}
};

// --- RepurchaseEstimator ------------------------------------------------

TEST(RepurchaseEstimatorTest, DetectsRepeatPurchaseCategory) {
  data::Taxonomy taxonomy;
  data::CategoryId diapers = taxonomy.AddCategory("diapers", taxonomy.root());
  data::CategoryId tvs = taxonomy.AddCategory("tvs", taxonomy.root());
  data::Catalog catalog(std::move(taxonomy));
  catalog.AddItem(data::Item{diapers, 0, 20.0, 0});  // item 0
  catalog.AddItem(data::Item{tvs, 0, 900.0, 0});     // item 1
  catalog.Finalize();

  // 6 users repeat-buy diapers every ~7 days; buy a TV once.
  std::vector<std::vector<Interaction>> histories;
  for (int u = 0; u < 6; ++u) {
    std::vector<Interaction> h;
    for (int repeat = 0; repeat < 3; ++repeat) {
      h.push_back({u, 0, ActionType::kConversion,
                   static_cast<int64_t>(repeat) * 7 * 86400});
    }
    h.push_back({u, 1, ActionType::kConversion, 40 * 86400});
    histories.push_back(std::move(h));
  }
  RepurchaseEstimator estimator =
      RepurchaseEstimator::Build(histories, catalog, {});
  EXPECT_TRUE(estimator.IsRepurchasable(diapers));
  EXPECT_FALSE(estimator.IsRepurchasable(tvs));
  EXPECT_NEAR(estimator.MeanDaysBetween(diapers), 7.0, 0.01);
  EXPECT_EQ(estimator.CountRepurchasable(), 1);
}

TEST(RepurchaseEstimatorTest, MinBuyersGuard) {
  data::Taxonomy taxonomy;
  data::CategoryId c = taxonomy.AddCategory("c", taxonomy.root());
  data::Catalog catalog(std::move(taxonomy));
  catalog.AddItem(data::Item{c, 0, 1.0, 0});
  catalog.Finalize();
  // Only 2 buyers (below min_buyers=5), both repeat.
  std::vector<std::vector<Interaction>> histories = {
      {{0, 0, ActionType::kConversion, 0},
       {0, 0, ActionType::kConversion, 86400}},
      {{1, 0, ActionType::kConversion, 0},
       {1, 0, ActionType::kConversion, 86400}},
  };
  RepurchaseEstimator estimator =
      RepurchaseEstimator::Build(histories, catalog, {});
  EXPECT_FALSE(estimator.IsRepurchasable(c));
}

// --- CandidateSelector ----------------------------------------------------

TEST(CandidateSelectorTest, ViewBasedExcludesQueryAndDedups) {
  Fixture f;
  CandidateSelector::Options options;
  for (data::ItemIndex i = 0; i < 20; ++i) {
    auto candidates = f.selector.ViewBased(i, options);
    std::set<data::ItemIndex> unique(candidates.begin(), candidates.end());
    EXPECT_EQ(unique.size(), candidates.size());
    EXPECT_EQ(unique.count(i), 0u);
    EXPECT_LE(candidates.size(),
              static_cast<size_t>(options.max_candidates));
  }
}

TEST(CandidateSelectorTest, ColdItemFallsBackToTaxonomy) {
  Fixture f;
  // Find an item with no co-view neighbors.
  data::ItemIndex cold = data::kInvalidItem;
  for (data::ItemIndex i = 0; i < f.world.data.num_items(); ++i) {
    if (f.cooccurrence.CoViewed(i).empty()) {
      cold = i;
      break;
    }
  }
  if (cold == data::kInvalidItem) GTEST_SKIP() << "no cold item in world";
  auto candidates = f.selector.ViewBased(cold, {});
  // Fallback must produce same-taxonomy-neighborhood candidates if the
  // category has siblings.
  for (data::ItemIndex c : candidates) {
    EXPECT_LE(f.world.data.catalog.LcaDistance(cold, c), 2);
  }
}

TEST(CandidateSelectorTest, ViewCandidatesGrowWithK) {
  Fixture f;
  CandidateSelector::Options k1;
  k1.view_lca_k = 1;
  k1.max_candidates = 100000;
  CandidateSelector::Options k3;
  k3.view_lca_k = 3;
  k3.max_candidates = 100000;
  int64_t total_k1 = 0, total_k3 = 0;
  for (data::ItemIndex i = 0; i < 30; ++i) {
    total_k1 += f.selector.ViewBased(i, k1).size();
    total_k3 += f.selector.ViewBased(i, k3).size();
  }
  EXPECT_GT(total_k3, total_k1);
}

TEST(CandidateSelectorTest, PurchaseBasedRemovesSubstitutes) {
  Fixture f;
  CandidateSelector::Options options;
  for (data::ItemIndex i = 0; i < 30; ++i) {
    data::CategoryId category = f.world.data.catalog.item(i).category;
    if (f.repurchase.IsRepurchasable(category)) continue;
    auto candidates = f.selector.PurchaseBased(i, options);
    for (data::ItemIndex c : candidates) {
      // lca_1(i) (same category) removed.
      EXPECT_GT(f.world.data.catalog.LcaDistance(i, c), 1)
          << "item " << i << " candidate " << c;
    }
  }
}

TEST(CandidateSelectorTest, LateFunnelFiltersFacets) {
  Fixture f;
  CandidateSelector::Options late;
  late.late_funnel = true;
  for (data::ItemIndex i = 0; i < 20; ++i) {
    auto candidates = f.selector.ViewBased(i, late);
    int32_t facet = f.world.data.catalog.item(i).facet;
    for (data::ItemIndex c : candidates) {
      EXPECT_EQ(f.world.data.catalog.item(c).facet, facet);
    }
  }
}

TEST(CandidateSelectorTest, MaxCandidatesCap) {
  Fixture f;
  CandidateSelector::Options tiny;
  tiny.max_candidates = 7;
  for (data::ItemIndex i = 0; i < 20; ++i) {
    EXPECT_LE(f.selector.ViewBased(i, tiny).size(), 7u);
    EXPECT_LE(f.selector.PurchaseBased(i, tiny).size(), 7u);
  }
}

// --- InferenceEngine -----------------------------------------------------

TEST(InferenceEngineTest, RankCandidatesSortedDescending) {
  Fixture f;
  std::vector<data::ItemIndex> candidates;
  for (data::ItemIndex i = 0; i < 50; ++i) candidates.push_back(i);
  auto ranked = f.engine.RankCandidates(
      Context{{3, ActionType::kView}}, candidates, 10);
  ASSERT_EQ(ranked.size(), 10u);
  for (size_t k = 1; k < ranked.size(); ++k) {
    EXPECT_GE(ranked[k - 1].score, ranked[k].score);
  }
}

TEST(InferenceEngineTest, TopKSmallerThanCandidates) {
  Fixture f;
  std::vector<data::ItemIndex> candidates = {1, 2, 3};
  auto ranked = f.engine.RankCandidates(Context{{0, ActionType::kView}},
                                        candidates, 10);
  EXPECT_EQ(ranked.size(), 3u);
}

TEST(InferenceEngineTest, RecommendForItemFillsBothLists) {
  Fixture f;
  InferenceEngine::Options options;
  options.top_k = 5;
  auto recs = f.engine.RecommendForItem(4, options);
  EXPECT_EQ(recs.query, 4);
  EXPECT_LE(recs.view_based.size(), 5u);
  EXPECT_LE(recs.purchase_based.size(), 5u);
}

TEST(InferenceEngineTest, MaterializeAllCoversCatalog) {
  Fixture f(80);
  InferenceEngine::Options options;
  options.top_k = 5;
  auto all = f.engine.MaterializeAll(options);
  ASSERT_EQ(all.size(), static_cast<size_t>(f.world.data.num_items()));
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].query, static_cast<data::ItemIndex>(i));
    EXPECT_LE(all[i].view_based.size(), 5u);
  }
}

TEST(InferenceEngineTest, CandidateListIsSubsetOfFullScanUniverse) {
  // Candidate-based top-k scores never exceed full-scan top-k scores.
  Fixture f(100);
  InferenceEngine::Options options;
  options.top_k = 5;
  for (data::ItemIndex i = 0; i < 10; ++i) {
    auto fast = f.engine.RecommendForItem(i, options);
    auto full = f.engine.RecommendForItemFullScan(i, 5);
    if (!fast.view_based.empty() && !full.view_based.empty()) {
      EXPECT_LE(fast.view_based[0].score, full.view_based[0].score + 1e-9);
    }
  }
}

TEST(ItemRecommendationsTest, SerializeRoundTrip) {
  ItemRecommendations recs;
  recs.query = 42;
  recs.view_based = {{1, 0.5}, {2, -0.25}};
  recs.purchase_based = {{7, 1.75}};
  StatusOr<ItemRecommendations> parsed =
      ItemRecommendations::Deserialize(recs.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->query, 42);
  ASSERT_EQ(parsed->view_based.size(), 2u);
  EXPECT_EQ(parsed->view_based[0].item, 1);
  EXPECT_NEAR(parsed->view_based[1].score, -0.25, 1e-9);
  ASSERT_EQ(parsed->purchase_based.size(), 1u);
  EXPECT_EQ(parsed->purchase_based[0].item, 7);
}

TEST(ItemRecommendationsTest, EmptyListsRoundTrip) {
  ItemRecommendations recs;
  recs.query = 0;
  StatusOr<ItemRecommendations> parsed =
      ItemRecommendations::Deserialize(recs.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->view_based.empty());
  EXPECT_TRUE(parsed->purchase_based.empty());
}

TEST(ItemRecommendationsTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(ItemRecommendations::Deserialize("junk").ok());
  EXPECT_FALSE(ItemRecommendations::Deserialize("a|b|c").ok());
  EXPECT_FALSE(ItemRecommendations::Deserialize("1|x:y|").ok());
}

// --- HybridRecommender ----------------------------------------------------

TEST(HybridRecommenderTest, HeadUsesCooccurrenceTailUsesFactorization) {
  Fixture f(200, 21);
  HybridRecommender hybrid(&f.cooccurrence, &f.engine);
  HybridRecommender::Options options;
  options.top_k = 5;
  options.min_pair_count = 2;

  auto by_pop = f.cooccurrence.ItemsByPopularity();
  data::ItemIndex head = by_pop.front();
  data::ItemIndex tail = by_pop.back();

  auto head_recs = hybrid.ViewBased(head, options);
  auto tail_recs = hybrid.ViewBased(tail, options);

  // Head item's first recs come from co-occurrence (if it has trusted
  // neighbors, they match the top of the co-view list).
  if (!f.cooccurrence.CoViewed(head).empty() &&
      f.cooccurrence.CoViewed(head)[0].count >= options.min_pair_count) {
    ASSERT_FALSE(head_recs.empty());
    EXPECT_EQ(head_recs[0].item, f.cooccurrence.CoViewed(head)[0].item);
  }
  // Tail item still gets recommendations (factorization backfill).
  EXPECT_FALSE(tail_recs.empty());
}

TEST(HybridRecommenderTest, CoverageBeatsPureCooccurrence) {
  Fixture f(200, 22);
  HybridRecommender hybrid(&f.cooccurrence, &f.engine);
  HybridRecommender::Options options;
  options.top_k = 5;
  options.min_pair_count = 2;

  std::vector<std::vector<ScoredItem>> coocc_lists, hybrid_lists;
  for (data::ItemIndex i = 0; i < f.world.data.num_items(); ++i) {
    std::vector<ScoredItem> coocc;
    for (const auto& neighbor : f.cooccurrence.CoViewed(i)) {
      if (neighbor.count >= options.min_pair_count) {
        coocc.push_back({neighbor.item, neighbor.score});
      }
      if (static_cast<int>(coocc.size()) >= options.top_k) break;
    }
    coocc_lists.push_back(std::move(coocc));
    hybrid_lists.push_back(hybrid.ViewBased(i, options));
  }
  double coocc_coverage = HybridRecommender::Coverage(coocc_lists, 5);
  double hybrid_coverage = HybridRecommender::Coverage(hybrid_lists, 5);
  EXPECT_GT(hybrid_coverage, coocc_coverage);
}

TEST(HybridRecommenderTest, NoDuplicatesInCombinedList) {
  Fixture f(150, 23);
  HybridRecommender hybrid(&f.cooccurrence, &f.engine);
  HybridRecommender::Options options;
  options.top_k = 8;
  for (data::ItemIndex i = 0; i < 30; ++i) {
    auto recs = hybrid.ViewBased(i, options);
    std::set<data::ItemIndex> unique;
    for (const auto& r : recs) unique.insert(r.item);
    EXPECT_EQ(unique.size(), recs.size());
  }
}

}  // namespace
}  // namespace sigmund::core
