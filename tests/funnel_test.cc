#include <algorithm>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/funnel.h"
#include "core/inference.h"
#include "data/world_generator.h"
#include "serving/store.h"

namespace sigmund::core {
namespace {

using data::ActionType;

Context Views(std::initializer_list<data::ItemIndex> items) {
  Context context;
  for (data::ItemIndex item : items) {
    context.push_back({item, ActionType::kView});
  }
  return context;
}

TEST(FunnelTest, EmptyAndShortContextsAreEarly) {
  EXPECT_EQ(ClassifyFunnelStage({}, nullptr, {}), FunnelStage::kEarly);
  EXPECT_EQ(ClassifyFunnelStage(Views({1}), nullptr, {}),
            FunnelStage::kEarly);
  EXPECT_EQ(ClassifyFunnelStage(Views({1, 2, 3, 4}), nullptr, {}),
            FunnelStage::kEarly);
}

TEST(FunnelTest, RepeatViewsOfSameItemAreLate) {
  EXPECT_EQ(ClassifyFunnelStage(Views({7, 3, 7}), nullptr, {}),
            FunnelStage::kLate);
}

TEST(FunnelTest, CartOrConversionIsLate) {
  Context cart = {{1, ActionType::kView}, {2, ActionType::kCart}};
  EXPECT_EQ(ClassifyFunnelStage(cart, nullptr, {}), FunnelStage::kLate);
  Context bought = {{2, ActionType::kConversion}};
  EXPECT_EQ(ClassifyFunnelStage(bought, nullptr, {}), FunnelStage::kLate);
}

TEST(FunnelTest, WindowForgetsOldSignals) {
  // The repeat views are outside the window of 3.
  Context context = Views({9, 9, 1, 2, 3});
  FunnelOptions options;
  options.window = 3;
  EXPECT_EQ(ClassifyFunnelStage(context, nullptr, options),
            FunnelStage::kEarly);
  options.window = 5;
  EXPECT_EQ(ClassifyFunnelStage(context, nullptr, options),
            FunnelStage::kLate);
}

TEST(FunnelTest, CategoryFocusRequiresCatalog) {
  data::Taxonomy taxonomy;
  data::CategoryId couches = taxonomy.AddCategory("couches", taxonomy.root());
  data::Catalog catalog(std::move(taxonomy));
  for (int i = 0; i < 6; ++i) {
    catalog.AddItem(data::Item{couches, data::kUnknownBrand, 0, 0});
  }
  catalog.Finalize();
  // Six distinct items, all couches: focused shopper.
  Context context = Views({0, 1, 2, 3, 4, 5});
  EXPECT_EQ(ClassifyFunnelStage(context, nullptr, {}), FunnelStage::kEarly);
  EXPECT_EQ(ClassifyFunnelStage(context, &catalog, {}), FunnelStage::kLate);
}

// The hash-map classifier ClassifyFunnelStage used before its linear scan:
// the reference the scan must agree with on every input.
FunnelStage ReferenceFunnelStage(const Context& context,
                                 const data::Catalog* catalog,
                                 const FunnelOptions& options) {
  const int n = static_cast<int>(context.size());
  std::unordered_map<data::ItemIndex, int> item_views;
  std::unordered_map<data::CategoryId, int> category_events;
  for (int j = std::max(0, n - options.window); j < n; ++j) {
    const ContextEntry& entry = context[j];
    if (entry.action == ActionType::kCart ||
        entry.action == ActionType::kConversion) {
      return FunnelStage::kLate;
    }
    if (++item_views[entry.item] >= options.min_repeat_views) {
      return FunnelStage::kLate;
    }
    if (catalog != nullptr &&
        ++category_events[catalog->item(entry.item).category] >=
            options.min_category_focus) {
      return FunnelStage::kLate;
    }
  }
  return FunnelStage::kEarly;
}

TEST(FunnelTest, LinearScanMatchesMapReferenceOnRandomContexts) {
  // 12 items over 3 categories, so repeats and category focus both occur.
  data::Taxonomy taxonomy;
  std::vector<data::CategoryId> categories;
  for (const char* name : {"a", "b", "c"}) {
    categories.push_back(taxonomy.AddCategory(name, taxonomy.root()));
  }
  data::Catalog catalog(std::move(taxonomy));
  for (int i = 0; i < 12; ++i) {
    catalog.AddItem(data::Item{categories[i % 3], data::kUnknownBrand, 0, 0});
  }
  catalog.Finalize();

  Rng rng(53);
  int late = 0, cases = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    Context context(rng.Uniform(15));
    for (ContextEntry& entry : context) {
      entry.item = static_cast<data::ItemIndex>(rng.Uniform(12));
      // Mostly views and searches, so the item and category signals decide.
      entry.action = rng.Uniform(20) == 0
                         ? ActionType::kCart
                         : static_cast<ActionType>(rng.Uniform(2));
    }
    FunnelOptions options;
    options.min_repeat_views = 2 + static_cast<int>(rng.Uniform(2));
    options.min_category_focus = 2 + static_cast<int>(rng.Uniform(4));
    for (int window = 1; window <= 10; ++window) {
      options.window = window;
      const data::Catalog* catalogs[] = {nullptr, &catalog};
      for (const data::Catalog* with : catalogs) {
        const FunnelStage want = ReferenceFunnelStage(context, with, options);
        ASSERT_EQ(ClassifyFunnelStage(context, with, options), want)
            << "trial " << trial << " window " << window
            << (with != nullptr ? " with catalog" : " without catalog");
        late += want == FunnelStage::kLate ? 1 : 0;
        ++cases;
      }
    }
  }
  // Both outcomes are well represented.
  EXPECT_GT(late, cases / 5);
  EXPECT_LT(late, cases * 4 / 5);
}

TEST(FunnelTest, StageNames) {
  EXPECT_STREQ(FunnelStageName(FunnelStage::kEarly), "early");
  EXPECT_STREQ(FunnelStageName(FunnelStage::kLate), "late");
}

// --- late-funnel materialization + serving ---------------------------------

TEST(LateFunnelServingTest, SerializationCarriesLateList) {
  ItemRecommendations recs;
  recs.query = 5;
  recs.view_based = {{1, 0.9}};
  recs.purchase_based = {{2, 0.8}};
  recs.view_based_late = {{3, 0.7}};
  StatusOr<ItemRecommendations> parsed =
      ItemRecommendations::Deserialize(recs.Serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->view_based_late.size(), 1u);
  EXPECT_EQ(parsed->view_based_late[0].item, 3);
  // Records without the late list are malformed: there is no 3-part
  // legacy form.
  EXPECT_EQ(ItemRecommendations::Deserialize("5|1:0.9|2:0.8").status().code(),
            StatusCode::kDataLoss);
}

TEST(LateFunnelServingTest, MaterializedLateListsRespectFacets) {
  data::WorldConfig config;
  config.seed = 3;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, 150);
  CooccurrenceModel cooccurrence = CooccurrenceModel::Build(
      world.data.histories, world.data.num_items(), {});
  RepurchaseEstimator repurchase = RepurchaseEstimator::Build(
      world.data.histories, world.data.catalog, {});
  CandidateSelector selector(&world.data.catalog, &cooccurrence,
                             &repurchase);
  HyperParams params;
  params.num_factors = 8;
  BprModel model(&world.data.catalog, params);
  Rng rng(7);
  model.InitRandom(&rng);
  InferenceEngine engine(&model, &selector);

  InferenceEngine::Options options;
  options.top_k = 5;
  options.materialize_late_funnel = true;
  for (data::ItemIndex i = 0; i < 20; ++i) {
    ItemRecommendations recs = engine.RecommendForItem(i, options);
    int32_t facet = world.data.catalog.item(i).facet;
    for (const ScoredItem& item : recs.view_based_late) {
      EXPECT_EQ(world.data.catalog.item(item.item).facet, facet);
    }
  }
}

TEST(LateFunnelServingTest, StorePicksVariantByFunnelStage) {
  serving::RecommendationStore store;
  ItemRecommendations recs;
  recs.query = 0;
  recs.view_based = {{1, 0.9}, {2, 0.8}};
  recs.view_based_late = {{3, 0.7}};
  recs.purchase_based = {{4, 0.6}};
  store.LoadRetailer(1, {recs});

  // Early funnel (single view) -> broad substitutes.
  auto early = store.ServeContext(1, Views({0}));
  ASSERT_TRUE(early.ok());
  EXPECT_EQ((*early)[0].item, 1);
  // Late funnel (repeat views) -> facet-constrained list.
  auto late = store.ServeContext(1, Views({0, 5, 0}));
  ASSERT_TRUE(late.ok());
  EXPECT_EQ((*late)[0].item, 3);
  // Post-purchase still wins over funnel logic.
  Context bought = {{0, ActionType::kConversion}};
  auto post = store.ServeContext(1, bought);
  ASSERT_TRUE(post.ok());
  EXPECT_EQ((*post)[0].item, 4);
}

TEST(LateFunnelServingTest, FallsBackWhenNoLateVariant) {
  serving::RecommendationStore store;
  ItemRecommendations recs;
  recs.query = 0;
  recs.view_based = {{1, 0.9}};
  store.LoadRetailer(1, {recs});
  auto late = store.ServeContext(1, Views({0, 0}));
  ASSERT_TRUE(late.ok());
  EXPECT_EQ((*late)[0].item, 1);  // regular view-based fallback
}

}  // namespace
}  // namespace sigmund::core
