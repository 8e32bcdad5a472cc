#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "core/model.h"
#include "data/catalog.h"

namespace sigmund::core {
namespace {

// Catalog: root -> {electronics -> {phones, cases}, grocery}; four items.
struct TestWorld {
  data::Catalog catalog;
  data::CategoryId phones, cases, grocery;

  TestWorld() {
    data::Taxonomy taxonomy;
    data::CategoryId electronics =
        taxonomy.AddCategory("electronics", taxonomy.root());
    phones = taxonomy.AddCategory("phones", electronics);
    cases = taxonomy.AddCategory("cases", electronics);
    grocery = taxonomy.AddCategory("grocery", taxonomy.root());
    catalog = data::Catalog(std::move(taxonomy));
    catalog.AddItem(data::Item{phones, 0, 499.0, 0});   // item 0
    catalog.AddItem(data::Item{phones, 1, 599.0, 0});   // item 1
    catalog.AddItem(data::Item{cases, 0, 19.0, 1});     // item 2
    catalog.AddItem(data::Item{grocery, data::kUnknownBrand, 2.0, 2});
    catalog.Finalize();
  }
};

HyperParams SmallParams() {
  HyperParams params;
  params.num_factors = 4;
  params.use_taxonomy = true;
  params.use_brand = true;
  params.use_price = true;
  return params;
}

TEST(EmbeddingMatrixTest, ResizeZeroesValues) {
  EmbeddingMatrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.dim(), 4);
  for (int r = 0; r < 3; ++r) {
    for (int k = 0; k < 4; ++k) EXPECT_EQ(m.row(r)[k], 0.0f);
    EXPECT_EQ(m.adagrad(r), 0.0f);
  }
}

TEST(EmbeddingMatrixTest, InitRandomFillsGaussian) {
  EmbeddingMatrix m(50, 8);
  Rng rng(3);
  m.InitRandom(0.1, &rng);
  double sum = 0.0;
  int nonzero = 0;
  for (int r = 0; r < 50; ++r) {
    for (int k = 0; k < 8; ++k) {
      sum += m.row(r)[k];
      if (m.row(r)[k] != 0.0f) ++nonzero;
    }
  }
  EXPECT_GT(nonzero, 390);
  EXPECT_NEAR(sum / 400.0, 0.0, 0.05);
}

TEST(EmbeddingMatrixTest, GrowRowsPreservesOldInitializesNew) {
  EmbeddingMatrix m(2, 3);
  Rng rng(1);
  m.InitRandom(0.5, &rng);
  std::vector<float> old_row0(m.row(0), m.row(0) + 3);
  m.GrowRows(5, 0.5, &rng);
  EXPECT_EQ(m.rows(), 5);
  for (int k = 0; k < 3; ++k) EXPECT_EQ(m.row(0)[k], old_row0[k]);
  bool any_nonzero = false;
  for (int r = 2; r < 5; ++r) {
    for (int k = 0; k < 3; ++k) any_nonzero |= m.row(r)[k] != 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(BprModelTest, TablesSizedFromCatalogAndFlags) {
  TestWorld world;
  BprModel model(&world.catalog, SmallParams());
  EXPECT_EQ(model.item_embeddings().rows(), 4);
  EXPECT_EQ(model.context_embeddings().rows(), 4);
  EXPECT_EQ(model.taxonomy_embeddings().rows(), 5);  // root + 4 categories
  EXPECT_EQ(model.brand_embeddings().rows(), 2);
  EXPECT_EQ(model.price_embeddings().rows(), data::kDefaultPriceBuckets);

  HyperParams bare = SmallParams();
  bare.use_taxonomy = bare.use_brand = bare.use_price = false;
  BprModel plain(&world.catalog, bare);
  EXPECT_EQ(plain.taxonomy_embeddings().rows(), 0);
  EXPECT_EQ(plain.brand_embeddings().rows(), 0);
  EXPECT_EQ(plain.price_embeddings().rows(), 0);
}

TEST(BprModelTest, ItemRepresentationIsAdditive) {
  TestWorld world;
  BprModel model(&world.catalog, SmallParams());
  Rng rng(7);
  model.InitRandom(&rng);

  std::vector<float> phi(4);
  model.ItemRepresentation(0, phi.data());

  // Manually sum: v_0 + taxonomy path (phones, electronics, root) + brand 0
  // + price bucket of 499.
  std::vector<float> expected(4, 0.0f);
  const float* v = model.item_embeddings().row(0);
  for (int k = 0; k < 4; ++k) expected[k] += v[k];
  for (data::CategoryId c :
       world.catalog.taxonomy().PathToRoot(world.phones)) {
    const float* t = model.taxonomy_embeddings().row(c);
    for (int k = 0; k < 4; ++k) expected[k] += t[k];
  }
  const float* b = model.brand_embeddings().row(0);
  for (int k = 0; k < 4; ++k) expected[k] += b[k];
  int bucket = data::PriceBucket(499.0, data::kDefaultPriceBuckets);
  const float* p = model.price_embeddings().row(bucket);
  for (int k = 0; k < 4; ++k) expected[k] += p[k];

  for (int k = 0; k < 4; ++k) EXPECT_FLOAT_EQ(phi[k], expected[k]);
}

TEST(BprModelTest, SameCategorySharesTaxonomyComponent) {
  // With item embeddings zeroed, two items in the same category get an
  // identical representation minus brand/price differences — the
  // generalization mechanism for cold items.
  TestWorld world;
  HyperParams params = SmallParams();
  params.use_brand = false;
  params.use_price = false;
  BprModel model(&world.catalog, params);
  Rng rng(7);
  model.InitRandom(&rng);
  // Zero out the per-item embeddings.
  for (int r = 0; r < 4; ++r) {
    for (int k = 0; k < 4; ++k) model.item_embeddings().row(r)[k] = 0.0f;
  }
  std::vector<float> phi0(4), phi1(4), phi3(4);
  model.ItemRepresentation(0, phi0.data());
  model.ItemRepresentation(1, phi1.data());
  model.ItemRepresentation(3, phi3.data());
  for (int k = 0; k < 4; ++k) EXPECT_FLOAT_EQ(phi0[k], phi1[k]);
  bool differs = false;
  for (int k = 0; k < 4; ++k) differs |= phi0[k] != phi3[k];
  EXPECT_TRUE(differs);
}

TEST(BprModelTest, UserEmbeddingEmptyContextIsZero) {
  TestWorld world;
  BprModel model(&world.catalog, SmallParams());
  Rng rng(7);
  model.InitRandom(&rng);
  std::vector<float> u(4, 1.0f);
  model.UserEmbedding({}, u.data());
  for (int k = 0; k < 4; ++k) EXPECT_EQ(u[k], 0.0f);
}

TEST(BprModelTest, UserEmbeddingSingleItemIsItsContextEmbedding) {
  TestWorld world;
  BprModel model(&world.catalog, SmallParams());
  Rng rng(7);
  model.InitRandom(&rng);
  std::vector<float> u(4);
  model.UserEmbedding({{2, data::ActionType::kView}}, u.data());
  const float* vc = model.context_embeddings().row(2);
  for (int k = 0; k < 4; ++k) EXPECT_FLOAT_EQ(u[k], vc[k]);
}

TEST(BprModelTest, ContextWeightsDecayAndNormalize) {
  TestWorld world;
  HyperParams params = SmallParams();
  params.context_decay = 0.5;
  BprModel model(&world.catalog, params);
  std::span<const float> w = model.ContextWeights(3);
  ASSERT_EQ(w.size(), 3u);
  // Oldest first: 0.25, 0.5, 1.0 normalized by 1.75.
  EXPECT_NEAR(w[0], 0.25 / 1.75, 1e-6);
  EXPECT_NEAR(w[1], 0.50 / 1.75, 1e-6);
  EXPECT_NEAR(w[2], 1.00 / 1.75, 1e-6);
  // Recent actions weigh more (§III-B2).
  EXPECT_GT(w[2], w[1]);
  EXPECT_GT(w[1], w[0]);
}

TEST(BprModelTest, ContextWindowTruncatesOldActions) {
  TestWorld world;
  HyperParams params = SmallParams();
  params.context_window = 1;
  BprModel model(&world.catalog, params);
  Rng rng(7);
  model.InitRandom(&rng);
  // Only the newest entry (item 2) should matter.
  std::vector<float> u(4);
  model.UserEmbedding(
      {{0, data::ActionType::kView}, {2, data::ActionType::kView}}, u.data());
  const float* vc = model.context_embeddings().row(2);
  for (int k = 0; k < 4; ++k) EXPECT_FLOAT_EQ(u[k], vc[k]);
}

TEST(BprModelTest, ScoreIsDotProduct) {
  TestWorld world;
  BprModel model(&world.catalog, SmallParams());
  Rng rng(7);
  model.InitRandom(&rng);
  std::vector<float> u = {1.0f, 0.0f, -1.0f, 2.0f};
  std::vector<float> phi(4);
  model.ItemRepresentation(1, phi.data());
  double expected = u[0] * phi[0] + u[1] * phi[1] + u[2] * phi[2] +
                    u[3] * phi[3];
  EXPECT_NEAR(model.Score(u.data(), 1), expected, 1e-6);
}

TEST(BprModelTest, SerializeDeserializeRoundTrip) {
  TestWorld world;
  BprModel model(&world.catalog, SmallParams());
  Rng rng(11);
  model.InitRandom(&rng);
  model.item_embeddings().adagrad(2) = 3.5f;

  std::string bytes = model.Serialize();
  StatusOr<BprModel> restored = BprModel::Deserialize(bytes, &world.catalog);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->params(), model.params());
  for (int r = 0; r < 4; ++r) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(restored->item_embeddings().row(r)[k],
                model.item_embeddings().row(r)[k]);
      EXPECT_EQ(restored->context_embeddings().row(r)[k],
                model.context_embeddings().row(r)[k]);
    }
  }
  EXPECT_EQ(restored->item_embeddings().adagrad(2), 3.5f);
  // Scores identical.
  std::vector<float> u = {0.3f, -0.2f, 0.9f, 0.1f};
  for (data::ItemIndex i = 0; i < 4; ++i) {
    EXPECT_NEAR(restored->Score(u.data(), i), model.Score(u.data(), i), 1e-7);
  }
}

TEST(BprModelTest, DeserializeRejectsGarbage) {
  TestWorld world;
  EXPECT_FALSE(BprModel::Deserialize("not a model", &world.catalog).ok());
  EXPECT_FALSE(BprModel::Deserialize("", &world.catalog).ok());
  BprModel model(&world.catalog, SmallParams());
  std::string bytes = model.Serialize();
  bytes.resize(bytes.size() / 2);  // truncated
  EXPECT_FALSE(BprModel::Deserialize(bytes, &world.catalog).ok());
}

// Appends `value`'s bytes, as BprModel::Serialize lays them out.
template <typename T>
void PutRaw(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

// Byte offset of the first (item) table in a serialized model: after the
// magic, the version, the params length and the params text.
size_t ItemTableOffset(const std::string& bytes) {
  uint64_t params_size = 0;
  std::memcpy(&params_size, bytes.data() + 8, sizeof(params_size));
  return 16 + params_size;
}

// The model codec sits inside a CRC frame, so these hostile tables model
// a writer bug or a forged file, not bit rot.
TEST(ModelTest, DeserializeRejectsRowsWithZeroDim) {
  TestWorld world;
  const std::string bytes =
      BprModel(&world.catalog, SmallParams()).Serialize();
  const size_t table = ItemTableOffset(bytes);
  int32_t rows = 0, dim = 0;
  std::memcpy(&rows, bytes.data() + table, sizeof(rows));
  std::memcpy(&dim, bytes.data() + table + 4, sizeof(dim));
  ASSERT_EQ(rows, 4);
  ASSERT_EQ(dim, 4);
  const size_t table_size = 8 + (8 + sizeof(float) * rows * dim) +
                            (8 + sizeof(float) * rows);

  // The same item rows and Adagrad accumulators, but no dimension and so
  // no embedding values: every size check holds.
  std::string hostile = bytes.substr(0, table);
  PutRaw<int32_t>(&hostile, rows);
  PutRaw<int32_t>(&hostile, 0);
  PutRaw<uint64_t>(&hostile, 0);
  PutRaw<uint64_t>(&hostile, rows);
  for (int32_t r = 0; r < rows; ++r) PutRaw<float>(&hostile, 0.0f);
  hostile += bytes.substr(table + table_size);

  EXPECT_EQ(BprModel::Deserialize(hostile, &world.catalog).status().code(),
            StatusCode::kDataLoss);
}

TEST(ModelTest, DeserializeRejectsOverflowingFloatCount) {
  TestWorld world;
  std::string hostile = BprModel(&world.catalog, SmallParams()).Serialize();
  // count * sizeof(float) wraps to 0, so an unguarded bounds check passes.
  const uint64_t count = uint64_t{1} << 62;
  std::memcpy(hostile.data() + ItemTableOffset(hostile) + 8, &count,
              sizeof(count));
  EXPECT_EQ(BprModel::Deserialize(hostile, &world.catalog).status().code(),
            StatusCode::kDataLoss);
}

// Byte offsets of the five tables in a serialized model, in write order
// (item, context, taxonomy, brand, price), then the end of the last one.
std::vector<size_t> TableOffsets(const std::string& bytes) {
  std::vector<size_t> offsets = {ItemTableOffset(bytes)};
  for (int t = 0; t < 5; ++t) {
    size_t offset = offsets.back() + 8;  // rows, dim
    for (int part = 0; part < 2; ++part) {  // values, then accumulators
      uint64_t count = 0;
      std::memcpy(&count, bytes.data() + offset, sizeof(count));
      offset += 8 + count * sizeof(float);
    }
    offsets.push_back(offset);
  }
  return offsets;
}

// `bytes` with table `t` written as absent: no rows, no dimension, no
// values.
std::string WithTableAbsent(const std::string& bytes, int t) {
  const std::vector<size_t> tables = TableOffsets(bytes);
  std::string out = bytes.substr(0, tables[t]);
  PutRaw<int32_t>(&out, 0);
  PutRaw<int32_t>(&out, 0);
  PutRaw<uint64_t>(&out, 0);
  PutRaw<uint64_t>(&out, 0);
  return out + bytes.substr(tables[t + 1]);
}

// Every user embedding reads the context table, so a model without one
// would crash its first UserEmbedding.
TEST(ModelTest, DeserializeRejectsMissingContextTable) {
  TestWorld world;
  const std::string bytes =
      BprModel(&world.catalog, SmallParams()).Serialize();
  EXPECT_EQ(BprModel::Deserialize(WithTableAbsent(bytes, 1), &world.catalog)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

// An enabled taxonomy or price feature indexes its table by every
// category or bucket, so the table must have those rows.
TEST(ModelTest, DeserializeRejectsMissingFeatureTables) {
  TestWorld world;
  const std::string bytes =
      BprModel(&world.catalog, SmallParams()).Serialize();
  for (int t : {2, 4}) {  // taxonomy, price
    EXPECT_EQ(BprModel::Deserialize(WithTableAbsent(bytes, t), &world.catalog)
                  .status()
                  .code(),
              StatusCode::kDataLoss)
        << "table " << t;
  }
  // Brand rows are bounds-checked at use: an absent brand table decodes.
  EXPECT_TRUE(
      BprModel::Deserialize(WithTableAbsent(bytes, 3), &world.catalog).ok());
}

// A NaN embedding scores its item NaN; a non-finite or negative Adagrad
// accumulator turns the next update's step into NaN.
TEST(ModelTest, DeserializeRejectsNonFiniteValues) {
  TestWorld world;
  const std::string bytes =
      BprModel(&world.catalog, SmallParams()).Serialize();
  const size_t first_value = ItemTableOffset(bytes) + 8 + 8;
  const size_t first_adagrad =
      first_value + 4 * 4 * sizeof(float) + 8;  // 4 rows x dim 4, count
  const struct {
    size_t offset;
    float value;
  } cases[] = {
      {first_value, std::nanf("")},
      {first_value, std::numeric_limits<float>::infinity()},
      {first_adagrad, std::numeric_limits<float>::infinity()},
      {first_adagrad, -1.0f},
  };
  for (const auto& c : cases) {
    std::string hostile = bytes;
    std::memcpy(hostile.data() + c.offset, &c.value, sizeof(float));
    EXPECT_EQ(BprModel::Deserialize(hostile, &world.catalog).status().code(),
              StatusCode::kDataLoss)
        << "value " << c.value << " at " << c.offset;
  }
  // The untouched bytes still decode.
  EXPECT_TRUE(BprModel::Deserialize(bytes, &world.catalog).ok());
}

TEST(BprModelTest, ResizeForCatalogGrowsItemTables) {
  TestWorld world;
  BprModel model(&world.catalog, SmallParams());
  Rng rng(5);
  model.InitRandom(&rng);
  std::vector<float> old0(model.item_embeddings().row(0),
                          model.item_embeddings().row(0) + 4);

  world.catalog.AddItem(data::Item{world.cases, 0, 25.0, 1});
  EXPECT_EQ(model.ResizeForCatalog(&rng), 1);
  EXPECT_EQ(model.item_embeddings().rows(), 5);
  EXPECT_EQ(model.context_embeddings().rows(), 5);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(model.item_embeddings().row(0)[k], old0[k]);
  }
  // Idempotent when nothing changed.
  EXPECT_EQ(model.ResizeForCatalog(&rng), 0);
}

TEST(BprModelTest, ResetAdagradClearsAccumulators) {
  TestWorld world;
  BprModel model(&world.catalog, SmallParams());
  model.item_embeddings().adagrad(1) = 9.0f;
  model.taxonomy_embeddings().adagrad(0) = 2.0f;
  model.ResetAdagrad();
  EXPECT_EQ(model.item_embeddings().adagrad(1), 0.0f);
  EXPECT_EQ(model.taxonomy_embeddings().adagrad(0), 0.0f);
}

TEST(BprModelTest, MemoryScalesWithFactors) {
  TestWorld world;
  HyperParams small = SmallParams();
  HyperParams big = SmallParams();
  big.num_factors = 64;
  BprModel model_small(&world.catalog, small);
  BprModel model_big(&world.catalog, big);
  EXPECT_GT(model_big.MemoryBytes(), 8 * model_small.MemoryBytes());
}

}  // namespace
}  // namespace sigmund::core
