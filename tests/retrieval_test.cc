#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"
#include "counter_total.h"
#include "data/world_generator.h"
#include "pipeline/service.h"
#include "retrieval/artifact.h"
#include "retrieval/index.h"
#include "retrieval/reader.h"
#include "serving/frontend.h"
#include "sfs/mem_filesystem.h"
#include "sfs/reliable_io.h"

namespace sigmund {
namespace {

using data::ActionType;

std::vector<float> Flatten(const std::vector<std::vector<float>>& rows) {
  std::vector<float> flat;
  if (rows.empty()) return flat;
  flat.reserve(rows.size() * rows[0].size());
  for (const std::vector<float>& row : rows) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

std::set<data::ItemIndex> ItemSet(const std::vector<core::ScoredItem>& items) {
  std::set<data::ItemIndex> set;
  for (const core::ScoredItem& item : items) set.insert(item.item);
  return set;
}

// A toy artifact over `n` items in dim 2: item i's vector is (i + 1, 1),
// and the query side mirrors the item side, so a context of item c scores
// item i as (c + 1) * (i + 1) + 1 — strictly increasing in i. Every query
// therefore ranks the highest-index items first, which makes routing
// decisions trivially checkable.
retrieval::IndexArtifact ToyArtifact(data::RetailerId retailer, int n) {
  std::vector<float> vectors;
  for (int i = 0; i < n; ++i) {
    vectors.push_back(static_cast<float>(i + 1));
    vectors.push_back(1.0f);
  }
  retrieval::AnnIndex::Options options;
  options.num_lists = 4;
  options.kmeans_iters = 4;
  return retrieval::BuildArtifactFromFactors(retailer, vectors, vectors,
                                             /*dim=*/2, /*context_window=*/25,
                                             /*context_decay=*/0.85, options);
}

// --- Index: recall, determinism, validation -------------------------------

TEST(AnnIndexTest, RecallAtTenVersusExactOnSeededWorld) {
  data::WorldConfig config;
  config.seed = 29;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, 300);
  const int dim = world.truth.dim;
  std::vector<float> item_vectors = Flatten(world.truth.item_vecs);

  retrieval::ExactIndex exact(item_vectors, dim);
  retrieval::AnnIndex::Options options;  // 16 lists, 8 Lloyd iterations
  retrieval::AnnIndex ann =
      retrieval::AnnIndex::Build(item_vectors, dim, options);
  ASSERT_EQ(ann.num_items(), 300);
  ASSERT_EQ(ann.num_lists(), 16);

  const int kQueries = 100;
  const int kTopK = 10;
  const int kNprobe = 8;
  ASSERT_GE(static_cast<int>(world.truth.user_vecs.size()), kQueries);
  double hits = 0.0;
  int64_t scanned = 0;
  for (int q = 0; q < kQueries; ++q) {
    const float* query = world.truth.user_vecs[q].data();
    std::vector<core::ScoredItem> truth =
        exact.Search(query, kTopK, /*nprobe=*/0, nullptr);
    retrieval::SearchStats stats;
    std::vector<core::ScoredItem> approx =
        ann.Search(query, kTopK, kNprobe, &stats);
    EXPECT_EQ(stats.lists_probed, kNprobe);
    scanned += stats.candidates_scanned;
    std::set<data::ItemIndex> truth_set = ItemSet(truth);
    for (const core::ScoredItem& item : approx) {
      if (truth_set.count(item.item) > 0) hits += 1.0;
    }
  }
  const double recall = hits / (kQueries * kTopK);
  EXPECT_GE(recall, 0.95) << "ANN recall@10 over " << kQueries << " queries";
  // The index must actually prune: probing half the lists scans well
  // under the full catalog per query on average.
  EXPECT_LT(scanned, static_cast<int64_t>(kQueries) * 300 * 3 / 4);
}

TEST(AnnIndexTest, FullProbeMatchesExactSearchExactly) {
  data::WorldConfig config;
  config.seed = 31;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, 80);
  const int dim = world.truth.dim;
  std::vector<float> item_vectors = Flatten(world.truth.item_vecs);

  retrieval::ExactIndex exact(item_vectors, dim);
  retrieval::AnnIndex ann =
      retrieval::AnnIndex::Build(item_vectors, dim, {});
  for (int q = 0; q < 20; ++q) {
    const float* query = world.truth.user_vecs[q].data();
    std::vector<core::ScoredItem> truth = exact.Search(query, 10, 0, nullptr);
    // Probing every list degenerates to exact search: same items, same
    // order, same scores.
    std::vector<core::ScoredItem> full =
        ann.Search(query, 10, ann.num_lists(), nullptr);
    ASSERT_EQ(full.size(), truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(full[i].item, truth[i].item);
      EXPECT_DOUBLE_EQ(full[i].score, truth[i].score);
    }
  }
}

// --- Index: top-k equals a full sort of every scanned candidate ------------

// The index's lists and centroids, read back through its own encoding so
// the reference below sees exactly what Search scans.
struct AnnLayout {
  int32_t dim = 0, num_items = 0, num_lists = 0;
  std::vector<float> centroids;
  std::vector<int32_t> offsets, ids;
  std::vector<float> vectors;
};

AnnLayout LayoutOf(const retrieval::AnnIndex& index) {
  BinaryWriter writer;
  index.SerializeTo(&writer);
  BinaryReader reader(writer.buffer());
  AnnLayout layout;
  SIGCHECK(reader.Read(&layout.dim) && reader.Read(&layout.num_items) &&
           reader.Read(&layout.num_lists) &&
           reader.ReadVector(&layout.centroids) &&
           reader.ReadVector(&layout.offsets) && reader.ReadVector(&layout.ids) &&
           reader.ReadVector(&layout.vectors));
  return layout;
}

double ReferenceDot(const float* a, const float* b, int dim) {
  double sum = 0.0;
  for (int k = 0; k < dim; ++k) {
    sum += static_cast<double>(a[k]) * static_cast<double>(b[k]);
  }
  return sum;
}

// Full sort by (score desc, item asc), then the first k.
std::vector<core::ScoredItem> FullSortTopK(std::vector<core::ScoredItem> all,
                                           int k) {
  std::sort(all.begin(), all.end(),
            [](const core::ScoredItem& a, const core::ScoredItem& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.item < b.item;
            });
  if (static_cast<int>(all.size()) > k) all.resize(std::max(k, 0));
  return all;
}

std::vector<core::ScoredItem> ReferenceAnnSearch(const AnnLayout& ann,
                                                 const float* query, int k,
                                                 int nprobe) {
  std::vector<std::pair<double, int>> ranked;
  for (int c = 0; c < ann.num_lists; ++c) {
    ranked.emplace_back(
        ReferenceDot(query, ann.centroids.data() + c * ann.dim, ann.dim), c);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const std::pair<double, int>& a,
               const std::pair<double, int>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<core::ScoredItem> scanned;
  const int probes = std::max(1, std::min(nprobe, ann.num_lists));
  for (int p = 0; p < probes; ++p) {
    const int c = ranked[p].second;
    for (int32_t slot = ann.offsets[c]; slot < ann.offsets[c + 1]; ++slot) {
      scanned.push_back(
          {ann.ids[slot],
           ReferenceDot(query, ann.vectors.data() + slot * ann.dim, ann.dim)});
    }
  }
  return FullSortTopK(std::move(scanned), k);
}

std::vector<core::ScoredItem> ReferenceExactSearch(
    const std::vector<float>& vectors, int dim, const float* query, int k) {
  std::vector<core::ScoredItem> scanned;
  const int n = static_cast<int>(vectors.size()) / dim;
  for (int i = 0; i < n; ++i) {
    scanned.push_back({i, ReferenceDot(query, vectors.data() + i * dim, dim)});
  }
  return FullSortTopK(std::move(scanned), k);
}

void ExpectSameRanking(const std::vector<core::ScoredItem>& got,
                       const std::vector<core::ScoredItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

// Runs every (k, nprobe) case over `queries` against both indexes.
void CheckTopKAgainstFullSort(const std::vector<float>& item_vectors, int dim,
                              const std::vector<std::vector<float>>& queries) {
  const int n = static_cast<int>(item_vectors.size()) / dim;
  retrieval::ExactIndex exact(item_vectors, dim);
  retrieval::AnnIndex::Options options;
  options.num_lists = 8;
  retrieval::AnnIndex ann =
      retrieval::AnnIndex::Build(item_vectors, dim, options);
  const AnnLayout layout = LayoutOf(ann);
  const int lists = ann.num_lists();
  for (const std::vector<float>& query : queries) {
    for (int k : {0, 1, 10, n, n + 5}) {
      SCOPED_TRACE(testing::Message() << "k " << k);
      ExpectSameRanking(exact.Search(query.data(), k, 0, nullptr),
                        ReferenceExactSearch(item_vectors, dim, query.data(),
                                             k));
      for (int nprobe : {1, lists / 2, lists}) {
        SCOPED_TRACE(testing::Message() << "nprobe " << nprobe);
        retrieval::SearchStats stats;
        std::vector<core::ScoredItem> got =
            ann.Search(query.data(), k, nprobe, &stats);
        ExpectSameRanking(got,
                          ReferenceAnnSearch(layout, query.data(), k, nprobe));
        // k past the scanned count returns every scanned candidate.
        if (k >= n) {
          EXPECT_EQ(static_cast<int64_t>(got.size()),
                    stats.candidates_scanned);
        }
      }
    }
  }
}

TEST(AnnIndexTest, TopKEqualsFullSortOfScannedCandidatesOnSeededWorld) {
  data::WorldConfig config;
  config.seed = 37;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, 150);
  std::vector<std::vector<float>> queries(world.truth.user_vecs.begin(),
                                          world.truth.user_vecs.begin() + 10);
  CheckTopKAgainstFullSort(Flatten(world.truth.item_vecs), world.truth.dim,
                           queries);
}

TEST(AnnIndexTest, TopKBreaksTiedScoresByAscendingItem) {
  // Every vector appears three times (items i, i + 40, i + 80), so every
  // score is tied three ways and the item-asc tiebreak decides the order.
  data::WorldConfig config;
  config.seed = 41;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, 40);
  std::vector<std::vector<float>> rows;
  for (int copy = 0; copy < 3; ++copy) {
    rows.insert(rows.end(), world.truth.item_vecs.begin(),
                world.truth.item_vecs.end());
  }
  std::vector<std::vector<float>> queries(world.truth.user_vecs.begin(),
                                          world.truth.user_vecs.begin() + 10);
  CheckTopKAgainstFullSort(Flatten(rows), world.truth.dim, queries);
}

TEST(AnnIndexTest, TinyCatalogClampsListsAndStillServes) {
  // 3 items, 16 requested lists: clamps to 3 and answers fine.
  std::vector<float> vectors = {1, 0, 0, 1, 1, 1};
  retrieval::AnnIndex ann = retrieval::AnnIndex::Build(vectors, 2, {});
  EXPECT_EQ(ann.num_lists(), 3);
  const float query[2] = {1.0f, 0.0f};
  std::vector<core::ScoredItem> items =
      ann.Search(query, 10, /*nprobe=*/16, nullptr);
  EXPECT_EQ(items.size(), 3u);
}

TEST(AnnIndexTest, SameSeedBuildsAreByteIdentical) {
  data::WorldConfig config;
  config.seed = 29;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, 120);
  std::vector<float> item_vectors = Flatten(world.truth.item_vecs);

  retrieval::AnnIndex::Options options;
  options.num_lists = 8;
  retrieval::IndexArtifact a = retrieval::BuildArtifactFromFactors(
      0, item_vectors, item_vectors, world.truth.dim, 25, 0.85, options);
  retrieval::IndexArtifact b = retrieval::BuildArtifactFromFactors(
      0, item_vectors, item_vectors, world.truth.dim, 25, 0.85, options);
  const std::string bytes_a = a.Serialize();
  EXPECT_EQ(bytes_a, b.Serialize());

  // Round-trip re-serializes to the same bytes, too.
  StatusOr<retrieval::IndexArtifact> decoded =
      retrieval::IndexArtifact::Deserialize(bytes_a);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->Serialize(), bytes_a);
}

TEST(IndexArtifactTest, RejectsTruncatedAndMangledEncodings) {
  const retrieval::IndexArtifact artifact = ToyArtifact(0, 12);
  const std::string bytes = artifact.Serialize();
  ASSERT_TRUE(retrieval::IndexArtifact::Deserialize(bytes).ok());

  // Any strict prefix is kDataLoss, never a crash or a partial artifact.
  for (size_t cut : {size_t{0}, size_t{3}, bytes.size() / 2,
                     bytes.size() - 1}) {
    StatusOr<retrieval::IndexArtifact> truncated =
        retrieval::IndexArtifact::Deserialize(bytes.substr(0, cut));
    EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss)
        << "prefix of " << cut << " bytes";
  }

  // Wrong magic (a model file staged at the index path, say).
  std::string mangled = bytes;
  mangled[0] ^= 0x5a;
  EXPECT_EQ(retrieval::IndexArtifact::Deserialize(mangled).status().code(),
            StatusCode::kDataLoss);

  // Trailing garbage is also rejected: the frame must parse exactly.
  EXPECT_EQ(retrieval::IndexArtifact::Deserialize(bytes + "x").status().code(),
            StatusCode::kDataLoss);
}

TEST(IndexArtifactTest, FuzzTruncationsBitFlipsAndOverlengthNeverCrash) {
  // Fuzz-style hostile-input sweep, mirroring the BinaryReader fuzz test:
  // the index loader parses bytes staged by another process, so every
  // mutation must produce a clean non-ok Status — never a crash, hang, or
  // out-of-bounds read. A decode that happens to succeed must round-trip.
  const retrieval::IndexArtifact artifact = ToyArtifact(3, 24);
  const std::string good = artifact.Serialize();
  ASSERT_TRUE(retrieval::IndexArtifact::Deserialize(good).ok());

  auto decode = [](const std::string& bytes) {
    StatusOr<retrieval::IndexArtifact> decoded =
        retrieval::IndexArtifact::Deserialize(bytes);
    if (decoded.ok()) {
      // Anything accepted must be a faithful frame, not a lucky parse.
      EXPECT_EQ(decoded->Serialize(), bytes);
    }
  };

  // Every strict prefix (all truncation points, not just a sample).
  for (size_t len = 0; len < good.size(); ++len) {
    decode(good.substr(0, len));
  }

  Rng rng(987654);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = good;
    const int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    }
    if (rng.Bernoulli(0.15)) {
      // Truncate to a random length.
      mutated.resize(rng.Uniform(mutated.size() + 1));
    } else if (rng.Bernoulli(0.15)) {
      // Overlength frame: pad with random garbage past the real payload.
      const size_t pad = 1 + rng.Uniform(64);
      for (size_t i = 0; i < pad; ++i) {
        mutated.push_back(static_cast<char>(rng.Uniform(256)));
      }
    }
    decode(mutated);
  }
}

// The artifact and BprModel read their decay weights from one
// core::ContextWeightTable type: for every window 1..25 both equal the
// normalized pow() weights bit for bit, before and after serialization,
// and the online query embedding equals the model's user embedding.
TEST(IndexArtifactTest, DecayWeightsBitIdenticalToModelForWindows1To25) {
  data::WorldConfig config;
  config.seed = 41;
  data::WorldGenerator generator(config);
  const data::RetailerWorld world = generator.GenerateRetailer(0, 60);
  const int num_items = world.data.num_items();
  retrieval::AnnIndex::Options options;
  options.num_lists = 4;
  options.kmeans_iters = 2;
  for (int window = 1; window <= 25; ++window) {
    SCOPED_TRACE(window);
    core::HyperParams params;
    params.num_factors = 4;
    params.context_window = window;
    params.context_decay = 0.85;
    core::BprModel model(&world.data.catalog, params);
    Rng rng(window);
    model.InitRandom(&rng);
    const retrieval::IndexArtifact built =
        retrieval::BuildArtifactFromModel(0, model, options);
    StatusOr<retrieval::IndexArtifact> loaded =
        retrieval::IndexArtifact::Deserialize(built.Serialize());
    ASSERT_TRUE(loaded.ok());

    for (int n = 1; n <= window; ++n) {
      std::vector<float> expected(n);
      double total = 0.0;
      for (int j = 0; j < n; ++j) {
        const double w = std::pow(params.context_decay, n - 1 - j);
        expected[j] = static_cast<float>(w);
        total += w;
      }
      for (float& w : expected) w = static_cast<float>(w / total);
      for (std::span<const float> weights :
           {model.ContextWeights(n), built.context_weights.Weights(n),
            loaded->context_weights.Weights(n)}) {
        ASSERT_EQ(weights.size(), static_cast<size_t>(n));
        EXPECT_EQ(std::memcmp(weights.data(), expected.data(),
                              n * sizeof(float)),
                  0);
      }
    }

    core::Context context;
    for (int j = 0; j < window + 3; ++j) {
      context.push_back({(j * 7) % num_items, ActionType::kView});
    }
    std::vector<float> user(4), query(4);
    model.UserEmbedding(context, user.data());
    loaded->QueryEmbedding(context, query.data());
    EXPECT_EQ(std::memcmp(user.data(), query.data(), 4 * sizeof(float)), 0);
  }

  // A window past core::kMaxContextWindow is refused at decode time,
  // before any weight table is sized from it.
  retrieval::IndexArtifact hostile = ToyArtifact(0, 12);
  hostile.context_window = core::kMaxContextWindow + 1;
  EXPECT_EQ(
      retrieval::IndexArtifact::Deserialize(hostile.Serialize()).status().code(),
      StatusCode::kDataLoss);
}

// --- Reader: version chain, corruption, serving ---------------------------

TEST(OnlineRetrievalReaderTest, VersionChainStageActivateRollbackDiscard) {
  retrieval::OnlineRetrievalReader::Options options;
  options.top_k = 5;
  options.retained_versions = 2;
  obs::MetricRegistry metrics;
  retrieval::OnlineRetrievalReader reader(options, &metrics);

  EXPECT_EQ(reader.RetailerVersion(7), 0);
  EXPECT_EQ(reader.ServeContext(7, {{0, ActionType::kView}}).status().code(),
            StatusCode::kNotFound);

  const int64_t v1 = reader.StageArtifact(7, ToyArtifact(7, 10));
  EXPECT_EQ(v1, 1);
  // Staged but not active: the retailer still serves nothing.
  EXPECT_EQ(reader.RetailerVersion(7), 0);
  ASSERT_TRUE(reader.ActivateVersion(7, v1).ok());
  EXPECT_EQ(reader.RetailerVersion(7), 1);

  StatusOr<std::vector<core::ScoredItem>> items =
      reader.ServeContext(7, {{0, ActionType::kView}});
  ASSERT_TRUE(items.ok());
  ASSERT_EQ(items->size(), 5u);
  // Highest-index items first (toy geometry), and never the context item.
  EXPECT_EQ((*items)[0].item, 9);
  for (const core::ScoredItem& item : *items) EXPECT_NE(item.item, 0);

  const int64_t v2 = reader.StageArtifact(7, ToyArtifact(7, 12));
  ASSERT_TRUE(reader.ActivateVersion(7, v2).ok());
  EXPECT_EQ(reader.RetailerVersion(7), 2);

  // Rollback is a pointer flip to a still-resident version.
  ASSERT_TRUE(reader.RollbackRetailer(7, v1).ok());
  EXPECT_EQ(reader.RetailerVersion(7), 1);
  // The active version cannot be discarded; a staged one can.
  EXPECT_EQ(reader.DiscardVersion(7, v1).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(reader.DiscardVersion(7, v2).ok());
  EXPECT_EQ(reader.DiscardVersion(7, v2).code(), StatusCode::kNotFound);
  EXPECT_EQ(reader.ActivateVersion(7, 99).code(), StatusCode::kNotFound);

  // Retention: with retained_versions = 2, old non-active versions are
  // evicted as the chain advances, but the active version never is.
  const int64_t v3 = reader.StageArtifact(7, ToyArtifact(7, 10));
  ASSERT_TRUE(reader.ActivateVersion(7, v3).ok());
  const int64_t v4 = reader.StageArtifact(7, ToyArtifact(7, 11));
  ASSERT_TRUE(reader.ActivateVersion(7, v4).ok());
  reader.StageArtifact(7, ToyArtifact(7, 12));  // evicts v1 and v3
  std::vector<int64_t> retained = reader.RetainedVersions(7);
  EXPECT_EQ(retained.size(), 2u);
  EXPECT_TRUE(std::count(retained.begin(), retained.end(), v4) > 0);
  EXPECT_EQ(reader.RetailerVersion(7), v4);
}

TEST(OnlineRetrievalReaderTest, CorruptArtifactRejectedPreviousKeepsServing) {
  sfs::MemFileSystem fs;
  obs::MetricRegistry metrics;
  sfs::ReliableIoCounters io(&metrics);
  retrieval::OnlineRetrievalReader reader({}, &metrics);
  auto detected = [&] {
    return testutil::CounterTotal(metrics, "sfs_corruptions_detected_total");
  };
  const std::string path = "retrieval/r3";

  ASSERT_TRUE(sfs::WriteChecksummedFile(&fs, path,
                                        ToyArtifact(3, 10).Serialize())
                  .ok());
  StatusOr<int64_t> v1 = reader.StageFromFile(3, fs, path, {}, &io);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  ASSERT_TRUE(reader.ActivateVersion(3, *v1).ok());

  // A torn frame (raw bytes, no checksummed framing) fails the CRC gate.
  ASSERT_TRUE(fs.Write(path, "not a checksummed frame").ok());
  EXPECT_EQ(reader.StageFromFile(3, fs, path, {}, &io).status().code(),
            StatusCode::kDataLoss);

  // A well-framed blob whose payload is not an artifact passes the CRC
  // but fails artifact validation — and is counted as a corruption.
  const int64_t detected_before = detected();
  ASSERT_TRUE(
      sfs::WriteChecksummedFile(&fs, path, "CRC-clean but meaningless").ok());
  EXPECT_EQ(reader.StageFromFile(3, fs, path, {}, &io).status().code(),
            StatusCode::kDataLoss);
  EXPECT_GT(detected(), detected_before);

  // Through it all, v1 never stopped serving.
  EXPECT_EQ(reader.RetailerVersion(3), *v1);
  EXPECT_TRUE(reader.ServeContext(3, {{0, ActionType::kView}}).ok());
  EXPECT_EQ(reader.RetainedVersions(3).size(), 1u);
}

TEST(OnlineRetrievalReaderTest, CountsQueriesAndCandidatesInRegistry) {
  obs::MetricRegistry metrics;
  retrieval::OnlineRetrievalReader::Options options;
  options.top_k = 3;
  options.nprobe = 2;
  retrieval::OnlineRetrievalReader reader(options, &metrics);
  const int64_t v = reader.StageArtifact(1, ToyArtifact(1, 20));
  ASSERT_TRUE(reader.ActivateVersion(1, v).ok());

  ASSERT_TRUE(reader.ServeContext(1, {{2, ActionType::kView}}).ok());
  EXPECT_EQ(reader.ServeContext(2, {{0, ActionType::kView}}).status().code(),
            StatusCode::kNotFound);

  obs::RegistrySnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("retrieval_queries_total",
                                  {{"outcome", "ok"}}),
            1);
  EXPECT_EQ(snapshot.CounterValue("retrieval_queries_total",
                                  {{"outcome", "error"}}),
            1);
}

// --- Frontend A/B route ---------------------------------------------------

struct FrontendAbFixture {
  serving::RecommendationStore store;
  obs::MetricRegistry metrics;
  retrieval::OnlineRetrievalReader reader{[] {
    retrieval::OnlineRetrievalReader::Options options;
    options.top_k = 3;
    return options;
  }(), &metrics};

  FrontendAbFixture() {
    core::ItemRecommendations recs;
    recs.query = 0;
    recs.view_based = {{1, 2.0}, {2, 0.5}, {3, -1.0}};
    store.LoadRetailer(1, {recs});
    const int64_t v = reader.StageArtifact(1, ToyArtifact(1, 20));
    SIGCHECK(reader.ActivateVersion(1, v).ok());
  }

  serving::Frontend::Options AbOptions(
      double fraction, const serving::ServingReader* retrieval) {
    serving::Frontend::Options options;
    options.retrieval_store = retrieval;
    options.retrieval_ab_fraction = fraction;
    return options;
  }

  serving::RecommendationRequest Request(data::UserIndex user) {
    serving::RecommendationRequest request;
    request.retailer = 1;
    request.user = user;
    request.context = {{0, ActionType::kView}};
    return request;
  }
};

TEST(FrontendRetrievalAbTest, FullFractionServesFromRetrievalPlane) {
  FrontendAbFixture f;
  serving::Frontend frontend(&f.store, nullptr, &f.metrics, nullptr,
                             f.AbOptions(1.0, &f.reader));
  auto response = frontend.Handle(f.Request(42));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->source, serving::ServingSource::kOnlineRetrieval);
  EXPECT_FALSE(response->degraded);
  EXPECT_EQ(response->batch_version, 1);
  // Toy geometry: the ANN plane returns the highest-index items, which
  // the materialized batch (items 1..3) never serves.
  ASSERT_EQ(response->items.size(), 3u);
  EXPECT_EQ(response->items[0].item, 19);

  obs::RegistrySnapshot snapshot = f.metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_requests_total",
                                  {{"path", "online_retrieval"}}),
            1);
  EXPECT_EQ(snapshot.CounterValue("serving_requests_total",
                                  {{"path", "materialized"}}),
            0);
}

TEST(FrontendRetrievalAbTest, ZeroFractionNeverLeavesMaterializedPlane) {
  FrontendAbFixture f;
  serving::Frontend frontend(&f.store, nullptr, &f.metrics, nullptr,
                             f.AbOptions(0.0, &f.reader));
  for (data::UserIndex user = 0; user < 20; ++user) {
    auto response = frontend.Handle(f.Request(user));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->source, serving::ServingSource::kStore);
  }
  EXPECT_EQ(f.metrics.Snapshot().CounterValue(
                "serving_requests_total", {{"path", "online_retrieval"}}),
            0);
}

TEST(FrontendRetrievalAbTest, SplitIsStickyAndRoughlyProportional) {
  FrontendAbFixture f;
  serving::Frontend frontend(&f.store, nullptr, &f.metrics, nullptr,
                             f.AbOptions(0.5, &f.reader));
  std::set<data::UserIndex> arm;
  for (data::UserIndex user = 0; user < 200; ++user) {
    auto response = frontend.Handle(f.Request(user));
    ASSERT_TRUE(response.ok());
    if (response->source == serving::ServingSource::kOnlineRetrieval) {
      arm.insert(user);
    }
  }
  // Half-ish of users land in the arm, and membership is sticky.
  EXPECT_GT(arm.size(), 60u);
  EXPECT_LT(arm.size(), 140u);
  for (data::UserIndex user : {data::UserIndex{0}, data::UserIndex{57},
                               data::UserIndex{123}}) {
    auto again = frontend.Handle(f.Request(user));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->source == serving::ServingSource::kOnlineRetrieval,
              arm.count(user) > 0)
        << "user " << user;
  }
}

// A retrieval plane that advertises an active version but fails every
// lookup — the shape of a reader whose artifact pointer just got yanked.
class FailingReader : public serving::ServingReader {
 public:
  StatusOr<std::vector<core::ScoredItem>> ServeContext(
      data::RetailerId retailer, const core::Context& context) const override {
    (void)retailer;
    (void)context;
    return UnavailableError("retrieval plane down");
  }
  int64_t RetailerVersion(data::RetailerId retailer) const override {
    (void)retailer;
    return 5;
  }
};

TEST(FrontendRetrievalAbTest, RetrievalFailureFallsBackToStoreSameRequest) {
  FrontendAbFixture f;
  FailingReader failing;
  serving::Frontend frontend(&f.store, nullptr, &f.metrics, nullptr,
                             f.AbOptions(1.0, &failing));
  auto response = frontend.Handle(f.Request(42));
  ASSERT_TRUE(response.ok());
  // The store answered; the response is NOT degraded — the materialized
  // plane is a healthy serving path, not a ladder rung.
  EXPECT_EQ(response->source, serving::ServingSource::kStore);
  EXPECT_FALSE(response->degraded);
  EXPECT_EQ(response->items[0].item, 1);

  obs::RegistrySnapshot snapshot = f.metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_retrieval_fallbacks_total"), 1);
  EXPECT_EQ(snapshot.CounterValue("serving_requests_total",
                                  {{"path", "materialized"}}),
            1);
}

TEST(FrontendRetrievalAbTest, RolledBackIndexReturnsArmToMaterialized) {
  FrontendAbFixture f;
  serving::Frontend frontend(&f.store, nullptr, &f.metrics, nullptr,
                             f.AbOptions(1.0, &f.reader));
  ASSERT_EQ(frontend.Handle(f.Request(42))->source,
            serving::ServingSource::kOnlineRetrieval);
  // Roll the index back entirely: active version drops to... well,
  // there's only v1, so simulate by staging nothing and discarding via a
  // fresh retailer with no index — retailer 2 has no artifact at all.
  serving::RecommendationRequest request = f.Request(42);
  request.retailer = 2;
  core::ItemRecommendations recs;
  recs.query = 0;
  recs.view_based = {{1, 2.0}};
  f.store.LoadRetailer(2, {recs});
  auto response = frontend.Handle(request);
  ASSERT_TRUE(response.ok());
  // No active index version for retailer 2: the arm never engages.
  EXPECT_EQ(response->source, serving::ServingSource::kStore);
}

// --- Service end-to-end: build, canary-gate, promote, roll back -----------

struct RetrievalServiceFixture {
  data::WorldGenerator generator{[] {
    data::WorldConfig config;
    config.seed = 29;
    return config;
  }()};
  std::vector<data::RetailerWorld> worlds = {
      generator.GenerateRetailer(0, 50), generator.GenerateRetailer(1, 90)};

  pipeline::SigmundService::Options Options() const {
    pipeline::SigmundService::Options options;
    options.sweep.grid.factors = {4, 8};
    options.sweep.grid.lambdas_v = {0.1, 0.01};
    options.sweep.grid.lambdas_vc = {0.01};
    options.sweep.grid.sweep_taxonomy = false;
    options.sweep.grid.sweep_brand = false;
    options.sweep.grid.num_epochs = 3;
    options.sweep.incremental_top_k = 2;
    options.training.num_map_tasks = 4;
    options.training.max_parallel_tasks = 2;
    options.training.checkpoint_interval_seconds = 0.0;
    options.inference.inference.top_k = 5;
    options.canary.enabled = true;
    options.canary.canary_fraction = 0.5;
    options.canary.min_relative_ctr = 0.5;
    options.canary.early_stop_z = 4.0;
    options.canary.seed = 11;
    options.canary.oracle = [this](data::RetailerId id) {
      return &worlds[id].truth;
    };
    options.retrieval.enabled = true;
    options.retrieval.ann.num_lists = 8;
    options.retrieval.reader.top_k = 5;
    options.retrieval.reader.nprobe = 4;
    return options;
  }
};

TEST(ServiceRetrievalTest, DailyRunBuildsGatesAndActivatesIndexes) {
  RetrievalServiceFixture f;
  sfs::MemFileSystem fs;
  pipeline::SigmundService service(&fs, f.Options());
  service.UpsertRetailer(&f.worlds[0].data);
  service.UpsertRetailer(&f.worlds[1].data);

  StatusOr<pipeline::DailyReport> day1 = service.RunDaily();
  ASSERT_TRUE(day1.ok()) << day1.status().ToString();
  EXPECT_EQ(day1->retrieval_indexes_built, 2);
  EXPECT_EQ(day1->retrieval_rollbacks, 0);
  EXPECT_EQ(day1->corrupt_indexes_rejected, 0);
  // A healthy index passes the retrieval canary against the live
  // materialized plane and activates.
  EXPECT_EQ(day1->retrieval_promotions, 2);
  ASSERT_NE(service.retrieval_reader(), nullptr);
  EXPECT_EQ(service.retrieval_reader()->RetailerVersion(0), 1);
  EXPECT_EQ(service.retrieval_reader()->RetailerVersion(1), 1);

  // The active index answers queries.
  StatusOr<std::vector<core::ScoredItem>> items =
      service.retrieval_reader()->ServeContext(
          0, {{3, ActionType::kView}});
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  EXPECT_FALSE(items->empty());

  // The retrieval ladder is reported separately from the batch ladder.
  const std::string report = day1->ToString();
  EXPECT_NE(report.find("retrieval: indexes_built=2"), std::string::npos)
      << report;

  // Day 2 refreshes the index: the version chain advances.
  StatusOr<pipeline::DailyReport> day2 = service.RunDaily();
  ASSERT_TRUE(day2.ok()) << day2.status().ToString();
  EXPECT_EQ(day2->retrieval_indexes_built, 2);
  EXPECT_EQ(service.retrieval_reader()->RetailerVersion(0), 2);
}

TEST(ServiceRetrievalTest, DegradedIndexRollsBackAndNeverServes) {
  RetrievalServiceFixture f;
  sfs::MemFileSystem fs;
  pipeline::SigmundService::Options options = f.Options();
  // Enough simulated traffic that even the small retailer's control arm
  // clears min_clicks — below that the canary promotes as noise.
  options.canary.max_impressions = 2400;
  // Degrade every built index: negating the query-side factors makes the
  // ANN plane rank the model's *worst* items first — exactly the kind of
  // quality collapse only live signal can catch (CRC and offline MAP both
  // pass; the artifact is well-formed, just wrong).
  options.retrieval.build_hook_for_testing =
      [](data::RetailerId, retrieval::IndexArtifact* artifact) {
        for (float& v : artifact->context_vectors) v = -v;
      };
  pipeline::SigmundService service(&fs, options);
  service.UpsertRetailer(&f.worlds[0].data);
  service.UpsertRetailer(&f.worlds[1].data);

  StatusOr<pipeline::DailyReport> day1 = service.RunDaily();
  ASSERT_TRUE(day1.ok()) << day1.status().ToString();
  EXPECT_EQ(day1->retrieval_indexes_built, 2);
  EXPECT_EQ(day1->retrieval_promotions, 0);
  EXPECT_EQ(day1->retrieval_rollbacks, 2);
  // The rolled-back index was discarded: no active version, nothing
  // resident, and the Frontend's A/B arm can never engage.
  EXPECT_EQ(service.retrieval_reader()->RetailerVersion(0), 0);
  EXPECT_EQ(service.retrieval_reader()->RetailerVersion(1), 0);
  EXPECT_TRUE(service.retrieval_reader()->RetainedVersions(0).empty());
  EXPECT_EQ(service.retrieval_reader()
                ->ServeContext(0, {{3, ActionType::kView}})
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_NE(day1->ToString().find("rollbacks=2"), std::string::npos);
}

}  // namespace
}  // namespace sigmund
