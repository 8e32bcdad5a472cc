// The binary recommendation batch (DESIGN.md §7.1): round trips through
// every encoder, and a hostile-input sweep over both decoders.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/binary_io.h"
#include "common/random.h"
#include "core/recommendation_batch.h"

namespace sigmund::core {
namespace {

// Scores that do not survive %.6g, so the test sees f32 precision.
std::vector<ItemRecommendations> SampleLists() {
  std::vector<ItemRecommendations> recs(4);
  // Item 0: every list, the late-funnel one included.
  recs[0].query = 0;
  recs[0].view_based = {{3, 0.912345678}, {5, 0.5000001}, {1, -0.25}};
  recs[0].purchase_based = {{6, 1.0 / 3.0}};
  recs[0].view_based_late = {{5, 0.75}, {3, 0.7}};
  // Item 1: three empty lists.
  recs[1].query = 1;
  // Item 2: no record at all (a gap). Item 4 comes before item 3.
  recs[2].query = 4;
  recs[2].purchase_based = {{0, 2.5e-7}, {6, -1e6}};
  recs[3].query = 3;
  recs[3].view_based = {{2, 123456.789}};
  return recs;
}

// One past the largest query or recommended id in SampleLists().
constexpr int32_t kSampleItems = 7;

// Every item's lists, in record form: a gap gets an empty record.
std::vector<std::string> SampleRecords() {
  std::vector<ItemRecommendations> recs(kSampleItems);
  for (data::ItemIndex q = 0; q < kSampleItems; ++q) recs[q].query = q;
  for (const ItemRecommendations& rec : SampleLists()) recs[rec.query] = rec;
  std::vector<std::string> records;
  for (const ItemRecommendations& rec : recs) {
    records.push_back(EncodeItemRecord(rec));
  }
  return records;
}

std::vector<std::string_view> Views(const std::vector<std::string>& records) {
  return std::vector<std::string_view>(records.begin(), records.end());
}

// The ids of `got` equal those of `want`, in order, and each score is the
// f32 rounding of the ranked double.
void ExpectSameList(const std::vector<ScoredItem>& got,
                    const std::vector<ScoredItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].item, want[k].item) << "k=" << k;
    EXPECT_EQ(got[k].score, static_cast<double>(static_cast<float>(
                                want[k].score)))
        << "k=" << k;
  }
}

void ExpectBatchHolds(const RecommendationBatch& batch,
                      const std::vector<ItemRecommendations>& recs) {
  ASSERT_EQ(batch.num_items(), kSampleItems);
  std::vector<bool> listed(kSampleItems, false);
  for (const ItemRecommendations& want : recs) {
    SCOPED_TRACE(want.query);
    listed[want.query] = true;
    for (int l = 0; l < RecommendationBatch::kNumLists; ++l) {
      const auto list = static_cast<RecommendationList>(l);
      ExpectSameList(batch.List(want.query, list), ListOf(want, list));
    }
  }
  for (data::ItemIndex q = 0; q < kSampleItems; ++q) {
    if (listed[q]) continue;
    for (int l = 0; l < RecommendationBatch::kNumLists; ++l) {
      EXPECT_EQ(batch.ListSize(q, static_cast<RecommendationList>(l)), 0u)
          << "gap " << q;
    }
  }
}

TEST(RecommendationBatchTest, RoundTripKeepsIdsOrderAndF32Scores) {
  const std::vector<ItemRecommendations> recs = SampleLists();
  const RecommendationBatch built = RecommendationBatch::FromLists(recs);
  ExpectBatchHolds(built, recs);

  const std::string payload = built.Encode();
  StatusOr<RecommendationBatch> decoded = RecommendationBatch::Decode(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectBatchHolds(*decoded, recs);
  EXPECT_EQ(decoded->Encode(), payload);

  // The inference job's path: per-item records, one per item, gaps
  // included, concatenated into the same bytes.
  for (const ItemRecommendations& rec : recs) {
    StatusOr<ItemRecommendations> item =
        DecodeItemRecord(EncodeItemRecord(rec));
    ASSERT_TRUE(item.ok());
    EXPECT_EQ(item->query, rec.query);
    ExpectSameList(item->view_based, rec.view_based);
    ExpectSameList(item->purchase_based, rec.purchase_based);
    ExpectSameList(item->view_based_late, rec.view_based_late);
  }
  const std::vector<std::string> records = SampleRecords();
  StatusOr<RecommendationBatch> concatenated =
      RecommendationBatch::FromItemRecords(Views(records), kSampleItems);
  ASSERT_TRUE(concatenated.ok()) << concatenated.status().ToString();
  EXPECT_EQ(concatenated->Encode(), payload);

  // The empty batch round-trips too.
  StatusOr<RecommendationBatch> empty =
      RecommendationBatch::Decode(RecommendationBatch().Encode());
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_items(), 0);
}

// n covers the largest query and the largest recommended id, so the
// in-memory batch's bytes always pass Decode.
TEST(RecommendationBatchTest, InMemoryItemCountCoversQueriesAndIds) {
  std::vector<ItemRecommendations> recs(1);
  recs[0].query = 4;
  EXPECT_EQ(RecommendationBatch::FromLists(recs).num_items(), 5);
  recs[0].purchase_based = {{8, 1.0}};
  const RecommendationBatch batch = RecommendationBatch::FromLists(recs);
  EXPECT_EQ(batch.num_items(), 9);
  EXPECT_EQ(batch.num_listed_items(), 1);
  EXPECT_TRUE(RecommendationBatch::Decode(batch.Encode()).ok());
  EXPECT_EQ(RecommendationBatch::FromLists({}).num_items(), 0);
}

// The job materializes every item, so a batch built from records needs
// exactly one record per query item: a lost or duplicated mapper record
// fails the build instead of leaving an empty row.
TEST(RecommendationBatchTest, FromItemRecordsNeedsOneRecordPerItem) {
  const std::vector<std::string> records = SampleRecords();
  auto code = [](const std::vector<std::string_view>& views, int32_t n) {
    return RecommendationBatch::FromItemRecords(views, n).status().code();
  };
  EXPECT_EQ(code(Views(records), kSampleItems), StatusCode::kOk);
  for (size_t lost = 0; lost < records.size(); ++lost) {
    SCOPED_TRACE(lost);
    std::vector<std::string_view> views = Views(records);
    views.erase(views.begin() + static_cast<std::ptrdiff_t>(lost));
    EXPECT_EQ(code(views, kSampleItems), StatusCode::kDataLoss);
    // The same count with another record twice.
    views.push_back(records[(lost + 1) % records.size()]);
    EXPECT_EQ(code(views, kSampleItems), StatusCode::kDataLoss);
  }
  // A query or a recommended id outside [0, n), and a malformed record.
  ItemRecommendations outside;
  outside.query = kSampleItems;
  const std::string outside_query = EncodeItemRecord(outside);
  outside.query = kSampleItems - 1;
  outside.view_based = {{kSampleItems, 1.0}};
  const std::string outside_id = EncodeItemRecord(outside);
  for (std::string_view bad :
       {std::string_view(outside_query), std::string_view(outside_id),
        std::string_view("junk")}) {
    std::vector<std::string_view> views = Views(records);
    views.back() = bad;
    EXPECT_EQ(code(views, kSampleItems), StatusCode::kDataLoss);
  }
}

TEST(RecommendationBatchDeathTest, NegativeInMemoryQueryIsFatal) {
  ItemRecommendations hostile;
  hostile.query = -3;
  EXPECT_DEATH(RecommendationBatch::FromLists({hostile}),
               "negative query item");
}

// Accepted bytes must be a faithful batch: re-encoding reproduces them.
// Returns whether the payload was accepted.
bool DecodeBatch(std::string_view payload) {
  StatusOr<RecommendationBatch> decoded = RecommendationBatch::Decode(payload);
  if (decoded.ok()) {
    EXPECT_EQ(decoded->Encode(), payload);
  } else {
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
  return decoded.ok();
}

void DecodeRecord(std::string_view bytes) {
  StatusOr<ItemRecommendations> decoded = DecodeItemRecord(bytes);
  if (decoded.ok()) {
    EXPECT_EQ(EncodeItemRecord(*decoded), bytes);
  } else {
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

template <typename T>
std::string Poked(std::string bytes, size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(T));
  return bytes;
}

// The batch crosses a process boundary (inference job -> serving store),
// so every mutation must decode to a clean kDataLoss or a faithful batch:
// never a crash, an out-of-bounds read or a giant allocation. Mutations
// are re-framed so the CRC passes and the decoder itself is exercised.
TEST(RecommendationBatchTest, FuzzTruncationsBitFlipsAndOverlengthNeverCrash) {
  const std::string good = RecommendationBatch::FromLists(SampleLists()).Encode();
  const std::string frame = WriteChecksummedFrame(good);
  int64_t accepted = 0;
  auto load = [&accepted](const std::string& framed) {
    StatusOr<std::string> payload = ReadChecksummedFrame(framed);
    ASSERT_TRUE(payload.ok());
    accepted += DecodeBatch(*payload);
  };

  // Every truncation: the frame catches it, and so does the decoder when
  // the truncated payload is re-framed.
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(ReadChecksummedFrame(frame.substr(0, len)).ok());
  }
  for (size_t len = 0; len < good.size(); ++len) {
    load(WriteChecksummedFrame(good.substr(0, len)));
  }
  EXPECT_EQ(accepted, 0);

  // Every single-bit flip.
  for (size_t pos = 0; pos < good.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = good;
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^ (1u << bit));
      load(WriteChecksummedFrame(mutated));
    }
  }
  // Flips inside ids and scores can leave a valid batch: the sweep
  // exercised the accepting path, not only rejections.
  EXPECT_GT(accepted, 0);

  // Every u32 field (n, the list count, each offset) near the edges.
  const uint32_t edges[] = {0u,
                            1u,
                            static_cast<uint32_t>(kSampleItems),
                            static_cast<uint32_t>(
                                std::numeric_limits<int32_t>::max()),
                            static_cast<uint32_t>(
                                std::numeric_limits<int32_t>::max()) + 1,
                            std::numeric_limits<uint32_t>::max() - 1,
                            std::numeric_limits<uint32_t>::max()};
  const size_t table_end = 16 + 4 * (3 * kSampleItems + 1);
  for (size_t at = 8; at < table_end; at += 4) {
    for (uint32_t value : edges) DecodeBatch(Poked(good, at, value));
  }

  // Seeded multi-byte mutations, truncations and overlength tails.
  Rng rng(20261017);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = good;
    const int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    }
    if (rng.Bernoulli(0.15)) {
      mutated.resize(rng.Uniform(mutated.size() + 1));
    } else if (rng.Bernoulli(0.15)) {
      const size_t pad = 1 + rng.Uniform(64);
      for (size_t i = 0; i < pad; ++i) {
        mutated.push_back(static_cast<char>(rng.Uniform(256)));
      }
    }
    load(WriteChecksummedFrame(mutated));
  }

  // The per-item record decoder (mapper output, flash tier) gets the same
  // treatment: truncations, bit flips, and list sizes near UINT32_MAX.
  const std::string record = EncodeItemRecord(SampleLists()[0]);
  for (size_t len = 0; len < record.size(); ++len) {
    DecodeRecord(record.substr(0, len));
  }
  for (size_t pos = 0; pos < record.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = record;
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^ (1u << bit));
      DecodeRecord(mutated);
    }
  }
  for (size_t at = 0; at < 16; at += 4) {
    for (uint32_t value : edges) DecodeRecord(Poked(record, at, value));
  }
}

}  // namespace
}  // namespace sigmund::core
