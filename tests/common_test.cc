#include <array>
#include <atomic>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/clock.h"
#include "common/crash_point.h"
#include "common/crc32.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace sigmund {
namespace {

// --- Status ---------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFoundError("x"), NotFoundError("x"));
  EXPECT_FALSE(NotFoundError("x") == NotFoundError("y"));
  EXPECT_FALSE(NotFoundError("x") == InternalError("x"));
}

TEST(StatusTest, FactoryCodesAreDistinct) {
  std::set<StatusCode> codes = {
      InvalidArgumentError("").code(), NotFoundError("").code(),
      AlreadyExistsError("").code(),   FailedPreconditionError("").code(),
      OutOfRangeError("").code(),      UnavailableError("").code(),
      DataLossError("").code(),        InternalError("").code()};
  EXPECT_EQ(codes.size(), 8u);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = InvalidArgumentError("bad");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

Status FailingHelper() { return InternalError("boom"); }
Status PropagatingHelper() {
  SIGMUND_RETURN_IF_ERROR(FailingHelper());
  return OkStatus();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(PropagatingHelper().code(), StatusCode::kInternal);
}

// --- Rng ------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen, (std::set<int64_t>{-2, -1, 0, 1, 2}));
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sumsq += g * g;
  }
  double mean = sum / n;
  double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.03);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, WeightedIndexHonorsWeights) {
  Rng rng(29);
  std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.WeightedIndex(weights), 1u);
  }
}

TEST(RngTest, WeightedIndexAllZeroReturnsSize) {
  Rng rng(31);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(rng.WeightedIndex(weights), weights.size());
}

TEST(RngTest, WeightedIndexProportions) {
  Rng rng(37);
  std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += (rng.WeightedIndex(weights) == 1);
  EXPECT_NEAR(ones / static_cast<double>(n), 0.75, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(41);
  Rng b(a.Fork());
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(SplitMix64Test, KnownNonTrivialValues) {
  EXPECT_NE(SplitMix64(0), 0u);
  EXPECT_NE(SplitMix64(1), SplitMix64(2));
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Schedule([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Schedule([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&hits](int64_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](int64_t) { FAIL(); });
}

// --- Clock ----------------------------------------------------------------

TEST(ClockTest, RealClockMonotonic) {
  RealClock* clock = RealClock::Get();
  int64_t a = clock->NowMicros();
  int64_t b = clock->NowMicros();
  EXPECT_LE(a, b);
}

TEST(ClockTest, SimClockAdvances) {
  SimClock clock;
  EXPECT_EQ(clock.NowMicros(), 0);
  clock.AdvanceMicros(500);
  EXPECT_EQ(clock.NowMicros(), 500);
  clock.AdvanceSeconds(1.0);
  EXPECT_EQ(clock.NowMicros(), 1000500);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 1.0005);
}

// --- string_util ----------------------------------------------------------

TEST(StringUtilTest, StrSplitBasic) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, StrSplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, StrJoinRoundTrip) {
  std::vector<std::string> pieces = {"x", "y", "z"};
  EXPECT_EQ(StrJoin(pieces, "--"), "x--y--z");
  EXPECT_EQ(StrSplit(StrJoin(pieces, ","), ','), pieces);
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "ab", 1.5), "3-ab-1.50");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-123", &v));
  EXPECT_EQ(v, -123);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("2.5e-1", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_FALSE(ParseDouble("abc", &v));
}

// --- CRC32 ------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // Reference values for CRC-32/IEEE (the zlib crc32).
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc"), 0x352441C2u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "The quick brown fox jumps over the lazy dog";
  uint32_t crc = kCrc32Init;
  crc = Crc32Update(crc, data.substr(0, 10));
  crc = Crc32Update(crc, data.substr(10));
  EXPECT_EQ(Crc32Finalize(crc), Crc32(data));
}

// The byte-at-a-time table loop Crc32Update used before slicing-by-8: the
// reference every fast-path result must match bit for bit.
uint32_t ReferenceCrc32Update(uint32_t crc, std::string_view data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  for (char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

uint32_t ReferenceCrc32(std::string_view data) {
  return Crc32Finalize(ReferenceCrc32Update(kCrc32Init, data));
}

std::string RandomBytes(Rng* rng, size_t n) {
  std::string bytes(n, '\0');
  for (char& ch : bytes) ch = static_cast<char>(rng->Uniform(256));
  return bytes;
}

TEST(Crc32Test, MatchesReferenceForEveryLengthAndAlignment) {
  Rng rng(17);
  const std::string buffer = RandomBytes(&rng, 1100 + 8);
  // Every start offset 0..7 makes the 8-byte block loads unaligned, and
  // every length 0..1100 exercises every tail length.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 1100; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(data), ReferenceCrc32(data))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, ChainedUpdatesAtRandomSplitsMatchReference) {
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string data = RandomBytes(&rng, rng.Uniform(4096));
    const uint32_t want = ReferenceCrc32(data);
    // Cut the buffer at random points and chain Crc32Update over the pieces.
    uint32_t crc = kCrc32Init;
    size_t pos = 0;
    while (pos < data.size()) {
      const size_t piece = 1 + rng.Uniform(data.size() - pos);
      crc = Crc32Update(crc, std::string_view(data).substr(pos, piece));
      pos += piece;
    }
    ASSERT_EQ(Crc32Finalize(crc), want) << "trial " << trial;
  }
}

TEST(Crc32Test, SixteenMegabyteBufferMatchesReference) {
  Rng rng(29);
  const std::string data = RandomBytes(&rng, 16u << 20);
  EXPECT_EQ(Crc32(data), ReferenceCrc32(data));
}

// --- Checksummed frames -----------------------------------------------------

TEST(ChecksummedFrameTest, RoundTrip) {
  std::string payload("binary\0payload", 14);
  std::string frame = WriteChecksummedFrame(payload);
  EXPECT_TRUE(LooksLikeChecksummedFrame(frame));
  StatusOr<std::string> back = ReadChecksummedFrame(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
  // Empty payloads frame too.
  EXPECT_EQ(*ReadChecksummedFrame(WriteChecksummedFrame("")), "");
}

TEST(ChecksummedFrameTest, DetectsEveryCorruptionClass) {
  const std::string frame = WriteChecksummedFrame("important payload");
  // Truncation at every possible point.
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_EQ(ReadChecksummedFrame(frame.substr(0, len)).status().code(),
              StatusCode::kDataLoss)
        << "truncated to " << len;
  }
  // Single-bit flips anywhere in the frame.
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string flipped = frame;
    flipped[i] ^= 0x01;
    EXPECT_EQ(ReadChecksummedFrame(flipped).status().code(),
              StatusCode::kDataLoss)
        << "bit flip at " << i;
  }
  // Garbage tail appended after a valid frame.
  EXPECT_EQ(ReadChecksummedFrame(frame + "junk").status().code(),
            StatusCode::kDataLoss);
  // Not a frame at all.
  EXPECT_EQ(ReadChecksummedFrame("random bytes").status().code(),
            StatusCode::kDataLoss);
  EXPECT_FALSE(LooksLikeChecksummedFrame("random bytes"));
}

// --- BinaryReader bounds ----------------------------------------------------

TEST(BinaryReaderTest, RoundTrip) {
  BinaryWriter writer;
  writer.Write<int32_t>(-7);
  writer.WriteString("hello");
  writer.WriteVector<double>({1.5, 2.5});
  BinaryReader reader(writer.buffer());
  int32_t i = 0;
  std::string s;
  std::vector<double> v;
  ASSERT_TRUE(reader.Read(&i));
  ASSERT_TRUE(reader.ReadString(&s));
  ASSERT_TRUE(reader.ReadVector(&v));
  EXPECT_EQ(i, -7);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(v, (std::vector<double>{1.5, 2.5}));
  EXPECT_TRUE(reader.Done());
}

TEST(BinaryReaderTest, HostileLengthPrefixesDontOverflow) {
  // A length prefix near UINT64_MAX must fail cleanly: offset + size
  // would wrap and pass a naive bounds check, then read out of bounds.
  for (uint64_t hostile :
       {UINT64_MAX, UINT64_MAX - 7, uint64_t{1} << 63, uint64_t{1} << 32}) {
    BinaryWriter writer;
    writer.Write<uint64_t>(hostile);
    writer.Write<uint32_t>(0xDEADBEEF);  // a few real bytes after the prefix
    std::string s;
    std::vector<double> v;
    EXPECT_FALSE(BinaryReader(writer.buffer()).ReadString(&s)) << hostile;
    EXPECT_FALSE(BinaryReader(writer.buffer()).ReadVector(&v)) << hostile;
  }
}

TEST(BinaryReaderTest, FuzzTruncationsAndBitFlipsNeverCrash) {
  // Fuzz-style: decode mutated buffers every way the pipeline does and
  // require clean false returns, never a crash or out-of-bounds read.
  BinaryWriter writer;
  writer.WriteString("some payload");
  writer.WriteVector<int64_t>({1, 2, 3, 4});
  writer.Write<double>(3.14);
  const std::string good = writer.Take();

  Rng rng(1234);
  auto decode_all = [](std::string_view buffer) {
    BinaryReader reader(buffer);
    std::string s;
    std::vector<int64_t> v;
    double d = 0;
    // Results intentionally ignored; only clean failure matters.
    if (!reader.ReadString(&s)) return;
    if (!reader.ReadVector(&v)) return;
    (void)reader.Read(&d);
  };
  for (size_t len = 0; len <= good.size(); ++len) {
    decode_all(std::string_view(good).substr(0, len));
  }
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = good;
    const int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    }
    if (rng.Bernoulli(0.3)) mutated.resize(rng.Uniform(mutated.size() + 1));
    decode_all(mutated);
  }
}

// --- RetryPolicy ------------------------------------------------------------

TEST(RetryTest, RetryableErrorsOnly) {
  EXPECT_TRUE(IsRetryableError(UnavailableError("blip")));
  EXPECT_FALSE(IsRetryableError(OkStatus()));
  EXPECT_FALSE(IsRetryableError(NotFoundError("x")));
  EXPECT_FALSE(IsRetryableError(DataLossError("x")));
  EXPECT_FALSE(IsRetryableError(InvalidArgumentError("x")));
}

// The two counters RetryWithPolicy bumps, standing in for the registry
// series sfs::ReliableIoCounters points them at.
struct CountedRetries {
  obs::Counter retries;
  obs::Counter exhaustions;
  RetryStats stats{&retries, &exhaustions};
};

TEST(RetryTest, SucceedsAfterTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  CountedRetries counted;
  int calls = 0;
  Status status = RetryWithPolicy(policy, &counted.stats, [&] {
    return ++calls < 3 ? UnavailableError("blip") : OkStatus();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(counted.retries.Value(), 2);
  EXPECT_EQ(counted.exhaustions.Value(), 0);
}

TEST(RetryTest, ExhaustsAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  CountedRetries counted;
  int calls = 0;
  Status status = RetryWithPolicy(policy, &counted.stats, [&] {
    ++calls;
    return UnavailableError("always down");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(counted.exhaustions.Value(), 1);
}

TEST(RetryTest, NonRetryableErrorReturnsImmediately) {
  RetryPolicy policy;
  CountedRetries counted;
  int calls = 0;
  Status status = RetryWithPolicy(policy, &counted.stats, [&] {
    ++calls;
    return NotFoundError("gone");
  });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(counted.retries.Value(), 0);
}

TEST(RetryTest, StatusOrFlavorReturnsValue) {
  RetryPolicy policy;
  CountedRetries counted;
  int calls = 0;
  StatusOr<int> result = RetryWithPolicy<int>(policy, &counted.stats, [&]() -> StatusOr<int> {
    if (++calls < 2) return UnavailableError("blip");
    return 41 + 1;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(counted.retries.Value(), 1);
}


// --- Shared hashing (common/hash.h) ---------------------------------------

TEST(HashTest, Fnv1a64MatchesReferenceVectors) {
  // Canonical FNV-1a 64-bit test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64(""), kFnv64OffsetBasis);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashTest, Fnv1a64ChainsAcrossCalls) {
  // Hashing in two chained pieces equals hashing the concatenation —
  // the property the loadgen decision hash and fault schedules rely on.
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), Fnv1a64("foobar"));
  // Word-at-a-time mixing is order-sensitive and chainable too.
  EXPECT_NE(Fnv1a64Mix(Fnv1a64Mix(kFnv64OffsetBasis, 1), 2),
            Fnv1a64Mix(Fnv1a64Mix(kFnv64OffsetBasis, 2), 1));
}

TEST(HashTest, Mix64MatchesSplitMix64) {
  // common/hash.h duplicates the SplitMix64 step as a constexpr; the two
  // must never drift (trace sampling and A/B splits assume it).
  for (uint64_t x : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL,
                     0xffffffffffffffffULL}) {
    EXPECT_EQ(Mix64(x), SplitMix64(x)) << x;
  }
}

TEST(HashTest, HashSplitEdgesAndStickiness) {
  // Degenerate fractions short-circuit.
  EXPECT_FALSE(HashSplit(1, 99, 0.0));
  EXPECT_FALSE(HashSplit(1, 99, -0.5));
  EXPECT_TRUE(HashSplit(1, 99, 1.0));
  EXPECT_TRUE(HashSplit(1, 99, 1.5));
  // Pure function of (seed, key): trivially sticky, seed reshuffles.
  int moved = 0;
  for (uint64_t key = 0; key < 256; ++key) {
    EXPECT_EQ(HashSplit(7, key, 0.3), HashSplit(7, key, 0.3));
    if (HashSplit(7, key, 0.3) != HashSplit(8, key, 0.3)) ++moved;
  }
  EXPECT_GT(moved, 0);
}

TEST(HashTest, HashSplitIsMonotoneAndRoughlyProportional) {
  int in_03 = 0, in_06 = 0;
  for (uint64_t key = 0; key < 2000; ++key) {
    const bool at_03 = HashSplit(42, key, 0.3);
    const bool at_06 = HashSplit(42, key, 0.6);
    in_03 += at_03;
    in_06 += at_06;
    // Monotone ramp-up: raising the fraction only moves keys INTO the
    // treatment arm, never out of it.
    if (at_03) {
      EXPECT_TRUE(at_06) << key;
    }
  }
  EXPECT_NEAR(in_03 / 2000.0, 0.3, 0.05);
  EXPECT_NEAR(in_06 / 2000.0, 0.6, 0.05);
}

TEST(CrashInjectorTest, SeededHitsArePinned) {
  // The seeded schedule is a pure function of (seed, point, nth); pin it
  // so the hash that derives it can never drift silently.
  CrashInjector injector;
  injector.ArmSeeded(12345, 0.3);
  std::vector<std::pair<std::string, int64_t>> fired;
  for (int round = 0; round < 4; ++round) {
    for (const char* point : {"day.start", "train.done", "batch.intent",
                              "batch.staged", "day.complete"}) {
      try {
        injector.Hit(point);
      } catch (const CrashException& crash) {
        fired.emplace_back(crash.point, crash.global_hit);
        injector.ArmSeeded(12345, 0.3);  // firing is one-shot
      }
    }
  }
  const std::vector<std::pair<std::string, int64_t>> expected = {
      {"batch.intent", 3}, {"batch.intent", 8}, {"batch.staged", 9},
      {"day.complete", 10}, {"day.start", 11}, {"train.done", 17},
      {"day.complete", 20}};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(injector.hits(), 20);
}

}  // namespace
}  // namespace sigmund
