#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/metrics.h"
#include "counter_total.h"
#include "sfs/fault_injection.h"
#include "sfs/mem_filesystem.h"
#include "sfs/reliable_io.h"

namespace sigmund::sfs {
namespace {

TEST(MemFileSystemTest, WriteReadRoundTrip) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.Write("models/r1/ckpt", "payload").ok());
  auto data = fs.Read("models/r1/ckpt");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "payload");
}

TEST(MemFileSystemTest, WriteOverwrites) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.Write("f", "v1").ok());
  ASSERT_TRUE(fs.Write("f", "v2").ok());
  EXPECT_EQ(*fs.Read("f"), "v2");
}

TEST(MemFileSystemTest, EmptyPathRejected) {
  MemFileSystem fs;
  EXPECT_EQ(fs.Write("", "x").code(), StatusCode::kInvalidArgument);
}

TEST(MemFileSystemTest, ReadMissingIsNotFound) {
  MemFileSystem fs;
  EXPECT_EQ(fs.Read("nope").status().code(), StatusCode::kNotFound);
}

TEST(MemFileSystemTest, DeleteRemoves) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.Write("f", "x").ok());
  ASSERT_TRUE(fs.Delete("f").ok());
  EXPECT_FALSE(fs.Exists("f"));
  EXPECT_EQ(fs.Delete("f").code(), StatusCode::kNotFound);
}

TEST(MemFileSystemTest, RenameMovesContent) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.Write("tmp", "x").ok());
  ASSERT_TRUE(fs.Rename("tmp", "final").ok());
  EXPECT_FALSE(fs.Exists("tmp"));
  EXPECT_EQ(*fs.Read("final"), "x");
}

TEST(MemFileSystemTest, RenameOverwritesDestination) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.Write("a", "new").ok());
  ASSERT_TRUE(fs.Write("b", "old").ok());
  ASSERT_TRUE(fs.Rename("a", "b").ok());
  EXPECT_EQ(*fs.Read("b"), "new");
}

TEST(MemFileSystemTest, RenameMissingSource) {
  MemFileSystem fs;
  EXPECT_EQ(fs.Rename("gone", "b").code(), StatusCode::kNotFound);
}

TEST(MemFileSystemTest, ListPrefixSorted) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.Write("a/2", "").ok());
  ASSERT_TRUE(fs.Write("a/1", "").ok());
  ASSERT_TRUE(fs.Write("b/1", "").ok());
  EXPECT_EQ(*fs.List("a/"), (std::vector<std::string>{"a/1", "a/2"}));
  EXPECT_EQ(*fs.List(""), (std::vector<std::string>{"a/1", "a/2", "b/1"}));
  EXPECT_TRUE(fs.List("zzz")->empty());
}

TEST(MemFileSystemTest, FileSizeAndTotals) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.Write("f", "12345").ok());
  ASSERT_TRUE(fs.Write("g", "12").ok());
  EXPECT_EQ(*fs.FileSize("f"), 5);
  EXPECT_EQ(fs.TotalBytes(), 7);
  EXPECT_EQ(fs.FileCount(), 2);
  EXPECT_EQ(fs.FileSize("h").status().code(), StatusCode::kNotFound);
}

TEST(MemFileSystemTest, ConcurrentWritersDontCorrupt) {
  MemFileSystem fs;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&fs, t] {
      for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(
            fs.Write("t" + std::to_string(t) + "/" + std::to_string(i), "x")
                .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fs.FileCount(), 800);
}

// --- FaultInjectingFileSystem ----------------------------------------------

TEST(FaultInjectionTest, DefaultProfileIsTransparent) {
  MemFileSystem base;
  FaultInjectingFileSystem fs(&base, FaultProfile{});
  for (int i = 0; i < 100; ++i) {
    std::string path = "p" + std::to_string(i);
    ASSERT_TRUE(fs.Write(path, "data").ok());
    ASSERT_TRUE(fs.Read(path).ok());
  }
  ASSERT_TRUE(fs.Rename("p0", "q0").ok());
  ASSERT_TRUE(fs.Delete("p1").ok());
  ASSERT_TRUE(fs.List("").ok());
  EXPECT_EQ(fs.counters().total(), 0);
}

TEST(FaultInjectionTest, TransientErrorsAreUnavailableAndCounted) {
  MemFileSystem base;
  ASSERT_TRUE(base.Write("f", "payload").ok());
  FaultProfile profile;
  profile.read_error_prob = 0.5;
  profile.seed = 7;
  FaultInjectingFileSystem fs(&base, profile);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    StatusOr<std::string> data = fs.Read("f");
    if (!data.ok()) {
      EXPECT_EQ(data.status().code(), StatusCode::kUnavailable);
      ++failures;
    } else {
      EXPECT_EQ(*data, "payload");  // faults never corrupt, only fail
    }
  }
  EXPECT_GT(failures, 50);
  EXPECT_LT(failures, 150);
  EXPECT_EQ(fs.counters().read_errors.load(), failures);
  EXPECT_EQ(fs.counters().total(), failures);
}

TEST(FaultInjectionTest, ScheduleIsDeterministicPerPathAndAccess) {
  auto run = [](std::vector<bool>* outcomes) {
    MemFileSystem base;
    ASSERT_TRUE(base.Write("a", "x").ok());
    ASSERT_TRUE(base.Write("b", "y").ok());
    FaultProfile profile;
    profile.read_error_prob = 0.4;
    profile.seed = 99;
    FaultInjectingFileSystem fs(&base, profile);
    for (int i = 0; i < 50; ++i) {
      outcomes->push_back(fs.Read("a").ok());
      outcomes->push_back(fs.Read("b").ok());
    }
  };
  std::vector<bool> first, second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);
}

TEST(FaultInjectionTest, TornWritesReturnOkButCorrupt) {
  MemFileSystem base;
  FaultProfile profile;
  profile.torn_write_prob = 1.0;
  profile.seed = 3;
  FaultInjectingFileSystem fs(&base, profile);
  const std::string payload(100, 'x');
  ASSERT_TRUE(fs.Write("f", payload).ok());  // torn writes report success
  EXPECT_EQ(fs.counters().torn_writes.load(), 1);
  EXPECT_NE(*base.Read("f"), payload);
  // A framed payload through the raw (unverified) write path: the tear
  // goes undetected at write time but the CRC catches it at read time.
  ASSERT_TRUE(fs.Write("g", WriteChecksummedFrame(payload)).ok());
  EXPECT_EQ(ReadChecksummedFrame(*base.Read("g")).status().code(),
            StatusCode::kDataLoss);
}

TEST(FaultInjectionTest, DisabledPassesThrough) {
  MemFileSystem base;
  FaultProfile profile;
  profile.write_error_prob = 1.0;
  profile.torn_write_prob = 1.0;
  FaultInjectingFileSystem fs(&base, profile);
  EXPECT_EQ(fs.Write("f", "x").code(), StatusCode::kUnavailable);
  fs.set_enabled(false);
  ASSERT_TRUE(fs.Write("f", "x").ok());
  EXPECT_EQ(*base.Read("f"), "x");
  fs.set_enabled(true);
  EXPECT_EQ(fs.Write("g", "x").code(), StatusCode::kUnavailable);
}

// --- Reliable I/O -----------------------------------------------------------

// Counts read out of the registry by series name, as an operator reads
// them (DESIGN.md §5).
int64_t Count(const obs::MetricRegistry& registry, std::string_view name) {
  return testutil::CounterTotal(registry, name);
}

int64_t OpSamples(const obs::MetricRegistry& registry, const char* op) {
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::HistogramSnapshot* histogram =
      snapshot.FindHistogram("sfs_op_micros", {{"op", op}});
  return histogram != nullptr ? histogram->count : -1;
}

TEST(ReliableIoTest, RoundTripWithoutFaults) {
  MemFileSystem fs;
  obs::MetricRegistry registry;
  ReliableIoCounters io(&registry);
  ASSERT_TRUE(WriteChecksummedFile(&fs, "f", "payload", {}, &io).ok());
  StatusOr<std::string> back = ReadChecksummedFile(&fs, "f", {}, &io);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "payload");
  EXPECT_EQ(Count(registry, "sfs_corruptions_detected_total"), 0);
  EXPECT_EQ(Count(registry, "sfs_retries_total"), 0);
  // The stored bytes really are framed.
  EXPECT_TRUE(LooksLikeChecksummedFrame(*fs.Read("f")));
}

TEST(ReliableIoTest, RetriesTransientErrors) {
  MemFileSystem base;
  FaultProfile profile;
  profile.read_error_prob = 0.5;
  profile.write_error_prob = 0.5;
  profile.seed = 21;
  FaultInjectingFileSystem fs(&base, profile);
  RetryPolicy policy;
  policy.max_attempts = 20;
  obs::MetricRegistry registry;
  ReliableIoCounters io(&registry);
  for (int i = 0; i < 20; ++i) {
    std::string path = "f" + std::to_string(i);
    ASSERT_TRUE(WriteChecksummedFile(&fs, path, "payload", policy, &io).ok());
    StatusOr<std::string> back = ReadChecksummedFile(&fs, path, policy, &io);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, "payload");
  }
  EXPECT_GT(fs.counters().total(), 0);
  EXPECT_GT(Count(registry, "sfs_retries_total"), 0);
}

TEST(ReliableIoTest, HealsTornWrites) {
  MemFileSystem base;
  FaultProfile profile;
  profile.torn_write_prob = 0.5;
  profile.seed = 13;
  FaultInjectingFileSystem fs(&base, profile);
  obs::MetricRegistry registry;
  ReliableIoCounters io(&registry);
  for (int i = 0; i < 30; ++i) {
    std::string path = "f" + std::to_string(i);
    ASSERT_TRUE(WriteChecksummedFile(&fs, path, "payload", {}, &io).ok());
    // After healing, the durable bytes are intact even via the raw base.
    StatusOr<std::string> back = ReadChecksummedFrame(*base.Read(path));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, "payload");
  }
  const int64_t detected = Count(registry, "sfs_corruptions_detected_total");
  const int64_t healed = Count(registry, "sfs_corruptions_healed_total");
  EXPECT_GT(fs.counters().torn_writes.load(), 0);
  EXPECT_GT(detected, 0);
  // One heal per write that recovered; consecutive tears of the same
  // write each count as a detection, so healed <= detected.
  EXPECT_GT(healed, 0);
  EXPECT_LE(healed, detected);
}

TEST(ReliableIoTest, ReadDetectsCorruptionAsDataLoss) {
  MemFileSystem fs;
  ASSERT_TRUE(WriteChecksummedFile(&fs, "f", "payload").ok());
  std::string bytes = *fs.Read("f");
  bytes[bytes.size() - 1] ^= 0x40;
  ASSERT_TRUE(fs.Write("f", bytes).ok());
  obs::MetricRegistry registry;
  ReliableIoCounters io(&registry);
  EXPECT_EQ(ReadChecksummedFile(&fs, "f", {}, &io).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(Count(registry, "sfs_corruptions_detected_total"), 1);
  // Missing file is kNotFound, not kDataLoss.
  EXPECT_EQ(ReadChecksummedFile(&fs, "nope").status().code(),
            StatusCode::kNotFound);
}

TEST(ReliableIoTest, CountsEveryEventIntoTheRegistry) {
  // Retries and exhaustions: storage that is always down.
  {
    MemFileSystem base;
    FaultProfile profile;
    profile.read_error_prob = 1.0;
    profile.write_error_prob = 1.0;
    FaultInjectingFileSystem fs(&base, profile);
    RetryPolicy policy;
    policy.max_attempts = 3;
    obs::MetricRegistry registry;
    ReliableIoCounters io(&registry);
    EXPECT_EQ(WriteChecksummedFile(&fs, "f", "payload", policy, &io).code(),
              StatusCode::kUnavailable);
    EXPECT_EQ(Count(registry, "sfs_retries_total"), 2);
    EXPECT_EQ(Count(registry, "sfs_retry_exhaustions_total"), 1);
    EXPECT_EQ(fs.counters().write_errors.load(), 3);
  }
  // Corruptions detected and healed, and one latency sample per call.
  {
    MemFileSystem base;
    FaultProfile profile;
    profile.torn_write_prob = 0.5;
    profile.seed = 13;
    FaultInjectingFileSystem fs(&base, profile);
    obs::MetricRegistry registry;
    ReliableIoCounters io(&registry);
    constexpr int kFiles = 30;
    for (int i = 0; i < kFiles; ++i) {
      const std::string path = "f" + std::to_string(i);
      ASSERT_TRUE(WriteChecksummedFile(&fs, path, "payload", {}, &io).ok());
      ASSERT_TRUE(ReadChecksummedFile(&fs, path, {}, &io).ok());
    }
    const int64_t detected =
        Count(registry, "sfs_corruptions_detected_total");
    const int64_t healed = Count(registry, "sfs_corruptions_healed_total");
    EXPECT_EQ(detected, fs.counters().torn_writes.load());
    EXPECT_GT(healed, 0);
    EXPECT_LE(healed, detected);
    EXPECT_EQ(Count(registry, "sfs_retries_total"), 0);
    EXPECT_EQ(Count(registry, "sfs_retry_exhaustions_total"), 0);
    EXPECT_EQ(OpSamples(registry, "write"), kFiles);
    EXPECT_EQ(OpSamples(registry, "read"), kFiles);
  }
  // io == nullptr round-trips and counts nothing, even under faults and
  // with a wired ReliableIoCounters alive next to it.
  {
    MemFileSystem base;
    FaultProfile profile;
    profile.read_error_prob = 0.5;
    profile.torn_write_prob = 0.5;
    profile.seed = 7;
    FaultInjectingFileSystem fs(&base, profile);
    RetryPolicy policy;
    policy.max_attempts = 20;
    obs::MetricRegistry registry;
    ReliableIoCounters io(&registry);
    const std::string before = registry.Snapshot().ToJson();
    for (int i = 0; i < 10; ++i) {
      const std::string path = "f" + std::to_string(i);
      ASSERT_TRUE(WriteChecksummedFile(&fs, path, "payload", policy).ok());
      StatusOr<std::string> back = ReadChecksummedFile(&fs, path, policy);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(*back, "payload");
    }
    EXPECT_GT(fs.counters().total(), 0);
    EXPECT_EQ(registry.Snapshot().ToJson(), before);
  }
}

TEST(FileTransferLedgerTest, CountsCrossCellOnly) {
  FileTransferLedger ledger;
  ledger.RecordTransfer("cell-a", "cell-a", 1000);  // local: free
  EXPECT_EQ(ledger.total_bytes(), 0);
  ledger.RecordTransfer("cell-a", "cell-b", 1000);
  ledger.RecordTransfer("cell-b", "cell-c", 500);
  EXPECT_EQ(ledger.total_bytes(), 1500);
  EXPECT_EQ(ledger.transfer_count(), 2);
  ledger.Reset();
  EXPECT_EQ(ledger.total_bytes(), 0);
}

}  // namespace
}  // namespace sigmund::sfs
