// RunLedger format hardening (DESIGN.md §13): the write-ahead journal and
// the control-state snapshots are the only things standing between a
// crashed coordinator and a re-run day, so their decoders must survive
// anything a torn write, a bit rot, or a truncated replica can hand them.
// These tests fuzz the entry framing (every prefix truncation, thousands
// of seeded bit-flip / truncate / overlength trials), round-trip the
// snapshot structs, and pin the crash-restart behavior of the durable
// control state (sentry quarantine, quality baselines).

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/world_generator.h"
#include "dataqual/corruptor.h"
#include "dataqual/feed_profile.h"
#include "dataqual/sentry.h"
#include "pipeline/ledger.h"
#include "pipeline/quality_monitor.h"
#include "sfs/mem_filesystem.h"

namespace sigmund::pipeline {
namespace {

using Op = RunLedger::Op;

RunLedger::Entry MakeEntry(Op op, int day, data::RetailerId retailer,
                           int64_t version, std::string tag,
                           std::string payload) {
  RunLedger::Entry entry;
  entry.op = op;
  entry.day = day;
  entry.retailer = retailer;
  entry.version = version;
  entry.tag = std::move(tag);
  entry.payload = std::move(payload);
  return entry;
}

// A representative day: stage commits with binary-ish payloads, the full
// batch protocol, and the index protocol.
std::vector<RunLedger::Entry> SampleEntries() {
  std::vector<RunLedger::Entry> entries;
  entries.push_back(MakeEntry(Op::kDayStart, 3, -1, 0, "", ""));
  entries.push_back(MakeEntry(Op::kStageCommit, 3, -1, 0, "train",
                              std::string("binary\0payload\xff", 15)));
  entries.push_back(
      MakeEntry(Op::kBatchStageIntent, 3, 7, 42, "", "recommendations/r7.v000042"));
  entries.push_back(MakeEntry(Op::kBatchCanary, 3, 7, 42, "promoted", ""));
  entries.push_back(MakeEntry(Op::kBatchActivate, 3, 7, 42, "", ""));
  entries.push_back(MakeEntry(Op::kIndexStageIntent, 3, 7, 5, "",
                              "retrieval/r7.v000005"));
  entries.push_back(MakeEntry(Op::kIndexCanary, 3, 7, 5, "rolled_back", ""));
  entries.push_back(MakeEntry(Op::kIndexDiscard, 3, 7, 5, "rolled_back", ""));
  entries.push_back(MakeEntry(Op::kDayComplete, 3, -1, 0, "", ""));
  return entries;
}

std::string EncodeAll(const std::vector<RunLedger::Entry>& entries) {
  std::string log;
  for (const RunLedger::Entry& entry : entries) {
    log += RunLedger::EncodeEntry(entry);
  }
  return log;
}

TEST(RunLedgerFormatTest, EncodeDecodeRoundTrips) {
  const std::vector<RunLedger::Entry> entries = SampleEntries();
  const std::string log = EncodeAll(entries);
  const RunLedger::DecodeResult decoded = RunLedger::DecodeLog(log);
  EXPECT_EQ(decoded.entries, entries);
  EXPECT_EQ(decoded.valid_bytes, log.size());
  EXPECT_FALSE(decoded.torn_tail);
}

TEST(RunLedgerFormatTest, EveryPrefixTruncationDecodesCleanly) {
  const std::vector<RunLedger::Entry> entries = SampleEntries();
  const std::string log = EncodeAll(entries);
  // Entry boundaries, so we know which truncation lengths are "clean".
  std::vector<size_t> boundaries = {0};
  for (const RunLedger::Entry& entry : entries) {
    boundaries.push_back(boundaries.back() +
                         RunLedger::EncodeEntry(entry).size());
  }
  for (size_t len = 0; len <= log.size(); ++len) {
    const RunLedger::DecodeResult decoded =
        RunLedger::DecodeLog(std::string_view(log).substr(0, len));
    // The decode is the longest prefix of whole entries that fits.
    size_t expect_entries = 0;
    while (expect_entries + 1 < boundaries.size() &&
           boundaries[expect_entries + 1] <= len) {
      ++expect_entries;
    }
    ASSERT_EQ(decoded.entries.size(), expect_entries) << "len=" << len;
    for (size_t i = 0; i < expect_entries; ++i) {
      EXPECT_EQ(decoded.entries[i], entries[i]) << "len=" << len;
    }
    EXPECT_EQ(decoded.valid_bytes, boundaries[expect_entries])
        << "len=" << len;
    EXPECT_EQ(decoded.torn_tail, len != boundaries[expect_entries])
        << "len=" << len;
  }
}

// Seeded mutation fuzz: bit flips, truncations, and overlength tails.
// Whatever the decoder accepts must round-trip (re-encoding the accepted
// entries and decoding again is a fixed point), and the decoder must
// never read past the buffer or abort.
TEST(RunLedgerFormatTest, FuzzMutatedLogsNeverBreakTheDecoder) {
  const std::vector<RunLedger::Entry> entries = SampleEntries();
  const std::string log = EncodeAll(entries);
  Rng rng(20260808);
  constexpr int kTrials = 2500;
  int64_t accepted_entries = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string mutated = log;
    switch (trial % 4) {
      case 0: {  // single bit flip
        const size_t pos = rng.Uniform(mutated.size());
        mutated[pos] = static_cast<char>(
            static_cast<unsigned char>(mutated[pos]) ^ (1u << rng.Uniform(8)));
        break;
      }
      case 1: {  // burst of bit flips
        for (int k = 0; k < 8; ++k) {
          const size_t pos = rng.Uniform(mutated.size());
          mutated[pos] = static_cast<char>(
              static_cast<unsigned char>(mutated[pos]) ^
              (1u << rng.Uniform(8)));
        }
        break;
      }
      case 2: {  // truncate to a random length
        mutated.resize(rng.Uniform(mutated.size() + 1));
        break;
      }
      default: {  // overlength: append random garbage (torn next append)
        const size_t extra = 1 + rng.Uniform(64);
        for (size_t k = 0; k < extra; ++k) {
          mutated.push_back(static_cast<char>(rng.Uniform(256)));
        }
        break;
      }
    }
    const RunLedger::DecodeResult decoded = RunLedger::DecodeLog(mutated);
    ASSERT_LE(decoded.valid_bytes, mutated.size());
    accepted_entries += static_cast<int64_t>(decoded.entries.size());
    // Round-trip fixed point: what was accepted re-encodes to exactly the
    // valid prefix and decodes to the same entries.
    const std::string reencoded = EncodeAll(decoded.entries);
    ASSERT_EQ(reencoded, mutated.substr(0, decoded.valid_bytes))
        << "trial " << trial;
    const RunLedger::DecodeResult again = RunLedger::DecodeLog(reencoded);
    ASSERT_EQ(again.entries, decoded.entries) << "trial " << trial;
    ASSERT_FALSE(again.torn_tail) << "trial " << trial;
  }
  // Sanity: the fuzz actually exercised accepting decoders, not just
  // empty results.
  EXPECT_GT(accepted_entries, 0);
}

TEST(RunLedgerTest, AppendReadDayAndResumeTruncateTornTail) {
  sfs::MemFileSystem fs;
  RunLedger ledger(&fs, RunLedger::Options{}, RetryPolicy{}, nullptr,
                   nullptr);
  ledger.StartDay(4);
  const std::vector<RunLedger::Entry> entries = SampleEntries();
  for (RunLedger::Entry entry : entries) {
    entry.day = 4;
    ASSERT_TRUE(ledger.Append(entry).ok());
  }
  StatusOr<RunLedger::DecodeResult> read = ledger.ReadDay(4);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->entries.size(), entries.size());
  EXPECT_FALSE(read->torn_tail);

  // Tear the tail: a crashed append leaves a half-written last frame.
  StatusOr<std::string> bytes = fs.Read(ledger.DayPath(4));
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(fs.Write(ledger.DayPath(4),
                       bytes->substr(0, bytes->size() - 5) + "XX")
                  .ok());
  read = ledger.ReadDay(4);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->entries.size(), entries.size() - 1);
  EXPECT_TRUE(read->torn_tail);

  // Resume from the valid prefix; the next append rewrites the file
  // without the torn bytes.
  RunLedger resumed(&fs, RunLedger::Options{}, RetryPolicy{}, nullptr,
                    nullptr);
  resumed.ResumeDay(4, read->entries);
  ASSERT_TRUE(
      resumed.Append(MakeEntry(Op::kDayComplete, 4, -1, 0, "", "")).ok());
  read = resumed.ReadDay(4);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->entries.size(), entries.size());
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(read->entries.back().op, Op::kDayComplete);

  // Retention: day 4 current, retain 2 → day <= 2 logs go.
  ledger.StartDay(2);
  ASSERT_TRUE(ledger.Append(MakeEntry(Op::kDayStart, 2, -1, 0, "", "")).ok());
  int64_t deleted = 0;
  ASSERT_TRUE(resumed.RetireOldDays(4, &deleted).ok());
  EXPECT_EQ(deleted, 1);
  EXPECT_FALSE(fs.Exists(ledger.DayPath(2)));
  EXPECT_TRUE(fs.Exists(ledger.DayPath(4)));
}

TEST(RunLedgerTest, SnapshotTwoPhaseCommitAndCorruptFallback) {
  sfs::MemFileSystem fs;
  RunLedger ledger(&fs, RunLedger::Options{}, RetryPolicy{}, nullptr,
                   nullptr);
  ASSERT_TRUE(ledger.WriteSnapshotTmp("day one state").ok());
  ASSERT_TRUE(ledger.CommitSnapshot(1).ok());
  ASSERT_TRUE(ledger.WriteSnapshotTmp("day two state").ok());
  ASSERT_TRUE(ledger.CommitSnapshot(2).ok());
  StatusOr<std::pair<int, std::string>> latest = ledger.ReadLatestSnapshot();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->first, 2);
  EXPECT_EQ(latest->second, "day two state");

  // Rot the newest snapshot: recovery falls back to the previous one
  // instead of failing (or worse, trusting garbage — the CRC frame makes
  // that impossible).
  StatusOr<std::string> bytes = fs.Read(ledger.SnapshotPath(2));
  ASSERT_TRUE(bytes.ok());
  std::string rotten = *bytes;
  rotten[rotten.size() / 2] ^= 0x40;
  ASSERT_TRUE(fs.Write(ledger.SnapshotPath(2), rotten).ok());
  latest = ledger.ReadLatestSnapshot();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->first, 1);
  EXPECT_EQ(latest->second, "day one state");

  // An uncommitted tmp (crash between the phases) is invisible to
  // ReadLatestSnapshot and retention ignores it.
  ASSERT_TRUE(ledger.WriteSnapshotTmp("never committed").ok());
  latest = ledger.ReadLatestSnapshot();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->first, 1);

  int64_t deleted = 0;
  ASSERT_TRUE(ledger.RetireOldSnapshots(4, &deleted).ok());
  EXPECT_EQ(deleted, 2);  // retain 2 keeps days {3,4}; v1 and v2 age out
  EXPECT_FALSE(fs.Exists(ledger.SnapshotPath(1)));
  EXPECT_FALSE(fs.Exists(ledger.SnapshotPath(2)));
}

TEST(ServiceSnapshotTest, SerializeDeserializeRoundTrips) {
  ServiceSnapshot snapshot;
  snapshot.days_run = 12;
  snapshot.previous_results = {"line one", "line \xff two", ""};
  snapshot.shard_homes = {{0, "cell-a"}, {7, "cell-b"}};
  snapshot.monitor_state = std::string("mon\0state", 9);
  snapshot.sentry_state = "sentry state";
  VersionChainState chain;
  chain.active = 9;
  chain.next_version = 11;
  chain.retained = {8, 9, 10};
  snapshot.store_versions[3] = chain;
  chain.active = 0;
  chain.next_version = 2;
  chain.retained = {1};
  snapshot.index_versions[5] = chain;

  StatusOr<ServiceSnapshot> decoded =
      ServiceSnapshot::Deserialize(snapshot.Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, snapshot);

  // Truncations of the snapshot payload never decode to a wrong struct:
  // they fail loudly (the caller falls back to an older snapshot).
  const std::string bytes = snapshot.Serialize();
  for (size_t len = 0; len < bytes.size(); ++len) {
    StatusOr<ServiceSnapshot> partial =
        ServiceSnapshot::Deserialize(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(partial.ok()) << "len=" << len;
  }
}

// ---------------------------------------------------------------------------
// Durable control state across a crash-restart: the sentry's quarantine
// set and last-good baselines, and the quality monitor's trailing MAP
// history, must come back exactly — a guardrail with amnesia waves the
// next bad batch straight through.
// ---------------------------------------------------------------------------

TEST(StateRecoveryTest, QuarantinedRetailerStaysQuarantinedAcrossRestart) {
  data::WorldConfig config;
  config.seed = 17;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(3, 300);

  obs::MetricRegistry metrics;
  dataqual::DataSentry sentry(dataqual::DataSentry::Options{}, &metrics);
  ASSERT_EQ(sentry.Observe(dataqual::BuildFeedProfile(world.data)).verdict,
            dataqual::DataSentry::Verdict::kPass);
  const int64_t baseline_events =
      sentry.LastGoodProfile(world.data.id)->events;

  dataqual::FeedCorruptor::Options corruptor_options;
  corruptor_options.seed = 5;
  dataqual::FeedCorruptor corruptor(corruptor_options);
  const data::RetailerData poisoned =
      corruptor.Apply(world.data, dataqual::Corruption::kBotFlood,
                      world.data.id, /*day=*/1);
  ASSERT_EQ(sentry.Observe(dataqual::BuildFeedProfile(poisoned)).verdict,
            dataqual::DataSentry::Verdict::kQuarantine);

  // Crash: the process dies, a new sentry restores the serialized state.
  dataqual::DataSentry restored(dataqual::DataSentry::Options{}, &metrics);
  ASSERT_TRUE(restored.RestoreState(sentry.SerializeState()).ok());
  EXPECT_TRUE(restored.IsQuarantined(world.data.id));
  EXPECT_EQ(restored.QuarantinedCount(), 1);
  // The poisoned day did NOT become the drift baseline: the restored
  // last-good profile is still day 1's.
  ASSERT_NE(restored.LastGoodProfile(world.data.id), nullptr);
  EXPECT_EQ(restored.LastGoodProfile(world.data.id)->events,
            baseline_events);

  // Both sentries judge the next day identically: the restart is
  // invisible to the verdict stream. A clean next feed releases the
  // retailer in both.
  data::AdvanceOneDay(generator, &world, /*new_items=*/2, /*seed=*/77);
  const dataqual::FeedProfile next = dataqual::BuildFeedProfile(world.data);
  const dataqual::DataSentry::Observation a = sentry.Observe(next);
  const dataqual::DataSentry::Observation b = restored.Observe(next);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.released, b.released);
  EXPECT_TRUE(b.released);
  EXPECT_FALSE(restored.IsQuarantined(world.data.id));
}

TEST(StateRecoveryTest, QualityBaselinesSurviveRestart) {
  QualityMonitor::Options options;
  options.max_relative_drop = 0.3;
  obs::MetricRegistry metrics;
  QualityMonitor monitor(options, &metrics);
  EXPECT_EQ(monitor.Record(1, 0.20), QualityMonitor::Verdict::kFirstObservation);
  EXPECT_EQ(monitor.Record(1, 0.22), QualityMonitor::Verdict::kOk);
  EXPECT_EQ(monitor.Record(2, 0.10), QualityMonitor::Verdict::kFirstObservation);

  QualityMonitor restored(options, &metrics);
  ASSERT_TRUE(restored.RestoreState(monitor.SerializeState()).ok());
  EXPECT_DOUBLE_EQ(restored.TrailingBest(1), 0.22);
  EXPECT_EQ(restored.days_observed(1), 2);
  // The baseline survived, so a regressed day after the restart is still
  // caught — the exact failure a forgetful monitor would wave through as
  // a "first observation".
  EXPECT_EQ(restored.Record(1, 0.05), QualityMonitor::Verdict::kRegressed);
  EXPECT_EQ(monitor.Record(1, 0.05), QualityMonitor::Verdict::kRegressed);
  // And serialized state round-trips to identical bytes (deterministic
  // encoding — snapshots must be byte-comparable across a recovery).
  QualityMonitor again(options, &metrics);
  ASSERT_TRUE(again.RestoreState(restored.SerializeState()).ok());
  EXPECT_EQ(again.SerializeState(), restored.SerializeState());
}

}  // namespace
}  // namespace sigmund::pipeline
