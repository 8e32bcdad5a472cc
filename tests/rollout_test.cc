// Safe-rollout serving plane: versioned snapshots with pointer-flip
// activation/rollback, the replicated store group (staggered cutover,
// failover, heartbeat probes, hedged reads), and the shared-lock swap
// invariant under concurrency (TSan-covered).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "common/metrics.h"
#include "counter_total.h"
#include "core/recommendation_batch.h"
#include "serving/replicated_store.h"
#include "serving/store.h"
#include "sfs/mem_filesystem.h"
#include "sfs/reliable_io.h"

namespace sigmund {
namespace {

using data::ActionType;
using serving::RecommendationKind;
using serving::RecommendationStore;
using serving::ReplicatedStoreGroup;

// One batch whose every score equals `score` — lets tests recognize which
// batch version a served list came from, and detect torn lists.
std::vector<core::ItemRecommendations> MakeBatch(int num_items,
                                                 double score) {
  std::vector<core::ItemRecommendations> batch;
  for (int i = 0; i < num_items; ++i) {
    core::ItemRecommendations recs;
    recs.query = i;
    recs.view_based = {{(i + 1) % num_items, score},
                       {(i + 2) % num_items, score},
                       {(i + 3) % num_items, score}};
    recs.purchase_based = {{(i + 4) % num_items, score}};
    batch.push_back(std::move(recs));
  }
  return batch;
}

// A CRC-framed batch file, as the inference job writes it.
std::string SerializeBatch(
    const std::vector<core::ItemRecommendations>& batch) {
  return WriteChecksummedFrame(
      core::RecommendationBatch::FromLists(batch).Encode());
}

// SFS decorator counting every operation — proves rollback is a pure
// pointer flip that never touches storage.
class CountingFileSystem : public sfs::SharedFileSystem {
 public:
  explicit CountingFileSystem(sfs::SharedFileSystem* base) : base_(base) {}

  Status Write(const std::string& path, const std::string& data) override {
    ++ops_;
    return base_->Write(path, data);
  }
  StatusOr<std::string> Read(const std::string& path) const override {
    ++ops_;
    return base_->Read(path);
  }
  Status Delete(const std::string& path) override {
    ++ops_;
    return base_->Delete(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    ++ops_;
    return base_->Rename(from, to);
  }
  bool Exists(const std::string& path) const override {
    ++ops_;
    return base_->Exists(path);
  }
  StatusOr<std::vector<std::string>> List(
      const std::string& prefix) const override {
    ++ops_;
    return base_->List(prefix);
  }
  StatusOr<int64_t> FileSize(const std::string& path) const override {
    ++ops_;
    return base_->FileSize(path);
  }

  int64_t ops() const { return ops_; }

 private:
  sfs::SharedFileSystem* base_;
  mutable std::atomic<int64_t> ops_{0};
};

// --- Versioned snapshots ------------------------------------------------------

TEST(VersionedStoreTest, StagedVersionDoesNotServeUntilActivated) {
  RecommendationStore store;
  store.LoadRetailer(1, MakeBatch(5, 1.0));
  EXPECT_EQ(store.RetailerVersion(1), 1);

  const int64_t staged = store.StageRetailer(1, MakeBatch(5, 2.0));
  EXPECT_EQ(staged, 2);
  EXPECT_EQ(store.RetailerVersion(1), 1);  // still serving v1
  EXPECT_EQ(store.LatestVersion(1), 2);

  auto active = store.Lookup(1, 0, RecommendationKind::kViewBased);
  ASSERT_TRUE(active.ok());
  EXPECT_DOUBLE_EQ((*active)[0].score, 1.0);
  // Canary traffic can read the staged version explicitly.
  auto canary = store.LookupAtVersion(1, 0, RecommendationKind::kViewBased,
                                      staged);
  ASSERT_TRUE(canary.ok());
  EXPECT_DOUBLE_EQ((*canary)[0].score, 2.0);

  ASSERT_TRUE(store.ActivateVersion(1, staged).ok());
  EXPECT_EQ(store.RetailerVersion(1), 2);
  auto promoted = store.Lookup(1, 0, RecommendationKind::kViewBased);
  ASSERT_TRUE(promoted.ok());
  EXPECT_DOUBLE_EQ((*promoted)[0].score, 2.0);
}

TEST(VersionedStoreTest, RollbackIsInstantAndServesOldBatch) {
  RecommendationStore store;
  store.LoadRetailer(1, MakeBatch(5, 1.0));
  store.LoadRetailer(1, MakeBatch(5, 2.0));
  EXPECT_EQ(store.RetailerVersion(1), 2);

  ASSERT_TRUE(store.RollbackRetailer(1, 1).ok());
  EXPECT_EQ(store.RetailerVersion(1), 1);
  auto list = store.ServeContext(1, {{0, ActionType::kView}});
  ASSERT_TRUE(list.ok());
  EXPECT_DOUBLE_EQ((*list)[0].score, 1.0);

  // Rolling back to a version that was never loaded fails cleanly.
  EXPECT_EQ(store.RollbackRetailer(1, 9).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.RollbackRetailer(7, 1).code(), StatusCode::kNotFound);
}

TEST(VersionedStoreTest, RetentionWindowEvictsOldestVersions) {
  RecommendationStore::Options options;
  options.retained_versions = 2;
  RecommendationStore store(options);
  for (int v = 1; v <= 4; ++v) {
    store.LoadRetailer(1, MakeBatch(5, static_cast<double>(v)));
  }
  EXPECT_EQ(store.RetailerVersion(1), 4);
  EXPECT_EQ(store.RetainedVersions(1), (std::vector<int64_t>{3, 4}));
  // Evicted versions are gone for good.
  EXPECT_EQ(store.RollbackRetailer(1, 1).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.RollbackRetailer(1, 3).ok());
}

TEST(VersionedStoreTest, RetentionNeverEvictsActiveVersion) {
  RecommendationStore::Options options;
  options.retained_versions = 1;
  RecommendationStore store(options);
  store.LoadRetailer(1, MakeBatch(5, 1.0));
  // Stage (not activate) many new versions: the active v1 must survive.
  for (int v = 0; v < 4; ++v) {
    store.StageRetailer(1, MakeBatch(5, 9.0));
  }
  EXPECT_EQ(store.RetailerVersion(1), 1);
  auto list = store.Lookup(1, 0, RecommendationKind::kViewBased);
  ASSERT_TRUE(list.ok());
  EXPECT_DOUBLE_EQ((*list)[0].score, 1.0);
}

TEST(VersionedStoreTest, DiscardDropsStagedButNotActive) {
  RecommendationStore store;
  store.LoadRetailer(1, MakeBatch(5, 1.0));
  const int64_t staged = store.StageRetailer(1, MakeBatch(5, 2.0));
  ASSERT_TRUE(store.DiscardVersion(1, staged).ok());
  EXPECT_EQ(store.LatestVersion(1), 1);
  EXPECT_EQ(store.DiscardVersion(1, 1).code(),
            StatusCode::kFailedPrecondition);
  // A post-discard load continues the version sequence.
  store.LoadRetailer(1, MakeBatch(5, 3.0));
  EXPECT_EQ(store.RetailerVersion(1), 3);
}

TEST(VersionedStoreTest, RollbackDoesNoSfsIo) {
  sfs::MemFileSystem mem;
  CountingFileSystem fs(&mem);
  ASSERT_TRUE(fs.Write("batch", SerializeBatch(MakeBatch(5, 1.0))).ok());
  ASSERT_TRUE(fs.Write("batch2", SerializeBatch(MakeBatch(5, 2.0))).ok());

  RecommendationStore store;
  ASSERT_TRUE(store.LoadRetailerFromFile(1, fs, "batch").ok());
  ASSERT_TRUE(store.LoadRetailerFromFile(1, fs, "batch2").ok());
  EXPECT_EQ(store.RetailerVersion(1), 2);

  const int64_t ops_before = fs.ops();
  ASSERT_TRUE(store.RollbackRetailer(1, 1).ok());
  EXPECT_EQ(store.RetailerVersion(1), 1);
  auto list = store.Lookup(1, 0, RecommendationKind::kViewBased);
  ASSERT_TRUE(list.ok());
  EXPECT_DOUBLE_EQ((*list)[0].score, 1.0);
  // The whole rollback — flip + serve — touched storage zero times: no
  // reload, no re-read, O(pointer flip).
  EXPECT_EQ(fs.ops(), ops_before);
}

TEST(VersionedStoreTest, StageFromFileKeepsPreviousVersionServing) {
  sfs::MemFileSystem fs;
  ASSERT_TRUE(fs.Write("batch", SerializeBatch(MakeBatch(5, 2.0))).ok());
  RecommendationStore store;
  store.LoadRetailer(1, MakeBatch(5, 1.0));

  StatusOr<int64_t> staged = store.StageRetailerFromFile(1, fs, "batch");
  ASSERT_TRUE(staged.ok());
  EXPECT_EQ(*staged, 2);
  EXPECT_EQ(store.RetailerVersion(1), 1);  // old batch still live
  ASSERT_TRUE(store.ActivateVersion(1, *staged).ok());
  EXPECT_EQ(store.RetailerVersion(1), 2);

  // A corrupt staged batch is rejected and nothing changes.
  ASSERT_TRUE(fs.Write("bad", "not a recommendation record\n").ok());
  EXPECT_EQ(store.StageRetailerFromFile(1, fs, "bad").status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(store.RetailerVersion(1), 2);
  EXPECT_EQ(store.LatestVersion(1), 2);
}

// Batch files carry a CRC frame, with no unframed fallback: a batch whose
// records all decode but which lacks the frame is rejected as corrupt,
// and the live version keeps serving.
TEST(VersionedStoreTest, UnframedBatchIsRejected) {
  sfs::MemFileSystem fs;
  const std::string unframed =
      core::RecommendationBatch::FromLists(MakeBatch(5, 2.0)).Encode();
  ASSERT_TRUE(fs.Write("unframed", unframed).ok());
  obs::MetricRegistry metrics;
  sfs::ReliableIoCounters io(&metrics);
  RecommendationStore store;
  store.LoadRetailer(1, MakeBatch(5, 1.0));

  EXPECT_EQ(store.StageRetailerFromFile(1, fs, "unframed", {}, &io)
                .status()
                .code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(store.RetailerVersion(1), 1);
  EXPECT_EQ(store.LatestVersion(1), 1);
  auto list = store.Lookup(1, 0, RecommendationKind::kViewBased);
  ASSERT_TRUE(list.ok());
  EXPECT_DOUBLE_EQ((*list)[0].score, 1.0);
  EXPECT_EQ(metrics.Snapshot().CounterValue("serving_batch_loads_total",
                                            {{"outcome", "rejected"}}),
            1);
}

// A CRC-valid batch whose payload breaks one rule of the batch format
// must be rejected as kDataLoss, count one corruption, and leave the
// previous version serving. `mutate` edits the payload of a good 5-item
// batch (MakeBatch: 4 entries per item, 20 in all) before it is framed.
void ExpectHostileBatchRejected(
    const std::function<void(std::string*)>& mutate) {
  std::string payload =
      core::RecommendationBatch::FromLists(MakeBatch(5, 2.0)).Encode();
  mutate(&payload);
  sfs::MemFileSystem fs;
  ASSERT_TRUE(fs.Write("hostile", WriteChecksummedFrame(payload)).ok());
  obs::MetricRegistry metrics;
  sfs::ReliableIoCounters io(&metrics);
  RecommendationStore store;
  store.LoadRetailer(1, MakeBatch(5, 1.0));

  EXPECT_EQ(store.StageRetailerFromFile(1, fs, "hostile", {}, &io)
                .status()
                .code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(
      testutil::CounterTotal(metrics, "sfs_corruptions_detected_total"), 1);
  EXPECT_EQ(store.RetailerVersion(1), 1);
  EXPECT_EQ(store.LatestVersion(1), 1);
  auto list = store.Lookup(1, 0, RecommendationKind::kViewBased);
  ASSERT_TRUE(list.ok());
  EXPECT_DOUBLE_EQ((*list)[0].score, 1.0);
}

// Byte positions in a 5-item batch payload (DESIGN.md §7.1 layout).
constexpr size_t kItemCountAt = 8;
constexpr size_t kOffsetsAt = 16;
constexpr size_t kIdsAt = kOffsetsAt + 4 * (3 * 5 + 1);
constexpr size_t kScoresAt = kIdsAt + 4 * 20;

template <typename T>
void Poke(std::string* payload, size_t at, T value) {
  std::memcpy(payload->data() + at, &value, sizeof(T));
}

TEST(VersionedStoreTest, HostileBatchItemCountDisagreeingWithSizeIsRejected) {
  for (uint32_t n : {4u, 6u, 1000u, std::numeric_limits<uint32_t>::max()}) {
    SCOPED_TRACE(n);
    ExpectHostileBatchRejected(
        [n](std::string* p) { Poke(p, kItemCountAt, n); });
  }
}

TEST(VersionedStoreTest, HostileBatchBadOffsetsAreRejected) {
  // Non-monotone: item 0's late-funnel list would end before it starts.
  ExpectHostileBatchRejected(
      [](std::string* p) { Poke<uint32_t>(p, kOffsetsAt + 4 * 3, 1); });
  // Out of range: an offset past the entry count, then a huge one.
  ExpectHostileBatchRejected(
      [](std::string* p) { Poke<uint32_t>(p, kOffsetsAt + 4 * 15, 21); });
  ExpectHostileBatchRejected([](std::string* p) {
    Poke<uint32_t>(p, kOffsetsAt + 4 * 2,
                   std::numeric_limits<uint32_t>::max());
  });
  // The table must start at zero.
  ExpectHostileBatchRejected(
      [](std::string* p) { Poke<uint32_t>(p, kOffsetsAt, 1); });
}

TEST(VersionedStoreTest, HostileBatchItemIdOutsideCatalogIsRejected) {
  // Negative ids and ids near 2^31 included: none may reach a shard.
  for (int32_t id : {-3, 5, std::numeric_limits<int32_t>::max(),
                     std::numeric_limits<int32_t>::min()}) {
    SCOPED_TRACE(id);
    ExpectHostileBatchRejected(
        [id](std::string* p) { Poke(p, kIdsAt + 4 * 7, id); });
  }
}

TEST(VersionedStoreTest, HostileBatchNonFiniteScoreIsRejected) {
  for (float score : {std::numeric_limits<float>::quiet_NaN(),
                      std::numeric_limits<float>::infinity(),
                      -std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE(score);
    ExpectHostileBatchRejected(
        [score](std::string* p) { Poke(p, kScoresAt + 4 * 19, score); });
  }
}

// The in-memory path indexes rows by query item, so a negative query is
// a programming error, not data to serve.
TEST(VersionedStoreDeathTest, NegativeQueryInMemoryBatchIsFatal) {
  std::vector<core::ItemRecommendations> batch = MakeBatch(5, 1.0);
  batch[2].query = -3;
  RecommendationStore store;
  EXPECT_DEATH(store.LoadRetailer(1, batch), "negative query item");
}

// --- Shared-lock swap invariant (TSan-covered) --------------------------------

// Concurrent Lookup/ServeContext during LoadRetailer cutovers must never
// observe a torn or mixed-version shard: every score in a served list
// belongs to one batch version.
TEST(ConcurrentCutoverTest, ReadersNeverSeeTornOrMixedVersionShard) {
  constexpr int kItems = 16;
  constexpr int kVersions = 40;
  RecommendationStore store;
  store.LoadRetailer(1, MakeBatch(kItems, 1.0));

  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<int64_t> violations{0};
  std::atomic<int64_t> reads{0};
  // Readers that have completed a read; the writer starts cutting over
  // only once every reader is running, so the cutovers always race reads.
  std::atomic<int> started{0};

  auto reader = [&](int offset) {
    int item = offset;
    bool first = true;
    while (!done.load(std::memory_order_relaxed)) {
      item = (item + 1) % kItems;
      StatusOr<std::vector<core::ScoredItem>> list =
          (item % 2 == 0)
              ? store.Lookup(1, item, RecommendationKind::kViewBased)
              : store.ServeContext(
                    1, {{item, ActionType::kView}});
      if (first) {
        started.fetch_add(1);
        first = false;
      }
      if (!list.ok() || list->empty()) {
        violations.fetch_add(1);
        continue;
      }
      const double version = (*list)[0].score;
      // All scores in one response must come from the same batch.
      for (const core::ScoredItem& scored : *list) {
        if (scored.score != version) violations.fetch_add(1);
      }
      if (version < 1.0 || version > kVersions) violations.fetch_add(1);
      reads.fetch_add(1);
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) readers.emplace_back(reader, t * 3);
  // Bounded: a reader that never starts fails the assertions below
  // instead of hanging the test.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (started.load() < kReaders &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  for (int v = 2; v <= kVersions; ++v) {
    store.LoadRetailer(1, MakeBatch(kItems, static_cast<double>(v)));
    std::this_thread::yield();
  }
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(store.RetailerVersion(1), kVersions);
}

// --- Replicated store group ---------------------------------------------------

TEST(ReplicatedGroupTest, ServesThroughFailoverUntilNoReplicaLeft) {
  ReplicatedStoreGroup::Options options;
  options.num_replicas = 3;
  obs::MetricRegistry metrics;
  ReplicatedStoreGroup group(options, &metrics);
  group.LoadRetailer(1, MakeBatch(8, 1.0));
  EXPECT_EQ(group.RetailerVersion(1), 1);

  auto serve_all = [&] {
    for (int item = 0; item < 8; ++item) {
      auto list = group.ServeContext(1, {{item, ActionType::kView}});
      ASSERT_TRUE(list.ok());
      EXPECT_DOUBLE_EQ((*list)[0].score, 1.0);
    }
  };
  serve_all();

  // Two replicas die; the survivor carries all traffic.
  group.KillReplica(1);
  group.KillReplica(2);
  EXPECT_EQ(group.ServingReplicas(), 1);
  serve_all();
  EXPECT_GT(metrics.Snapshot().CounterValue(
                "serving_replica_failovers_total", {}),
            0);

  // No replica at all: requests fail instead of hanging.
  group.KillReplica(0);
  EXPECT_EQ(group.ServeContext(1, {{0, ActionType::kView}}).status().code(),
            StatusCode::kUnavailable);

  group.ReviveReplica(0);
  serve_all();
}

TEST(ReplicatedGroupTest, StaggeredCutoverNeverDropsAggregateCapacity) {
  sfs::MemFileSystem fs;
  ASSERT_TRUE(fs.Write("batch_v2", SerializeBatch(MakeBatch(8, 2.0))).ok());

  ReplicatedStoreGroup::Options options;
  options.num_replicas = 3;
  obs::MetricRegistry metrics;
  ReplicatedStoreGroup group(options, &metrics);
  group.LoadRetailer(1, MakeBatch(8, 1.0));

  // Mid-cutover (one follower drained), every request must still be
  // served — by the other replicas — and exactly one replica is out of
  // the rotation at a time.
  int drains_observed = 0;
  group.SetCutoverHookForTesting([&](data::RetailerId retailer,
                                     int /*replica*/) {
    EXPECT_EQ(retailer, 1);
    EXPECT_EQ(group.ServingReplicas(), 2);
    for (int item = 0; item < 8; ++item) {
      auto list = group.ServeContext(1, {{item, ActionType::kView}});
      ASSERT_TRUE(list.ok());
      EXPECT_FALSE(list->empty());
    }
    ++drains_observed;
  });

  StatusOr<int64_t> staged =
      group.primary()->StageRetailerFromFile(1, fs, "batch_v2");
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(group.primary()->ActivateVersion(1, *staged).ok());
  ASSERT_TRUE(
      group.CutoverFollowersFromFile(1, fs, "batch_v2", *staged).ok());

  EXPECT_EQ(drains_observed, 2);
  EXPECT_EQ(group.ServingReplicas(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(group.replica(i)->RetailerVersion(1), 2) << "replica " << i;
  }
  EXPECT_EQ(metrics.Snapshot().CounterValue("serving_replica_cutovers_total",
                                            {{"outcome", "ok"}}),
            2);
}

TEST(ReplicatedGroupTest, CutoverSkipsDeadAndKeepsStaleOnCorruptBatch) {
  sfs::MemFileSystem fs;
  ASSERT_TRUE(fs.Write("good", SerializeBatch(MakeBatch(8, 2.0))).ok());
  ASSERT_TRUE(fs.Write("bad", "garbage record\n").ok());

  ReplicatedStoreGroup::Options options;
  options.num_replicas = 3;
  obs::MetricRegistry metrics;
  ReplicatedStoreGroup group(options, &metrics);
  group.LoadRetailer(1, MakeBatch(8, 1.0));

  // Replica 1 is dead; replica 2 gets a corrupt copy of the batch.
  group.KillReplica(1);
  ASSERT_TRUE(group.primary()
                  ->LoadRetailerFromFile(1, fs, "good", {}, nullptr, 2)
                  .ok());
  ASSERT_TRUE(group.CutoverFollowersFromFile(1, fs, "bad", 2).ok());

  EXPECT_EQ(group.primary()->RetailerVersion(1), 2);
  EXPECT_EQ(group.replica(2)->RetailerVersion(1), 1);  // stale but serving
  obs::RegistrySnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_replica_cutovers_total",
                                  {{"outcome", "skipped_dead"}}),
            1);
  EXPECT_EQ(snapshot.CounterValue("serving_replica_cutovers_total",
                                  {{"outcome", "rejected"}}),
            1);
  // The stale replica still serves its previous batch.
  auto list = group.replica(2)->Lookup(1, 0, RecommendationKind::kViewBased);
  ASSERT_TRUE(list.ok());
  EXPECT_DOUBLE_EQ((*list)[0].score, 1.0);
}

TEST(ReplicatedGroupTest, RollbackFlipsEveryReplica) {
  ReplicatedStoreGroup::Options options;
  options.num_replicas = 2;
  obs::MetricRegistry metrics;
  ReplicatedStoreGroup group(options, &metrics);
  group.LoadRetailer(1, MakeBatch(8, 1.0));
  group.LoadRetailer(1, MakeBatch(8, 2.0));
  ASSERT_TRUE(group.RollbackRetailer(1, 1).ok());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(group.replica(i)->RetailerVersion(1), 1);
  }
  EXPECT_EQ(metrics.Snapshot().CounterValue("serving_rollbacks_total", {}),
            1);
}

TEST(ReplicatedGroupTest, HedgedReadsServeTheFasterCopy) {
  ReplicatedStoreGroup::Options options;
  options.num_replicas = 2;
  options.hedged_reads = true;
  options.replica_read_micros = {400, 50};  // replica 1 is much faster
  obs::MetricRegistry metrics;
  ReplicatedStoreGroup group(options, &metrics);
  group.LoadRetailer(1, MakeBatch(8, 1.0));

  for (int item = 0; item < 8; ++item) {
    auto list = group.ServeContext(1, {{item, ActionType::kView}});
    ASSERT_TRUE(list.ok());
  }
  obs::RegistrySnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_hedged_reads_total", {}), 8);
  // Whenever slow replica 0 was preferred, the hedge to replica 1 won.
  const int64_t wins = snapshot.CounterValue("serving_hedge_wins_total", {});
  EXPECT_GT(wins, 0);
  EXPECT_LT(wins, 8);
}

TEST(ReplicatedGroupTest, FailedProbeTakesReplicaOutUntilHeartbeatReturns) {
  sfs::MemFileSystem fs;
  ReplicatedStoreGroup::Options options;
  options.num_replicas = 3;
  obs::MetricRegistry metrics;
  ReplicatedStoreGroup group(options, &metrics);
  group.LoadRetailer(1, MakeBatch(8, 1.0));

  ASSERT_TRUE(group.WriteHeartbeats(&fs).ok());
  group.ProbeReplicas(fs);
  EXPECT_EQ(group.ServingReplicas(), 3);

  // Replica 2's heartbeat disappears (machine wedged): the probe takes it
  // out of the rotation, but traffic keeps flowing.
  ASSERT_TRUE(fs.Delete(ReplicatedStoreGroup::HeartbeatPath(2)).ok());
  group.ProbeReplicas(fs);
  EXPECT_EQ(group.ServingReplicas(), 2);
  EXPECT_GT(metrics.Snapshot().CounterValue(
                "serving_replica_probe_failures_total", {}),
            0);
  for (int item = 0; item < 8; ++item) {
    EXPECT_TRUE(group.ServeContext(1, {{item, ActionType::kView}}).ok());
  }

  // Heartbeats resume: the next probe round restores the replica.
  ASSERT_TRUE(group.WriteHeartbeats(&fs).ok());
  group.ProbeReplicas(fs);
  EXPECT_EQ(group.ServingReplicas(), 3);
}

// Dead replicas revived later rejoin with aligned version numbers thanks
// to the shared version pinning.
TEST(ReplicatedGroupTest, RevivedReplicaRejoinsAtPinnedVersion) {
  sfs::MemFileSystem fs;
  ASSERT_TRUE(fs.Write("v2", SerializeBatch(MakeBatch(8, 2.0))).ok());
  ASSERT_TRUE(fs.Write("v3", SerializeBatch(MakeBatch(8, 3.0))).ok());

  ReplicatedStoreGroup::Options options;
  options.num_replicas = 2;
  obs::MetricRegistry metrics;
  ReplicatedStoreGroup group(options, &metrics);
  group.LoadRetailer(1, MakeBatch(8, 1.0));

  group.KillReplica(1);
  ASSERT_TRUE(group.primary()
                  ->LoadRetailerFromFile(1, fs, "v2", {}, nullptr, 2)
                  .ok());
  ASSERT_TRUE(group.CutoverFollowersFromFile(1, fs, "v2", 2).ok());
  EXPECT_EQ(group.replica(1)->RetailerVersion(1), 1);  // missed v2

  group.ReviveReplica(1);
  ASSERT_TRUE(group.primary()
                  ->LoadRetailerFromFile(1, fs, "v3", {}, nullptr, 3)
                  .ok());
  ASSERT_TRUE(group.CutoverFollowersFromFile(1, fs, "v3", 3).ok());
  EXPECT_EQ(group.replica(0)->RetailerVersion(1), 3);
  EXPECT_EQ(group.replica(1)->RetailerVersion(1), 3);  // caught up, aligned
}

}  // namespace
}  // namespace sigmund
