#ifndef SIGMUND_SERVING_REPLICATED_STORE_H_
#define SIGMUND_SERVING_REPLICATED_STORE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/retry.h"
#include "serving/admission.h"
#include "serving/store.h"
#include "sfs/reliable_io.h"
#include "sfs/shared_filesystem.h"

namespace sigmund::serving {

// N-way replicated serving plane: a group of RecommendationStore replicas
// fronted as one ServingReader. This is the rollout ladder's last layer
// (DESIGN.md §7): a daily refresh cuts replicas over one at a time
// (staggered, drained replica excluded from serving), so aggregate
// capacity never drops during the refresh; a dead replica is failed over
// transparently; health is probed through heartbeat files on the shared
// filesystem, so the existing SFS fault-injection machinery exercises the
// health-check path too.
//
// Requests are routed deterministically: a stable hash of (retailer,
// context item) picks the preferred replica; unhealthy/draining replicas
// are skipped down the preference order. Optional hedged reads consult
// the next replica as well and serve whichever copy answers faster (in
// accounted, simulated micros — nothing sleeps), trimming tail latency.
//
// Thread-safe: replica health flags live under a mutex; the replicas
// themselves are internally synchronized.
class ReplicatedStoreGroup : public ServingReader {
 public:
  struct Options {
    // Store replicas; 1 = no replication (the group degenerates to a
    // plain store).
    int num_replicas = 1;
    // Read the preferred and the next-preferred replica, serve the
    // faster copy (by accounted latency below).
    bool hedged_reads = false;
    // Finagle-style budget on hedges: every read deposits this fraction
    // of a token, every hedge withdraws one, so sustained hedging is
    // capped at `hedge_budget_ratio` × read volume and a slow store sees
    // at most (1 + ratio) × offered load. < 0 = unlimited (legacy).
    // Suppressed hedges are counted in serving_hedges_suppressed_total.
    double hedge_budget_ratio = -1.0;
    // Reserve/cap for the hedge budget (only read when the ratio >= 0).
    double hedge_budget_initial_tokens = 10.0;
    double hedge_budget_max_tokens = 1000.0;
    // Accounted per-replica read latency in simulated micros (capacity
    // planning; nothing sleeps). Index = replica; replicas past the end
    // of the vector use the last element; empty = 150 for all.
    std::vector<int64_t> replica_read_micros;
    // Per-replica version-chain options.
    RecommendationStore::Options store;
  };

  // `metrics` (borrowed) is required: failovers, replica reads, hedges,
  // cutovers, rollbacks and probe failures count into it.
  ReplicatedStoreGroup(const Options& options, obs::MetricRegistry* metrics);

  // --- ServingReader: the request path. The traced overload is the real
  // implementation: replica choice, failover, and hedge decisions are
  // annotated onto the request trace (no-ops on an inactive context).
  StatusOr<std::vector<core::ScoredItem>> ServeContext(
      data::RetailerId retailer, const core::Context& context) const override;
  StatusOr<std::vector<core::ScoredItem>> ServeContext(
      data::RetailerId retailer, const core::Context& context,
      obs::TraceContext trace) const override;
  // The primary's active version (the group's version authority).
  int64_t RetailerVersion(data::RetailerId retailer) const override;

  // Loads one batch into every live replica under one shared version
  // number and activates it everywhere (the non-canary in-memory path).
  void LoadRetailer(data::RetailerId retailer,
                    const std::vector<core::ItemRecommendations>& recs);

  // Staggered follower cutover: after the primary has activated
  // `version`, walks replicas 1..N-1 one at a time — drain (out of the
  // serving rotation), load the batch file pinned to `version`, activate,
  // undrain. At most one replica is ever out of rotation, so aggregate
  // serving capacity never drops below N-1 during a refresh. A dead
  // replica is skipped; a corrupt read (kDataLoss) leaves that replica on
  // its previous batch; a persistent read error marks the replica
  // unhealthy until the next successful probe. Outcomes are counted in
  // serving_replica_cutovers_total{outcome=...}.
  Status CutoverFollowersFromFile(data::RetailerId retailer,
                                  const sfs::SharedFileSystem& fs,
                                  const std::string& path, int64_t version,
                                  const RetryPolicy& policy = {},
                                  sfs::ReliableIoCounters* io = nullptr);

  // Rolls every live replica that retains `version` back to it — pure
  // pointer flips, no SFS I/O. Fails if the primary cannot roll back.
  Status RollbackRetailer(data::RetailerId retailer, int64_t version);

  // --- Replica lifecycle / health.
  void KillReplica(int replica);
  void ReviveReplica(int replica);
  bool ReplicaAlive(int replica) const;
  // Replicas currently in the serving rotation (alive, not draining,
  // passing probes).
  int ServingReplicas() const;

  // Heartbeats: each live replica writes its heartbeat file; probing
  // reads them back and takes replicas whose heartbeat is unreadable out
  // of the rotation (probe failures are counted). Routing heartbeats
  // through `fs` means an injected-fault filesystem exercises the health
  // checks exactly like every other SFS client.
  Status WriteHeartbeats(sfs::SharedFileSystem* fs,
                         const RetryPolicy& policy = {});
  void ProbeReplicas(const sfs::SharedFileSystem& fs,
                     const RetryPolicy& policy = {});
  static std::string HeartbeatPath(int replica);

  // Test seam: called after a follower is drained, right before its batch
  // load — the window where chaos tests kill a replica mid-cutover.
  void SetCutoverHookForTesting(
      std::function<void(data::RetailerId, int)> hook) {
    cutover_hook_ = std::move(hook);
  }

  RecommendationStore* primary() { return replicas_.front().get(); }
  const RecommendationStore& primary() const { return *replicas_.front(); }
  RecommendationStore* replica(int i) { return replicas_[i].get(); }
  int num_replicas() const { return static_cast<int>(replicas_.size()); }

 private:
  struct ReplicaState {
    bool alive = true;
    bool draining = false;
    bool probe_ok = true;
  };

  // Preference-ordered list of replicas eligible to serve, starting the
  // walk at `preferred`; falls back to merely-alive replicas when none
  // pass every health check, so a noisy probe can degrade but never zero
  // the rotation.
  std::vector<int> ServingOrder(int preferred) const;

  int64_t ReadMicros(int replica) const;

  Options options_;
  obs::MetricRegistry* metrics_;
  // Label-free request-path series, resolved once.
  obs::Counter* failovers_;
  obs::Histogram* read_micros_;
  obs::Counter* hedges_suppressed_;
  // Null when hedge_budget_ratio < 0 (unlimited hedging). RetryBudget is
  // internally synchronized, so the const ServeContext path can spend it.
  mutable std::unique_ptr<RetryBudget> hedge_budget_;
  std::vector<std::unique_ptr<RecommendationStore>> replicas_;
  std::function<void(data::RetailerId, int)> cutover_hook_;

  mutable std::mutex mu_;
  std::vector<ReplicaState> states_;
};

}  // namespace sigmund::serving

#endif  // SIGMUND_SERVING_REPLICATED_STORE_H_
