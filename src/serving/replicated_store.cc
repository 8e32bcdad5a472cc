#include "serving/replicated_store.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"

namespace sigmund::serving {

ReplicatedStoreGroup::ReplicatedStoreGroup(const Options& options,
                                           obs::MetricRegistry* metrics)
    : options_(options),
      metrics_(obs::RequireRegistry(metrics, "ReplicatedStoreGroup")),
      failovers_(metrics_->GetCounter("serving_replica_failovers_total")),
      read_micros_(metrics_->GetHistogram("serving_replica_read_micros")),
      hedges_suppressed_(
          metrics_->GetCounter("serving_hedges_suppressed_total")) {
  if (options_.hedge_budget_ratio >= 0.0) {
    RetryBudget::Options budget;
    budget.ratio = options_.hedge_budget_ratio;
    budget.initial_tokens = options_.hedge_budget_initial_tokens;
    budget.max_tokens = options_.hedge_budget_max_tokens;
    hedge_budget_ = std::make_unique<RetryBudget>(budget);
  }
  const int n = std::max(1, options_.num_replicas);
  replicas_.reserve(n);
  for (int i = 0; i < n; ++i) {
    replicas_.push_back(
        std::make_unique<RecommendationStore>(options_.store));
  }
  states_.resize(n);
}

std::string ReplicatedStoreGroup::HeartbeatPath(int replica) {
  return StrFormat("serving/heartbeat/replica%d", replica);
}

int64_t ReplicatedStoreGroup::ReadMicros(int replica) const {
  if (options_.replica_read_micros.empty()) return 150;
  const size_t i = std::min(static_cast<size_t>(replica),
                            options_.replica_read_micros.size() - 1);
  return options_.replica_read_micros[i];
}

std::vector<int> ReplicatedStoreGroup::ServingOrder(int preferred) const {
  const int n = num_replicas();
  std::vector<int> order;
  order.reserve(n);
  std::lock_guard<std::mutex> lock(mu_);
  auto collect = [&](auto eligible) {
    order.clear();
    for (int step = 0; step < n; ++step) {
      const int i = (preferred + step) % n;
      if (eligible(states_[i])) order.push_back(i);
    }
  };
  collect([](const ReplicaState& s) {
    return s.alive && !s.draining && s.probe_ok;
  });
  if (order.empty()) {
    // Every replica is draining or failing probes: fall back to whatever
    // is alive rather than refusing to serve.
    collect([](const ReplicaState& s) { return s.alive; });
  }
  return order;
}

StatusOr<std::vector<core::ScoredItem>> ReplicatedStoreGroup::ServeContext(
    data::RetailerId retailer, const core::Context& context) const {
  return ServeContext(retailer, context, obs::TraceContext());
}

StatusOr<std::vector<core::ScoredItem>> ReplicatedStoreGroup::ServeContext(
    data::RetailerId retailer, const core::Context& context,
    obs::TraceContext trace) const {
  if (context.empty()) {
    return InvalidArgumentError("empty context");
  }
  // Deterministic preference: a stable hash of (retailer, context item)
  // spreads load across replicas and makes chaos reruns byte-identical.
  const data::ItemIndex item = context.back().item;
  const int preferred = static_cast<int>(
      SplitMix64(static_cast<uint64_t>(retailer) * 0x9E3779B97F4A7C15ULL ^
                 static_cast<uint64_t>(item + 1)) %
      static_cast<uint64_t>(num_replicas()));
  std::vector<int> order = ServingOrder(preferred);
  if (order.empty()) {
    return UnavailableError("no serving replicas alive");
  }
  if (order.front() != preferred) {
    failovers_->Add(1);
    trace.Annotate("replica_failover",
                   StrFormat("%d->%d", preferred, order.front()));
  }
  trace.Annotate("replica", StrFormat("%d", order.front()));
  auto observe = [&](int64_t micros) {
    read_micros_->Observe(static_cast<double>(micros));
  };
  // Every read banks hedge-budget tokens; each hedge below spends one, so
  // hedging can never more than (1 + ratio)× the replica read volume.
  if (hedge_budget_ != nullptr) hedge_budget_->RecordRequest();
  bool hedge = options_.hedged_reads && order.size() >= 2;
  if (hedge && hedge_budget_ != nullptr && !hedge_budget_->TryWithdraw()) {
    hedge = false;
    hedges_suppressed_->Add(1);
    trace.Annotate("hedge", "suppressed_budget");
  }
  if (hedge) {
    // Hedge: read the two most-preferred replicas and serve the faster
    // copy (accounted micros; the replicas hold the same batch, so only
    // latency differs).
    const int first = order[0];
    const int second = order[1];
    StatusOr<std::vector<core::ScoredItem>> a =
        replicas_[first]->ServeContext(retailer, context);
    StatusOr<std::vector<core::ScoredItem>> b =
        replicas_[second]->ServeContext(retailer, context);
    metrics_->GetCounter("serving_hedged_reads_total")->Add(1);
    trace.Annotate("hedge", StrFormat("%d+%d", first, second));
    const bool backup_wins =
        b.ok() && (!a.ok() || ReadMicros(second) < ReadMicros(first));
    if (backup_wins) {
      metrics_->GetCounter("serving_hedge_wins_total")->Add(1);
      trace.Annotate("hedge_winner", "backup");
    }
    observe(a.ok() && b.ok()
                ? std::min(ReadMicros(first), ReadMicros(second))
                : ReadMicros(backup_wins ? second : first));
    return backup_wins ? b : a;
  }
  const int chosen = order.front();
  observe(ReadMicros(chosen));
  return replicas_[chosen]->ServeContext(retailer, context);
}

int64_t ReplicatedStoreGroup::RetailerVersion(
    data::RetailerId retailer) const {
  return primary().RetailerVersion(retailer);
}

void ReplicatedStoreGroup::LoadRetailer(
    data::RetailerId retailer,
    const std::vector<core::ItemRecommendations>& recs) {
  std::vector<bool> alive;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ReplicaState& s : states_) alive.push_back(s.alive);
  }
  // One shared version number keeps replica chains aligned even when some
  // replica missed earlier loads while dead.
  int64_t version = 0;
  for (int i = 0; i < num_replicas(); ++i) {
    if (!alive[i]) continue;
    version = replicas_[i]->StageRetailer(retailer, recs, version);
    SIGCHECK(replicas_[i]->ActivateVersion(retailer, version).ok());
  }
}

Status ReplicatedStoreGroup::CutoverFollowersFromFile(
    data::RetailerId retailer, const sfs::SharedFileSystem& fs,
    const std::string& path, int64_t version, const RetryPolicy& policy,
    sfs::ReliableIoCounters* io) {
  auto count = [&](const char* outcome) {
    metrics_->GetCounter("serving_replica_cutovers_total",
                         {{"outcome", outcome}})
        ->Add(1);
  };
  for (int i = 1; i < num_replicas(); ++i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!states_[i].alive) {
        count("skipped_dead");
        continue;
      }
      states_[i].draining = true;
    }
    if (cutover_hook_) cutover_hook_(retailer, i);
    {
      // The hook (or anyone else) may have killed the replica while it
      // was draining; don't load a batch into a corpse.
      std::lock_guard<std::mutex> lock(mu_);
      if (!states_[i].alive) {
        states_[i].draining = false;
        count("skipped_dead");
        continue;
      }
    }
    Status loaded = replicas_[i]->LoadRetailerFromFile(retailer, fs, path,
                                                       policy, io, version);
    {
      std::lock_guard<std::mutex> lock(mu_);
      states_[i].draining = false;
      if (loaded.ok()) {
        // A replica that recovered enough to complete a cutover is
        // healthy again regardless of the last probe round.
        states_[i].probe_ok = true;
      } else if (loaded.code() != StatusCode::kDataLoss) {
        // Persistent read failure: keep the replica out of the rotation
        // until a probe sees it healthy again.
        states_[i].probe_ok = false;
      }
    }
    if (loaded.ok()) {
      count("ok");
    } else if (loaded.code() == StatusCode::kDataLoss) {
      // Corrupt batch: this replica keeps serving its previous version.
      count("rejected");
      SIGLOG(WARNING) << "replica " << i << " rejected batch v" << version
                      << " for retailer " << retailer << ": "
                      << loaded.ToString();
    } else {
      count("error");
      SIGLOG(WARNING) << "replica " << i << " cutover failed for retailer "
                      << retailer << ": " << loaded.ToString();
    }
  }
  return OkStatus();
}

Status ReplicatedStoreGroup::RollbackRetailer(data::RetailerId retailer,
                                              int64_t version) {
  std::vector<bool> alive;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ReplicaState& s : states_) alive.push_back(s.alive);
  }
  SIGMUND_RETURN_IF_ERROR(
      replicas_[0]->RollbackRetailer(retailer, version));
  for (int i = 1; i < num_replicas(); ++i) {
    if (!alive[i]) continue;
    // Best-effort on followers: a replica that never retained `version`
    // (e.g. it was dead when that batch shipped) keeps its current batch.
    Status rolled = replicas_[i]->RollbackRetailer(retailer, version);
    if (!rolled.ok()) {
      SIGLOG(WARNING) << "replica " << i << " cannot roll retailer "
                      << retailer << " back to v" << version << ": "
                      << rolled.ToString();
    }
  }
  metrics_->GetCounter("serving_rollbacks_total")->Add(1);
  return OkStatus();
}

void ReplicatedStoreGroup::KillReplica(int replica) {
  std::lock_guard<std::mutex> lock(mu_);
  states_[replica].alive = false;
}

void ReplicatedStoreGroup::ReviveReplica(int replica) {
  std::lock_guard<std::mutex> lock(mu_);
  states_[replica].alive = true;
  states_[replica].draining = false;
  states_[replica].probe_ok = true;
}

bool ReplicatedStoreGroup::ReplicaAlive(int replica) const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_[replica].alive;
}

int ReplicatedStoreGroup::ServingReplicas() const {
  std::lock_guard<std::mutex> lock(mu_);
  int count = 0;
  for (const ReplicaState& s : states_) {
    if (s.alive && !s.draining && s.probe_ok) ++count;
  }
  return count;
}

Status ReplicatedStoreGroup::WriteHeartbeats(sfs::SharedFileSystem* fs,
                                             const RetryPolicy& policy) {
  std::vector<bool> alive;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ReplicaState& s : states_) alive.push_back(s.alive);
  }
  for (int i = 0; i < num_replicas(); ++i) {
    const std::string path = HeartbeatPath(i);
    if (alive[i]) {
      // Best-effort: a lost heartbeat shows up as a failed probe, which
      // is exactly what it should look like.
      (void)RetryWithPolicy(policy, nullptr, [&] {
        return fs->Write(path, "ok");
      });
    } else {
      (void)fs->Delete(path);  // a dead replica stops heartbeating
    }
  }
  return OkStatus();
}

void ReplicatedStoreGroup::ProbeReplicas(const sfs::SharedFileSystem& fs,
                                         const RetryPolicy& policy) {
  for (int i = 0; i < num_replicas(); ++i) {
    StatusOr<std::string> beat =
        RetryWithPolicy<std::string>(policy, nullptr, [&] {
          return fs.Read(HeartbeatPath(i));
        });
    std::lock_guard<std::mutex> lock(mu_);
    states_[i].probe_ok = beat.ok();
    if (!beat.ok()) {
      metrics_->GetCounter("serving_replica_probe_failures_total")->Add(1);
    }
  }
}

}  // namespace sigmund::serving
