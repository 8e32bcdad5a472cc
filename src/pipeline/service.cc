#include "pipeline/service.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/model.h"
#include "pipeline/config_record.h"
#include "retrieval/artifact.h"

namespace sigmund::pipeline {

namespace {

using Op = RunLedger::Op;

// --- Stage-commit payload codecs (DESIGN.md §13). Payloads are replay
// data, not archival formats: each stage encodes exactly what the resumed
// run needs to skip the stage (restore its outputs) or cross-check a
// deterministic re-run against what the crashed process committed.

// Comma-joined retailer ids (a std::set or an ordered std::vector).
template <typename Ids>
std::string JoinIds(const Ids& ids) {
  std::string out;
  for (data::RetailerId id : ids) {
    if (!out.empty()) out += ',';
    out += StrFormat("%d", id);
  }
  return out;
}

bool DecodeIdList(const std::string& text,
                  std::vector<data::RetailerId>* ids) {
  ids->clear();
  if (text.empty()) return true;
  for (const std::string& piece : StrSplit(text, ',')) {
    int64_t value = 0;
    if (!ParseInt64(piece, &value)) return false;
    ids->push_back(static_cast<data::RetailerId>(value));
  }
  return true;
}

std::string EncodeShardHomes(
    const std::map<data::RetailerId, std::string>& homes) {
  BinaryWriter writer;
  writer.Write<uint64_t>(homes.size());
  for (const auto& [retailer, cell] : homes) {
    writer.Write<int32_t>(retailer);
    writer.WriteString(cell);
  }
  return writer.Take();
}

bool DecodeShardHomes(const std::string& bytes,
                      std::map<data::RetailerId, std::string>* homes) {
  BinaryReader reader(bytes);
  uint64_t count = 0;
  if (!reader.Read(&count)) return false;
  std::map<data::RetailerId, std::string> parsed;
  for (uint64_t i = 0; i < count; ++i) {
    int32_t retailer = 0;
    std::string cell;
    if (!reader.Read(&retailer) || !reader.ReadString(&cell)) return false;
    parsed[static_cast<data::RetailerId>(retailer)] = std::move(cell);
  }
  if (!reader.Done()) return false;
  homes->swap(parsed);
  return true;
}

std::string EncodeSelect(double mean_best_map,
                         const std::map<data::RetailerId, double>& best_map,
                         const std::set<data::RetailerId>& degraded) {
  BinaryWriter writer;
  writer.Write<double>(mean_best_map);
  writer.Write<uint64_t>(best_map.size());
  for (const auto& [retailer, map_at_10] : best_map) {
    writer.Write<int32_t>(retailer);
    writer.Write<double>(map_at_10);
    writer.Write<uint8_t>(degraded.count(retailer) > 0 ? 1 : 0);
  }
  return writer.Take();
}

bool DecodeSelect(const std::string& bytes, double* mean_best_map,
                  std::map<data::RetailerId, double>* best_map,
                  std::set<data::RetailerId>* degraded) {
  BinaryReader reader(bytes);
  uint64_t count = 0;
  if (!reader.Read(mean_best_map) || !reader.Read(&count)) return false;
  std::map<data::RetailerId, double> parsed_map;
  std::set<data::RetailerId> parsed_degraded;
  for (uint64_t i = 0; i < count; ++i) {
    int32_t retailer = 0;
    double map_at_10 = 0.0;
    uint8_t is_degraded = 0;
    if (!reader.Read(&retailer) || !reader.Read(&map_at_10) ||
        !reader.Read(&is_degraded)) {
      return false;
    }
    parsed_map[static_cast<data::RetailerId>(retailer)] = map_at_10;
    if (is_degraded != 0) {
      parsed_degraded.insert(static_cast<data::RetailerId>(retailer));
    }
  }
  if (!reader.Done()) return false;
  best_map->swap(parsed_map);
  degraded->swap(parsed_degraded);
  return true;
}

// ConfigRecord::Serialize uses %.17g for the metric doubles, so the text
// round-trip is lossless — the restored records warm-start the next
// incremental sweep bit-identically.
std::string EncodeResults(const std::vector<ConfigRecord>& results) {
  std::string out;
  for (const ConfigRecord& record : results) {
    out += record.Serialize();
    out += '\n';
  }
  return out;
}

StatusOr<std::vector<ConfigRecord>> DecodeResults(const std::string& text) {
  std::vector<ConfigRecord> results;
  for (const std::string& line : StrSplit(text, '\n')) {
    if (line.empty()) continue;
    StatusOr<ConfigRecord> record = ConfigRecord::Deserialize(line);
    SIGMUND_RETURN_IF_ERROR(record.status());
    results.push_back(*std::move(record));
  }
  return results;
}

// FNV-1a over the serialized plan: the plan is cheap to recompute
// deterministically, so the ledger stores only a fingerprint to
// cross-check the resumed run against.
uint64_t FingerprintPlan(const std::vector<ConfigRecord>& plan) {
  uint64_t hash = 14695981039346656037ull;
  for (const ConfigRecord& record : plan) {
    const std::string bytes = record.Serialize() + "\n";
    for (unsigned char c : bytes) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

// Parses "<prefix>r<id>.v<NNNNNN>" into (retailer, version). Returns
// false for anything else under the directory (day batch files, tmp
// partials, unrelated artifacts).
bool ParseVersionFilePath(const std::string& path, const std::string& dir,
                          data::RetailerId* retailer, int64_t* version) {
  if (path.size() <= dir.size() || path.compare(0, dir.size(), dir) != 0) {
    return false;
  }
  std::string_view rest = std::string_view(path).substr(dir.size());
  if (rest.empty() || rest[0] != 'r') return false;
  rest.remove_prefix(1);
  const size_t dot = rest.find(".v");
  if (dot == std::string_view::npos) return false;
  int64_t id = 0, v = 0;
  if (!ParseInt64(rest.substr(0, dot), &id)) return false;
  if (!ParseInt64(rest.substr(dot + 2), &v)) return false;
  *retailer = static_cast<data::RetailerId>(id);
  *version = v;
  return true;
}

// Records `store`'s version chain for `retailer` in a snapshot, unless
// the chain is still pristine.
template <typename Store>
void SnapshotChain(const Store& store, data::RetailerId retailer,
                   std::map<data::RetailerId, VersionChainState>* chains) {
  VersionChainState chain;
  chain.active = store.RetailerVersion(retailer);
  chain.next_version = store.NextVersion(retailer);
  chain.retained = store.RetainedVersions(retailer);
  if (chain.active != 0 || chain.next_version != 1 ||
      !chain.retained.empty()) {
    (*chains)[retailer] = std::move(chain);
  }
}

}  // namespace

// Everything the journaled rollout protocol needs to know about one
// serving plane. Both planes share one rollout unit (RollOut) and one
// recovery loop (RehydratePlane); only publishing a version's bytes and
// the batch plane's follower cutover differ.
template <typename Store>
struct SigmundService::Plane {
  const char* name;  // kill-point prefix and orphan-GC kind
  const char* dir;   // directory of the immutable version files
  std::string (*version_path)(data::RetailerId, int64_t);
  Op intent, canary, activate, discard;
  Store* store;
  StatusOr<int64_t> (Store::*stage)(data::RetailerId,
                                    const sfs::SharedFileSystem&,
                                    const std::string&, const RetryPolicy&,
                                    sfs::ReliableIoCounters*, int64_t);
  RecoveredPlane RecoveredDay::*recovered;
  std::map<data::RetailerId, VersionChainState> ServiceSnapshot::*chains;
  // Activation also cuts the follower replicas over (batch plane).
  bool cutover_followers;
};

SigmundService::Plane<serving::RecommendationStore>
SigmundService::BatchPlane() {
  return {.name = "batch", .dir = "recommendations/",
          .version_path = &RecommendationVersionPath,
          .intent = Op::kBatchStageIntent, .canary = Op::kBatchCanary,
          .activate = Op::kBatchActivate, .discard = Op::kBatchDiscard,
          .store = store_group_->primary(),
          .stage = &serving::RecommendationStore::StageRetailerFromFile,
          .recovered = &RecoveredDay::batch,
          .chains = &ServiceSnapshot::store_versions,
          .cutover_followers = true};
}

SigmundService::Plane<retrieval::OnlineRetrievalReader>
SigmundService::IndexPlane() {
  return {.name = "index", .dir = "retrieval/",
          .version_path = &retrieval::IndexArtifactVersionPath,
          .intent = Op::kIndexStageIntent, .canary = Op::kIndexCanary,
          .activate = Op::kIndexActivate, .discard = Op::kIndexDiscard,
          .store = retrieval_reader_.get(),
          .stage = &retrieval::OnlineRetrievalReader::StageFromFile,
          .recovered = &RecoveredDay::index,
          .chains = &ServiceSnapshot::index_versions,
          .cutover_followers = false};
}

std::string DailyReport::ToString() const {
  std::string out = StrFormat(
      "%s sweep: retailers=%d (new=%d) models=%d mean_best_map=%.4f "
      "checkpoints=%lld preemptions=%lld restores=%lld model_loads=%lld "
      "items=%lld map_attempts=%lld map_failures=%lld "
      "reduce_attempts=%lld reduce_failures=%lld "
      "quality_regressions=%d shard_bytes_moved=%lld "
      "sfs_retries=%lld corruptions_detected=%lld corruptions_healed=%lld "
      "corrupt_checkpoints_skipped=%lld corrupt_batches_rejected=%lld "
      "faults_injected=%lld",
      full_sweep ? "full" : "incremental", retailers, new_retailers,
      models_trained, mean_best_map,
      static_cast<long long>(checkpoints_written),
      static_cast<long long>(preemptions),
      static_cast<long long>(restored_from_checkpoint),
      static_cast<long long>(model_loads),
      static_cast<long long>(items_scored),
      static_cast<long long>(map_attempts),
      static_cast<long long>(map_failures),
      static_cast<long long>(reduce_attempts),
      static_cast<long long>(reduce_failures), quality_regressions,
      static_cast<long long>(shard_bytes_moved),
      static_cast<long long>(sfs_retries),
      static_cast<long long>(corruptions_detected),
      static_cast<long long>(corruptions_healed),
      static_cast<long long>(corrupt_checkpoints_skipped),
      static_cast<long long>(corrupt_batches_rejected),
      static_cast<long long>(faults_injected));
  if (!stage_wall_micros.empty()) {
    out += StrFormat("\n  wall: total=%.1fms",
                     static_cast<double>(total_wall_micros) / 1000.0);
    for (const auto& [stage, micros] : stage_wall_micros) {
      out += StrFormat(" %s=%.1fms", stage.c_str(),
                       static_cast<double>(micros) / 1000.0);
    }
    if (simulated_train_micros > 0) {
      out += StrFormat(" (simulated_train=%.1fs)",
                       static_cast<double>(simulated_train_micros) / 1e6);
    }
  }
  out += StrFormat(
      "\n  churn: evictions=%lld grace_checkpoints=%lld hard=%lld "
      "escalations=%lld budget_exhausted=%lld deadline_exceeded=%lld "
      "degraded_retailers=%d backups=%lld backups_won=%lld "
      "breaker_trips=%lld fallbacks_served=%lld",
      static_cast<long long>(evictions),
      static_cast<long long>(eviction_grace_checkpoints),
      static_cast<long long>(hard_evictions),
      static_cast<long long>(priority_escalations),
      static_cast<long long>(preemption_budget_exhausted),
      static_cast<long long>(deadline_exceeded), degraded_retailers,
      static_cast<long long>(map_backup_attempts),
      static_cast<long long>(map_backups_won),
      static_cast<long long>(breaker_trips),
      static_cast<long long>(fallbacks_served));
  out += StrFormat(
      "\n  rollout: canary_promotions=%lld canary_rollbacks=%lld "
      "replica_cutovers=%lld cutovers_skipped=%lld failovers=%lld "
      "hedged_reads=%lld",
      static_cast<long long>(canary_promotions),
      static_cast<long long>(canary_rollbacks),
      static_cast<long long>(replica_cutovers),
      static_cast<long long>(replica_cutovers_skipped),
      static_cast<long long>(replica_failovers),
      static_cast<long long>(hedged_reads));
  out += StrFormat(
      "\n  retrieval: indexes_built=%d promotions=%lld rollbacks=%lld "
      "corrupt_rejected=%lld requests(materialized=%lld "
      "online_retrieval=%lld fallback=%lld)",
      retrieval_indexes_built, static_cast<long long>(retrieval_promotions),
      static_cast<long long>(retrieval_rollbacks),
      static_cast<long long>(corrupt_indexes_rejected),
      static_cast<long long>(requests_materialized),
      static_cast<long long>(requests_online_retrieval),
      static_cast<long long>(requests_fallback));
  out += StrFormat(
      "\n  overload: shed=%lld brownouts=%lld hedges_suppressed=%lld "
      "retry_budget_exhausted=%lld canary_ignored=%lld",
      static_cast<long long>(requests_shed),
      static_cast<long long>(brownout_serves),
      static_cast<long long>(hedges_suppressed),
      static_cast<long long>(retry_budget_exhausted),
      static_cast<long long>(canary_samples_ignored));
  out += StrFormat(
      "\n  dataqual: quarantined=%d feed_quarantines=%lld feed_warns=%lld "
      "releases=%lld",
      quarantined_retailers, static_cast<long long>(feed_quarantines),
      static_cast<long long>(feed_warns),
      static_cast<long long>(quarantine_releases));
  // Per-run deltas only: a day run after a recovery earlier in the
  // service's life must print the same line as the same day in an
  // uninterrupted run (cumulative GC totals would differ).
  if (ledger_appends > 0 || recovered_day) {
    out += StrFormat(
        "\n  ledger: appends=%lld units_skipped=%lld recovered=%d",
        static_cast<long long>(ledger_appends),
        static_cast<long long>(replay_units_skipped), recovered_day ? 1 : 0);
  }
  if (!slo_json.empty()) {
    out += StrFormat(
        "\n  slo: firing=%d fired=%lld resolved=%lld",
        slo_objectives_firing, static_cast<long long>(slo_alerts_fired),
        static_cast<long long>(slo_alerts_resolved));
  }
  return out;
}

SigmundService::SigmundService(sfs::SharedFileSystem* fs,
                               const Options& options)
    : fs_(fs), options_(options), monitor_(options.quality) {
  clock_ = options_.clock != nullptr ? options_.clock : RealClock::Get();
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics_ = owned_metrics_.get();
  }
  if (options_.tracer != nullptr) {
    tracer_ = options_.tracer;
  } else {
    owned_tracer_ = std::make_unique<obs::Tracer>(clock_);
    tracer_ = owned_tracer_.get();
  }
  io_.SetMetrics(metrics_, clock_);
  monitor_.set_metrics(metrics_);
  if (options_.dataqual.enabled) {
    sentry_ = std::make_unique<dataqual::DataSentry>(
        options_.dataqual.sentry, metrics_);
  }
  ledger_ = std::make_unique<RunLedger>(fs_, options_.ledger.ledger,
                                        options_.sfs_retry, &io_, metrics_);
  crash_ = options_.crash;
  store_group_ = std::make_unique<serving::ReplicatedStoreGroup>(
      options_.serving, metrics_);
  canary_ = std::make_unique<CanaryController>(options_.canary, metrics_);
  retrieval_reader_ = std::make_unique<retrieval::OnlineRetrievalReader>(
      options_.retrieval.reader, metrics_);
  if (options_.retrieval.enabled) {
    // The retrieval canary inherits the batch canary's thresholds and
    // oracle but gates the other plane: its canary arm reads the staged
    // ANN index, its control arm the live materialized plane — exactly
    // the comparison the A/B route will serve if the index activates.
    CanaryController::Options retrieval_canary = options_.canary;
    retrieval_canary.plane = "retrieval";
    retrieval_canary.serve_hook =
        [this](data::RetailerId retailer, const core::Context& context,
               int64_t version) {
          CanaryController::CanaryServe serve;
          StatusOr<std::vector<core::ScoredItem>> result =
              version != 0 ? retrieval_reader_->ServeContextAtVersion(
                                 retailer, context, version)
                           : store_group_->primary()->ServeContext(retailer,
                                                                   context);
          serve.status = result.status();
          if (result.ok()) serve.items = *std::move(result);
          return serve;
        };
    retrieval_canary_ =
        std::make_unique<CanaryController>(retrieval_canary, metrics_);
  }
}

void SigmundService::UpsertRetailer(const data::RetailerData* data) {
  registry_.Upsert(data);
}

Status SigmundService::SelectBestModels(
    const std::vector<ConfigRecord>& results, DailyReport* report,
    std::map<data::RetailerId, double>* best_map,
    std::set<data::RetailerId>* degraded) {
  std::map<data::RetailerId, const ConfigRecord*> best;
  for (const ConfigRecord& record : results) {
    if (!record.trained) continue;
    auto [it, inserted] = best.emplace(record.retailer, &record);
    if (!inserted && record.map_at_10 > it->second->map_at_10) {
      it->second = &record;
    }
  }
  double map_sum = 0.0;
  for (const auto& [retailer, record] : best) {
    if (record->degraded) degraded->insert(retailer);
    // Unwrap + CRC-check the trained model, then re-frame it at the best-
    // model path with a read-back-verified write: a torn copy can never
    // become the model inference loads.
    StatusOr<std::string> bytes = sfs::ReadChecksummedFile(
        fs_, record->model_path, options_.sfs_retry, &io_);
    if (!bytes.ok()) return bytes.status();
    SIGMUND_RETURN_IF_ERROR(sfs::WriteChecksummedFile(
        fs_, BestModelPath(retailer), *bytes, options_.sfs_retry, &io_));
    map_sum += record->map_at_10;
    (*best_map)[retailer] = record->map_at_10;
  }
  if (!best.empty()) {
    report->mean_best_map = map_sum / static_cast<double>(best.size());
  }
  return OkStatus();
}

ServiceSnapshot SigmundService::BuildSnapshot() const {
  ServiceSnapshot snapshot;
  snapshot.days_run = days_run_ + 1;
  snapshot.previous_results.reserve(previous_results_.size());
  for (const ConfigRecord& record : previous_results_) {
    snapshot.previous_results.push_back(record.Serialize());
  }
  snapshot.shard_homes = shard_homes_;
  snapshot.monitor_state = monitor_.SerializeState();
  if (sentry_ != nullptr) snapshot.sentry_state = sentry_->SerializeState();
  for (data::RetailerId id : registry_.Ids()) {
    SnapshotChain(*store_group_->primary(), id, &snapshot.store_versions);
    SnapshotChain(*retrieval_reader_, id, &snapshot.index_versions);
  }
  return snapshot;
}

Status SigmundService::DeleteVersionFile(const std::string& path) {
  return RetryWithPolicy(options_.sfs_retry, &io_.retry, [&] {
    Status status = fs_->Delete(path);
    return status.code() == StatusCode::kNotFound ? OkStatus() : status;
  });
}

template <typename Store>
StatusOr<int64_t> SigmundService::DeleteUnretainedVersions(
    const Plane<Store>& plane, const std::string& prefix) {
  StatusOr<std::vector<std::string>> paths =
      RetryWithPolicy<std::vector<std::string>>(
          options_.sfs_retry, &io_.retry, [&] { return fs_->List(prefix); });
  SIGMUND_RETURN_IF_ERROR(paths.status());
  int64_t deleted = 0;
  for (const std::string& path : *paths) {
    data::RetailerId retailer = 0;
    int64_t version = 0;
    // Skips tmp partials and anything else that is not a version file.
    if (!ParseVersionFilePath(path, plane.dir, &retailer, &version)) continue;
    const std::vector<int64_t> retained =
        plane.store->RetainedVersions(retailer);
    if (std::find(retained.begin(), retained.end(), version) !=
        retained.end()) {
      continue;
    }
    SIGMUND_RETURN_IF_ERROR(DeleteVersionFile(path));
    ++deleted;
  }
  return deleted;
}

Status SigmundService::Journal(Op op, data::RetailerId retailer,
                               int64_t version, std::string tag,
                               std::string payload) {
  return ledger_->Append({.op = op, .day = days_run_, .retailer = retailer,
                          .version = version, .tag = std::move(tag),
                          .payload = std::move(payload)});
}

template <typename Store>
StatusOr<bool> SigmundService::RollOut(
    const Plane<Store>& plane, data::RetailerId retailer,
    const std::function<Status(const std::string&)>& publish,
    const CanaryController* canary, const RecoveredDay* rec) {
  auto crash_at = [&](const char* seam) {
    if (crash_ != nullptr) {
      MaybeCrash(crash_, StrFormat("%s.%s", plane.name, seam).c_str());
    }
  };
  Store* store = plane.store;
  const int64_t version = store->NextVersion(retailer);
  const std::string vpath = plane.version_path(retailer, version);
  SIGMUND_RETURN_IF_ERROR(Journal(plane.intent, retailer, version, "", vpath));
  crash_at("intent");
  // Two-phase publish: a crash before the rename leaves only a sweepable
  // tmp partial, never a half-written version under the live name.
  SIGMUND_RETURN_IF_ERROR(publish(TmpPath(vpath)));
  crash_at("tmp_written");
  SIGMUND_RETURN_IF_ERROR(RetryWithPolicy(options_.sfs_retry, &io_.retry, [&] {
    return fs_->Rename(TmpPath(vpath), vpath);
  }));
  StatusOr<int64_t> staged = (store->*plane.stage)(
      retailer, *fs_, vpath, options_.sfs_retry, &io_, version);
  crash_at("staged");
  if (!staged.ok()) {
    if (staged.status().code() != StatusCode::kDataLoss) {
      return staged.status();
    }
    SIGLOG(WARNING) << "rejecting corrupt " << plane.name << " v" << version
                    << " for retailer " << retailer << ": "
                    << staged.status().ToString();
    SIGMUND_RETURN_IF_ERROR(DeleteVersionFile(vpath));
    SIGMUND_RETURN_IF_ERROR(
        Journal(plane.discard, retailer, version, "corrupt"));
    return false;
  }
  std::string verdict = "promoted";
  if (canary != nullptr) {
    const std::string* replayed = nullptr;
    if (rec != nullptr) {
      const auto& logged = (rec->*plane.recovered).canary;
      auto it = logged.find({retailer, version});
      if (it != logged.end()) replayed = &it->second;
    }
    if (replayed != nullptr) {
      // The crashed process already drew this verdict and made it
      // durable; reuse it rather than re-simulating.
      verdict = *replayed;
    } else {
      StatusOr<const data::RetailerData*> retailer_data =
          registry_.Get(retailer);
      if (retailer_data.ok()) {
        const CanaryController::Outcome outcome =
            canary->Evaluate(retailer, *store_group_->primary(), version,
                             **retailer_data, days_run_);
        if (outcome.verdict == CanaryController::Verdict::kRolledBack) {
          verdict = "rolled_back";
          SIGLOG(WARNING) << plane.name << " canary rolled back v" << version
                          << " for retailer " << retailer
                          << ": canary_ctr=" << outcome.CanaryCtr()
                          << " control_ctr=" << outcome.ControlCtr()
                          << "; the live version keeps serving";
        }
      }
      SIGMUND_RETURN_IF_ERROR(
          Journal(plane.canary, retailer, version, verdict));
    }
    crash_at("canary_logged");
  }
  if (verdict == "rolled_back") {
    SIGMUND_RETURN_IF_ERROR(store->DiscardVersion(retailer, version));
    SIGMUND_RETURN_IF_ERROR(DeleteVersionFile(vpath));
    SIGMUND_RETURN_IF_ERROR(
        Journal(plane.discard, retailer, version, "rolled_back"));
    crash_at("discarded");
    return true;
  }
  SIGMUND_RETURN_IF_ERROR(store->ActivateVersion(retailer, version));
  if (plane.cutover_followers) {
    SIGMUND_RETURN_IF_ERROR(store_group_->CutoverFollowersFromFile(
        retailer, *fs_, vpath, version, options_.sfs_retry, &io_));
  }
  SIGMUND_RETURN_IF_ERROR(Journal(plane.activate, retailer, version));
  crash_at("activated");
  // Retire the version files this activation evicted from the chain.
  StatusOr<int64_t> retired = DeleteUnretainedVersions(
      plane, StrFormat("%sr%d.v", plane.dir, retailer));
  if (!retired.ok()) return retired.status();
  if (*retired > 0) {
    metrics_->GetCounter("pipeline_version_files_retired_total")
        ->Add(*retired);
  }
  return true;
}

template <typename Store>
Status SigmundService::RehydratePlane(
    const Plane<Store>& plane, const ServiceSnapshot& snapshot,
    const std::vector<RunLedger::Entry>& entries, RecoveredDay* rec,
    RecoveryReport* recovery) {
  RecoveredPlane& committed = rec->*plane.recovered;
  for (const RunLedger::Entry& entry : entries) {
    // Intents without a matching commit are exactly the debris the
    // orphan GC removes; nothing to replay.
    if (entry.op == plane.canary) {
      committed.canary[{entry.retailer, entry.version}] = entry.tag;
    } else if (entry.op == plane.activate) {
      committed.activated[entry.retailer] = entry.version;
    } else if (entry.op == plane.discard) {
      committed.discarded[entry.retailer] = entry.version;
    }
  }
  // Snapshot chains first (retained versions re-staged pinned, in
  // ascending order, then the active pointer), then this day's
  // already-committed rollouts on top — so the in-memory version chain
  // lands exactly where the crashed process had it.
  Store* store = plane.store;
  auto stage = [&](data::RetailerId retailer, int64_t version) {
    return (store->*plane.stage)(retailer, *fs_,
                                 plane.version_path(retailer, version),
                                 options_.sfs_retry, &io_, version);
  };
  std::set<data::RetailerId> touched;
  for (const auto& [retailer, chain] : snapshot.*plane.chains) {
    touched.insert(retailer);
    for (int64_t version : chain.retained) {
      StatusOr<int64_t> staged = stage(retailer, version);
      if (!staged.ok()) {
        // A retained version evicted by a committed same-day activation
        // has already lost its file; only the active version is
        // load-bearing.
        if (staged.status().code() == StatusCode::kNotFound &&
            version != chain.active) {
          continue;
        }
        return staged.status();
      }
      ++recovery->versions_rehydrated;
    }
    if (chain.active > 0) {
      SIGMUND_RETURN_IF_ERROR(store->ActivateVersion(retailer, chain.active));
    }
    store->EnsureNextVersion(retailer, chain.next_version);
  }
  for (const auto& [retailer, version] : committed.activated) {
    touched.insert(retailer);
    SIGMUND_RETURN_IF_ERROR(stage(retailer, version).status());
    SIGMUND_RETURN_IF_ERROR(store->ActivateVersion(retailer, version));
    ++recovery->versions_rehydrated;
  }
  // A canary-discarded version consumed a version number even though no
  // file survives; restore the counter so the resumed (and every later)
  // day assigns the same numbers a crash-free run would.
  for (const auto& [retailer, version] : committed.discarded) {
    store->EnsureNextVersion(retailer, version + 1);
  }
  if (plane.cutover_followers && store_group_->num_replicas() > 1) {
    for (data::RetailerId retailer : touched) {
      const int64_t active = store->RetailerVersion(retailer);
      if (active == 0) continue;
      SIGMUND_RETURN_IF_ERROR(store_group_->CutoverFollowersFromFile(
          retailer, *fs_, plane.version_path(retailer, active), active,
          options_.sfs_retry, &io_));
    }
  }
  // Every version file the rehydrated chain does not retain is debris:
  // an uncommitted intent's copy, or an eviction whose file delete the
  // crash preempted.
  StatusOr<int64_t> orphans = DeleteUnretainedVersions(plane, plane.dir);
  SIGMUND_RETURN_IF_ERROR(orphans.status());
  if (*orphans > 0) {
    metrics_->GetCounter("pipeline_orphans_gc_total", {{"kind", plane.name}})
        ->Add(*orphans);
    recovery->orphan_versions_deleted += *orphans;
  }
  return OkStatus();
}

StatusOr<SigmundService::RecoveryReport> SigmundService::RecoverDay() {
  RecoveryReport recovery;
  // 1. Sweep `*.tmp` partials everywhere the two-phase commit idiom
  // writes them. Safe (and useful) on a clean first boot: a tmp file is
  // uncommitted by construction.
  const std::string state_prefix = options_.ledger.ledger.state_dir + "/";
  for (const std::string& prefix :
       {std::string("recommendations/"), std::string("retrieval/"),
        state_prefix}) {
    StatusOr<int64_t> swept =
        sfs::SweepPartialFiles(fs_, prefix, options_.sfs_retry, &io_);
    SIGMUND_RETURN_IF_ERROR(swept.status());
    recovery.tmp_files_swept += *swept;
  }
  if (recovery.tmp_files_swept > 0) {
    metrics_->GetCounter("pipeline_orphans_gc_total", {{"kind", "tmp"}})
        ->Add(recovery.tmp_files_swept);
  }
  metrics_->GetCounter("pipeline_recoveries_total")->Add(1);

  // 2. Rehydrate durable control state from the newest readable snapshot
  // (a corrupt one is skipped inside ReadLatestSnapshot; kNotFound means
  // a true first boot).
  ServiceSnapshot snapshot;
  StatusOr<std::pair<int, std::string>> latest =
      ledger_->ReadLatestSnapshot();
  if (latest.ok()) {
    StatusOr<ServiceSnapshot> decoded =
        ServiceSnapshot::Deserialize(latest->second);
    SIGMUND_RETURN_IF_ERROR(decoded.status());
    snapshot = *std::move(decoded);
    recovery.snapshot_day = latest->first;
    days_run_ = snapshot.days_run;
    previous_results_.clear();
    for (const std::string& line : snapshot.previous_results) {
      StatusOr<ConfigRecord> record = ConfigRecord::Deserialize(line);
      SIGMUND_RETURN_IF_ERROR(record.status());
      previous_results_.push_back(*std::move(record));
    }
    shard_homes_ = snapshot.shard_homes;
    if (!snapshot.monitor_state.empty()) {
      SIGMUND_RETURN_IF_ERROR(monitor_.RestoreState(snapshot.monitor_state));
    }
    if (sentry_ != nullptr && !snapshot.sentry_state.empty()) {
      SIGMUND_RETURN_IF_ERROR(sentry_->RestoreState(snapshot.sentry_state));
    }
    // force_full_sweep_ is deliberately not persisted: it records an
    // operator's *request*, not pipeline state; a crashed coordinator's
    // operator re-issues it.
  } else if (latest.status().code() != StatusCode::kNotFound) {
    return latest.status();
  }
  recovery.day = days_run_;

  // 3. Decode the current day's log. kDayStart without kDayComplete
  // means the crashed process died mid-day: the next RunDaily resumes
  // it, replaying committed work from these entries.
  RecoveredDay rec;
  rec.day = days_run_;
  std::vector<RunLedger::Entry> entries;
  StatusOr<RunLedger::DecodeResult> day_log = ledger_->ReadDay(days_run_);
  if (day_log.ok()) {
    entries = std::move(day_log->entries);
    recovery.ledger_entries = static_cast<int64_t>(entries.size());
    recovery.torn_tail_dropped = day_log->torn_tail;
    bool started = false;
    bool complete = false;
    for (const RunLedger::Entry& entry : entries) {
      started |= entry.op == Op::kDayStart;
      complete |= entry.op == Op::kDayComplete;
      if (entry.op == Op::kStageCommit) {
        rec.committed_stages[entry.tag] = entry.payload;
      }
    }
    rec.resumed = started && !complete;
  } else if (day_log.status().code() != StatusCode::kNotFound) {
    return day_log.status();
  }

  // 4. Rebuild both serving planes' version chains (and the batch
  // plane's follower replicas) from the snapshot plus this day's
  // committed rollouts, and delete the version files no chain retains.
  SIGMUND_RETURN_IF_ERROR(
      RehydratePlane(BatchPlane(), snapshot, entries, &rec, &recovery));
  SIGMUND_RETURN_IF_ERROR(
      RehydratePlane(IndexPlane(), snapshot, entries, &rec, &recovery));

  // 5. Retention, with the restored day counter. Normally the day-end
  // retention already ran and these are no-ops, but a crash inside the
  // day-boundary window (snapshot committed, retention not yet run)
  // would otherwise strand old snapshots that a crash-free run deletes —
  // and retention always deletes *everything* below its cutoff, so
  // re-running it here converges the crashed filesystem to the clean
  // run's bytes no matter where in the window the process died.
  SIGMUND_RETURN_IF_ERROR(ledger_->RetireOldDays(days_run_));
  SIGMUND_RETURN_IF_ERROR(ledger_->RetireOldSnapshots(days_run_));

  // 6. Re-open the mid-flight day so resumed appends extend (and
  // tail-truncate) the durable log.
  if (rec.resumed) {
    ledger_->ResumeDay(days_run_, entries);
    recovery.resumed = true;
    recovery_ = std::move(rec);
    SIGLOG(INFO) << "recovered mid-flight day " << days_run_ << " ("
                 << recovery.ledger_entries << " ledger entries, "
                 << recovery.versions_rehydrated << " versions rehydrated, "
                 << recovery.orphan_versions_deleted << " orphans removed)";
  }
  return recovery;
}

StatusOr<DailyReport> SigmundService::RunDaily() {
  DailyReport report;
  report.retailers = registry_.size();
  if (registry_.size() == 0) {
    return FailedPreconditionError("no retailers registered");
  }

  // The report's counter fields are per-run deltas of registry counters:
  // snapshot now, instrument everything, snapshot again at the end.
  const obs::RegistrySnapshot before = metrics_->Snapshot();
  obs::Span day_span =
      tracer_->StartSpan(StrFormat("run_daily/day%d", days_run_));
  // Ends a stage span and records its wall time in the report and in the
  // pipeline_stage_micros{stage=...} histogram.
  auto end_stage = [&](obs::Span& span, const char* stage) {
    span.End();
    report.stage_wall_micros.emplace_back(stage, span.DurationMicros());
    metrics_->GetHistogram("pipeline_stage_micros", {{"stage", stage}})
        ->Observe(static_cast<double>(span.DurationMicros()));
  };

  // --- Ledger plumbing (DESIGN.md §13): a day RecoverDay found
  // mid-flight replays its committed work instead of redoing it.
  RecoveredDay* rec = nullptr;
  if (recovery_.has_value() && recovery_->resumed &&
      recovery_->day == days_run_) {
    rec = &*recovery_;
  }
  report.recovered_day = rec != nullptr;
  const int64_t appends_before = ledger_->appends();
  int64_t units_skipped = 0;

  // Payload of a stage already committed this day (replay), or null.
  auto stage_committed = [&](const char* tag) -> const std::string* {
    if (rec == nullptr) return nullptr;
    auto it = rec->committed_stages.find(tag);
    return it == rec->committed_stages.end() ? nullptr : &it->second;
  };
  // Durably commits a stage, then exposes the stage-boundary kill-point.
  auto commit_stage = [&](const char* tag, std::string payload,
                          const char* point) -> Status {
    SIGMUND_RETURN_IF_ERROR(
        Journal(Op::kStageCommit, -1, 0, tag, std::move(payload)));
    MaybeCrash(crash_, point);
    return OkStatus();
  };

  if (rec == nullptr) {
    ledger_->StartDay(days_run_);
    SIGMUND_RETURN_IF_ERROR(Journal(Op::kDayStart));
  }
  MaybeCrash(crash_, "day.start");

  // --- Data placement: rebalance shards across cells and account the
  // migrated bytes (§IV-B1). Replay: shard migration is durable, so a
  // committed stage restores the placement map and skips the move.
  if (!options_.placement.cells.empty()) {
    obs::Span span = tracer_->StartSpan("placement");
    if (const std::string* payload = stage_committed("placement")) {
      if (!DecodeShardHomes(*payload, &shard_homes_)) {
        return InternalError("ledger: undecodable placement payload");
      }
      ++units_skipped;
    } else {
      DataPlacementPlanner placement_planner(fs_, options_.placement);
      DataPlacementPlanner::Plan placement =
          placement_planner.PlanPlacement(registry_);
      int64_t bytes_before = transfer_ledger_.total_bytes();
      SIGMUND_RETURN_IF_ERROR(placement_planner.Materialize(
          registry_, placement, shard_homes_, &transfer_ledger_,
          options_.sfs_retry, &io_));
      report.shard_bytes_moved =
          transfer_ledger_.total_bytes() - bytes_before;
      shard_homes_ = std::move(placement.home_cell);
      SIGMUND_RETURN_IF_ERROR(commit_stage(
          "placement", EncodeShardHomes(shard_homes_), "placement.done"));
    }
    end_stage(span, "placement");
  }

  // --- Data-plane sentry (DESIGN.md §12): profile every retailer's feed
  // and judge it before any training is planned. Quarantined retailers
  // are cut out of the sweep, inference, and index rebuild below; they
  // keep serving their last-known-good batch/index until a later feed
  // passes. Replay: Observe mutates sentry state, so the stage re-runs
  // (deterministic from the snapshot-restored state) and a committed
  // entry only cross-checks the verdict set.
  std::set<data::RetailerId> quarantined;
  std::string dataqual_json;
  if (sentry_ != nullptr) {
    obs::Span span = tracer_->StartSpan("dataqual");
    std::string retailers_json;
    for (data::RetailerId id : registry_.Ids()) {
      StatusOr<const data::RetailerData*> data = registry_.Get(id);
      if (!data.ok()) continue;
      const dataqual::FeedProfile feed_profile =
          dataqual::BuildFeedProfile(**data);
      const dataqual::DataSentry::Observation observation =
          sentry_->Observe(feed_profile);
      if (observation.verdict == dataqual::DataSentry::Verdict::kQuarantine) {
        quarantined.insert(id);
        SIGLOG(WARNING) << "dataqual quarantined retailer " << id << " ("
                        << feed_profile.ToString() << ")";
        for (const dataqual::DataSentry::Finding& finding :
             observation.findings) {
          SIGLOG(WARNING) << "  " << finding.ToString();
        }
      } else if (observation.released) {
        SIGLOG(INFO) << "dataqual released retailer " << id
                     << " from quarantine";
      }
      // The profile JSON only carries non-pass verdicts: at 10k retailers
      // a per-retailer dump would dwarf the rest of the profile.
      if (observation.verdict != dataqual::DataSentry::Verdict::kPass ||
          observation.released) {
        std::string findings_json;
        for (const dataqual::DataSentry::Finding& finding :
             observation.findings) {
          if (!findings_json.empty()) findings_json += ",";
          findings_json += StrFormat(
              "{\"check\":\"%s\",\"severity\":\"%s\",\"value\":%.6f,"
              "\"threshold\":%.6f}",
              obs::JsonEscape(finding.check).c_str(),
              dataqual::VerdictName(finding.severity), finding.value,
              finding.threshold);
        }
        if (!retailers_json.empty()) retailers_json += ",";
        retailers_json += StrFormat(
            "\"%d\":{\"verdict\":\"%s\",\"released\":%s,\"findings\":[%s]}",
            id, dataqual::VerdictName(observation.verdict),
            observation.released ? "true" : "false", findings_json.c_str());
      }
    }
    report.quarantined_retailers = sentry_->QuarantinedCount();
    dataqual_json = StrFormat(
        "{\"quarantined_retailers\":%d,\"retailers\":{%s}}",
        report.quarantined_retailers, retailers_json.c_str());
    if (const std::string* payload = stage_committed("dataqual")) {
      if (JoinIds(quarantined) != *payload) {
        return InternalError(
            "ledger: dataqual replay diverged from committed verdicts");
      }
    } else {
      SIGMUND_RETURN_IF_ERROR(
          commit_stage("dataqual", JoinIds(quarantined), "dataqual.done"));
    }
    end_stage(span, "dataqual");
  }

  // --- Plan the sweep. Replay: pure function of restored state, so it
  // re-runs and cross-checks a fingerprint against the committed one.
  const bool periodic_restart =
      options_.full_sweep_every_days > 0 && days_run_ > 0 &&
      days_run_ % options_.full_sweep_every_days == 0;
  const bool full =
      previous_results_.empty() || force_full_sweep_ || periodic_restart;
  force_full_sweep_ = false;
  report.full_sweep = full;

  SweepPlanner planner(options_.sweep);
  std::vector<ConfigRecord> plan;
  {
    obs::Span span = tracer_->StartSpan("plan_sweep");
    if (full) {
      plan = planner.PlanFullSweep(registry_);
    } else {
      plan = planner.PlanIncrementalSweep(registry_, previous_results_);
    }
    // Quarantined retailers train nothing today: their last-good models
    // keep serving, and their previous sweep results are carried forward
    // (below) so the release day warm-starts instead of re-gridding.
    if (!quarantined.empty()) {
      std::erase_if(plan, [&](const ConfigRecord& record) {
        return quarantined.count(record.retailer) > 0;
      });
    }
    if (!full) {
      // Count retailers that got a full grid (new sign-ups).
      std::map<data::RetailerId, int> per_retailer;
      for (const ConfigRecord& record : plan) ++per_retailer[record.retailer];
      for (const auto& [retailer, count] : per_retailer) {
        if (count > options_.sweep.incremental_top_k) ++report.new_retailers;
      }
    }
    const std::string fingerprint = StrFormat(
        "full=%d;n=%d;fp=%llu", full ? 1 : 0, static_cast<int>(plan.size()),
        static_cast<unsigned long long>(FingerprintPlan(plan)));
    if (const std::string* payload = stage_committed("plan_sweep")) {
      if (fingerprint != *payload) {
        return InternalError(
            "ledger: sweep plan replay diverged from committed fingerprint");
      }
    } else {
      SIGMUND_RETURN_IF_ERROR(
          commit_stage("plan_sweep", fingerprint, "plan_sweep.done"));
    }
    end_stage(span, "plan_sweep");
  }

  // --- Train: one MapReduce, or one per cell when data placement routes
  // each retailer's work to the cell holding its shard (§IV-B1).
  // Replay: the committed payload carries every trained ConfigRecord, so
  // the resumed run restores the results and skips the MapReduce — the
  // big recovery-time win (models and checkpoints are already durable).
  obs::Span train_span = tracer_->StartSpan("train");
  StatusOr<std::vector<ConfigRecord>> results = std::vector<ConfigRecord>();
  // Drops the train-stage undo copies (below); idempotent, called from
  // both the commit path and the replay path so a crash between the
  // commit append and the cleanup converges on resume.
  auto clear_train_undo = [&]() -> Status {
    for (const ConfigRecord& record : plan) {
      SIGMUND_RETURN_IF_ERROR(DeleteVersionFile(record.model_path + ".prev"));
    }
    return OkStatus();
  };
  if (const std::string* payload = stage_committed("train")) {
    results = DecodeResults(*payload);
    if (!results.ok()) return results.status();
    SIGMUND_RETURN_IF_ERROR(clear_train_undo());
    ++units_skipped;
  } else {
    // Undo log (DESIGN.md §13): incremental records warm-start from —
    // and then overwrite — yesterday's model files, so training is not
    // idempotent once it starts publishing. Before the first model
    // write, copy every file today's plan will overwrite aside; a
    // resumed run whose train stage never committed restores them
    // first, so its re-run reads exactly the bytes the crashed attempt
    // read and trains bit-identically.
    if (stage_committed("train_undo") != nullptr) {
      for (const ConfigRecord& record : plan) {
        const std::string prev = record.model_path + ".prev";
        StatusOr<std::string> bytes =
            RetryWithPolicy<std::string>(options_.sfs_retry, &io_.retry,
                                         [&] { return fs_->Read(prev); });
        if (bytes.ok()) {
          SIGMUND_RETURN_IF_ERROR(
              RetryWithPolicy(options_.sfs_retry, &io_.retry, [&] {
                return fs_->Write(record.model_path, *bytes);
              }));
        } else if (bytes.status().code() == StatusCode::kNotFound) {
          // No undo copy means the file did not exist when the crashed
          // attempt started; a warm-start record must see it absent
          // again or it would warm from the half-published model.
          if (record.warm_start) {
            SIGMUND_RETURN_IF_ERROR(DeleteVersionFile(record.model_path));
          }
        } else {
          return bytes.status();
        }
      }
      // A mid-train crash can also strand per-task checkpoints; a
      // resumed task would warm-resume from them instead of training
      // from scratch, diverging from the uninterrupted run.
      StatusOr<std::vector<std::string>> stale =
          RetryWithPolicy<std::vector<std::string>>(
              options_.sfs_retry, &io_.retry,
              [&] { return fs_->List("checkpoints/"); });
      SIGMUND_RETURN_IF_ERROR(stale.status());
      for (const std::string& path : *stale) {
        SIGMUND_RETURN_IF_ERROR(DeleteVersionFile(path));
      }
    } else {
      for (const ConfigRecord& record : plan) {
        StatusOr<std::string> bytes = RetryWithPolicy<std::string>(
            options_.sfs_retry, &io_.retry,
            [&] { return fs_->Read(record.model_path); });
        if (!bytes.ok()) {
          if (bytes.status().code() == StatusCode::kNotFound) continue;
          return bytes.status();
        }
        SIGMUND_RETURN_IF_ERROR(
            RetryWithPolicy(options_.sfs_retry, &io_.retry, [&] {
              return fs_->Write(record.model_path + ".prev", *bytes);
            }));
      }
      SIGMUND_RETURN_IF_ERROR(
          commit_stage("train_undo", "", "train.undo_logged"));
    }
    results = [&] {
      // All training counters (checkpoints, preemptions, restores,
      // retries, corruptions, ...) reach the report through the registry
      // mirrors the jobs maintain — no per-job bookkeeping here.
      if (!options_.placement.cells.empty()) {
        MultiCellTrainingJob::Options multi_options;
        multi_options.cells = options_.placement.cells;
        multi_options.per_cell = options_.training;
        multi_options.per_cell.metrics = metrics_;
        multi_options.per_cell.tracer = tracer_;
        multi_options.per_cell.clock = clock_;
        MultiCellTrainingJob training(fs_, &registry_, multi_options);
        return training.Run(plan, shard_homes_);
      }
      TrainingJob::Options training_options = options_.training;
      training_options.metrics = metrics_;
      training_options.tracer = tracer_;
      training_options.clock = clock_;
      TrainingJob training(fs_, &registry_, training_options);
      return training.Run(plan);
    }();
    MaybeCrash(crash_, "train.ran");
    if (results.ok()) {
      SIGMUND_RETURN_IF_ERROR(
          commit_stage("train", EncodeResults(*results), "train.done"));
      SIGMUND_RETURN_IF_ERROR(clear_train_undo());
      MaybeCrash(crash_, "train.undo_cleared");
    }
  }
  end_stage(train_span, "train");
  if (!results.ok()) return results.status();
  report.models_trained = static_cast<int>(results->size());

  // Persist sweep results per retailer (debuggability). Replay: the
  // writes are idempotent whole-file overwrites; a committed stage skips
  // them outright.
  {
    obs::Span span = tracer_->StartSpan("persist_sweep_results");
    if (stage_committed("persist_sweep") != nullptr) {
      ++units_skipped;
    } else {
      std::map<data::RetailerId, std::string> blobs;
      for (const ConfigRecord& record : *results) {
        blobs[record.retailer] += record.Serialize();
        blobs[record.retailer] += '\n';
      }
      for (const auto& [retailer, blob] : blobs) {
        // Debug artifact: plain text (not framed) so it stays greppable,
        // but still retried through transient storage errors.
        const std::string path = SweepResultPath(retailer);
        const std::string& data = blob;
        SIGMUND_RETURN_IF_ERROR(
            RetryWithPolicy(options_.sfs_retry, &io_.retry, [&] {
              return fs_->Write(path, data);
            }));
      }
      SIGMUND_RETURN_IF_ERROR(
          commit_stage("persist_sweep", "", "persist_sweep.done"));
    }
    end_stage(span, "persist_sweep_results");
  }

  // --- Model selection + quality guardrail. Replay: the best-model
  // copies are durable, so a committed stage restores best_map /
  // degraded / mean MAP from the payload and skips the copies.
  std::map<data::RetailerId, double> best_map;
  std::set<data::RetailerId> degraded;
  {
    obs::Span span = tracer_->StartSpan("select_models");
    if (const std::string* payload = stage_committed("select_models")) {
      if (!DecodeSelect(*payload, &report.mean_best_map, &best_map,
                        &degraded)) {
        return InternalError("ledger: undecodable select_models payload");
      }
      report.degraded_retailers = static_cast<int>(degraded.size());
      ++units_skipped;
    } else {
      SIGMUND_RETURN_IF_ERROR(
          SelectBestModels(*results, &report, &best_map, &degraded));
      report.degraded_retailers = static_cast<int>(degraded.size());
      // Mirrored so the degradation shows up in RunProfile snapshots.
      if (!degraded.empty()) {
        metrics_->GetCounter("pipeline_degraded_retailers_total")
            ->Add(static_cast<int64_t>(degraded.size()));
      }
      MaybeCrash(crash_, "select_models.ran");
      SIGMUND_RETURN_IF_ERROR(commit_stage(
          "select_models",
          EncodeSelect(report.mean_best_map, best_map, degraded),
          "select_models.done"));
    }
    end_stage(span, "select_models");
  }
  // Quarantined retailers trained nothing, so today's results carry no
  // records for them. Splice their previous records forward: without
  // them, the release day would plan a full grid (cold start) instead of
  // warm-starting from the last-good checkpoint.
  std::vector<ConfigRecord> carried;
  if (!quarantined.empty()) {
    for (const ConfigRecord& record : previous_results_) {
      if (quarantined.count(record.retailer) > 0) carried.push_back(record);
    }
  }
  previous_results_ = std::move(results).value();
  previous_results_.insert(previous_results_.end(),
                           std::make_move_iterator(carried.begin()),
                           std::make_move_iterator(carried.end()));
  // A quarantined retailer is degraded for rollout purposes: even if a
  // fresh artifact for it existed, the serving planes below would keep
  // its previous version.
  degraded.insert(quarantined.begin(), quarantined.end());

  // Quality guardrail. Replay: Record mutates the monitor, so the stage
  // re-runs (deterministic from the snapshot-restored baselines) and a
  // committed entry cross-checks the hold-back set.
  std::set<data::RetailerId> hold_back;
  if (options_.guard_quality) {
    obs::Span span = tracer_->StartSpan("quality_guard");
    for (const auto& [retailer, map_at_10] : best_map) {
      if (monitor_.Record(retailer, map_at_10) ==
          QualityMonitor::Verdict::kRegressed) {
        hold_back.insert(retailer);
        SIGLOG(WARNING) << "retailer " << retailer
                        << " regressed: map=" << map_at_10
                        << " trailing best=" << monitor_.TrailingBest(retailer)
                        << "; keeping previous recommendations";
      }
    }
    report.quality_regressions = static_cast<int>(hold_back.size());
    if (const std::string* payload = stage_committed("quality_guard")) {
      if (JoinIds(hold_back) != *payload) {
        return InternalError(
            "ledger: quality-guard replay diverged from committed verdicts");
      }
    } else {
      SIGMUND_RETURN_IF_ERROR(commit_stage("quality_guard",
                                           JoinIds(hold_back),
                                           "quality_guard.done"));
    }
    end_stage(span, "quality_guard");
  }

  // --- Inference. Counters flow through the registry, like training.
  // Replay: batch files are durable, so a committed stage restores the
  // materialized-retailer list and skips the MapReduce.
  obs::Span inference_span = tracer_->StartSpan("inference");
  // Quarantined retailers are excluded: no fresh batch is materialized,
  // so the store and retrieval loops below never see them and their
  // last-known-good versions keep serving untouched.
  std::vector<data::RetailerId> serve_ids = registry_.Ids();
  if (!quarantined.empty()) {
    std::erase_if(serve_ids, [&](data::RetailerId id) {
      return quarantined.count(id) > 0;
    });
  }
  std::vector<data::RetailerId> materialized_ids;
  if (const std::string* payload = stage_committed("inference")) {
    if (!DecodeIdList(*payload, &materialized_ids)) {
      return InternalError("ledger: undecodable inference payload");
    }
    ++units_skipped;
    end_stage(inference_span, "inference");
  } else {
    InferenceJob::Options inference_options = options_.inference;
    inference_options.metrics = metrics_;
    inference_options.tracer = tracer_;
    inference_options.clock = clock_;
    InferenceJob inference(fs_, &registry_, inference_options);
    auto recommendations = inference.Run(serve_ids);
    end_stage(inference_span, "inference");
    if (!recommendations.ok()) return recommendations.status();
    for (const auto& [retailer, recs] : *recommendations) {
      (void)recs;
      materialized_ids.push_back(retailer);
    }
    MaybeCrash(crash_, "inference.ran");
    SIGMUND_RETURN_IF_ERROR(commit_stage(
        "inference", JoinIds(materialized_ids), "inference.done"));
  }

  // --- Safe rollout into the serving planes (DESIGN.md §7, §11, §13).
  // For each retailer that passed the offline gates, each plane runs one
  // journaled rollout unit (RollOut): publish an immutable versioned
  // file, stage it (the live version keeps serving), canary it on
  // simulated live traffic when configured, then activate it (pointer
  // flip) or discard it. Regressed and degraded retailers keep serving
  // their live version — one with no live version still gets its fresh
  // one, so availability never drops below 100%. A version that fails
  // its checksum is rejected and the live one keeps serving; a bad
  // refresh never takes down serving. On a resumed day, units the
  // crashed run already committed are skipped.
  //
  // True when `plane` has nothing to roll out for `retailer` today.
  auto settled = [&](const auto& plane, data::RetailerId retailer) {
    if ((hold_back.count(retailer) > 0 || degraded.count(retailer) > 0) &&
        plane.store->RetailerVersion(retailer) > 0) {
      return true;
    }
    if (rec == nullptr) return false;
    const RecoveredPlane& done = rec->*plane.recovered;
    if (done.activated.count(retailer) == 0 &&
        done.discarded.count(retailer) == 0) {
      return false;
    }
    ++units_skipped;
    return true;
  };

  // Batch plane: each unit publishes a copy of the day's materialized
  // batch and, on activation, cuts the follower replicas over one at a
  // time. The batch canary needs a live batch to compare against.
  obs::Span store_span = tracer_->StartSpan("store_load");
  const Plane<serving::RecommendationStore> batch = BatchPlane();
  if (store_group_->num_replicas() > 1) {
    // Refresh replica health before cutting over: live replicas
    // heartbeat through the (possibly fault-injected) SFS, probes read
    // the heartbeats back.
    SIGMUND_RETURN_IF_ERROR(
        store_group_->WriteHeartbeats(fs_, options_.sfs_retry));
    store_group_->ProbeReplicas(*fs_, options_.sfs_retry);
  }
  for (data::RetailerId retailer : materialized_ids) {
    if (settled(batch, retailer)) continue;
    StatusOr<std::string> raw =
        RetryWithPolicy<std::string>(options_.sfs_retry, &io_.retry, [&] {
          return fs_->Read(RecommendationPath(retailer));
        });
    if (!raw.ok()) return raw.status();
    const CanaryController* canary =
        options_.canary.enabled && batch.store->RetailerVersion(retailer) > 0
            ? canary_.get()
            : nullptr;
    SIGMUND_RETURN_IF_ERROR(
        RollOut(
            batch, retailer,
            [&](const std::string& tmp) {
              return RetryWithPolicy(options_.sfs_retry, &io_.retry,
                                     [&] { return fs_->Write(tmp, *raw); });
            },
            canary, rec)
            .status());
  }
  end_stage(store_span, "store_load");

  // Index plane (DESIGN.md §11): each unit snapshots the retailer's best
  // model into a CRC-framed ANN index artifact. Its canary compares the
  // staged index against the live materialized plane, so it gates every
  // index, the first one included.
  if (options_.retrieval.enabled) {
    obs::Span retrieval_span = tracer_->StartSpan("retrieval_index");
    const Plane<retrieval::OnlineRetrievalReader> index = IndexPlane();
    for (data::RetailerId retailer : materialized_ids) {
      if (settled(index, retailer)) continue;
      StatusOr<const data::RetailerData*> retailer_data =
          registry_.Get(retailer);
      if (!retailer_data.ok()) continue;
      StatusOr<std::string> model_bytes = sfs::ReadChecksummedFile(
          fs_, BestModelPath(retailer), options_.sfs_retry, &io_);
      if (!model_bytes.ok()) {
        // No (readable) best model — e.g. corrupt frame or a retailer
        // served purely from a previous day. The index just isn't
        // refreshed; never fail the run over it.
        if (model_bytes.status().code() == StatusCode::kDataLoss ||
            model_bytes.status().code() == StatusCode::kNotFound) {
          continue;
        }
        return model_bytes.status();
      }
      StatusOr<core::BprModel> model = core::BprModel::Deserialize(
          *model_bytes, &(*retailer_data)->catalog);
      if (!model.ok()) {
        SIGLOG(WARNING) << "retailer " << retailer
                        << ": best model undecodable, skipping index build: "
                        << model.status().ToString();
        continue;
      }
      retrieval::IndexArtifact artifact = retrieval::BuildArtifactFromModel(
          retailer, *model, options_.retrieval.ann);
      if (options_.retrieval.build_hook_for_testing) {
        options_.retrieval.build_hook_for_testing(retailer, &artifact);
      }
      StatusOr<bool> staged = RollOut(
          index, retailer,
          [&](const std::string& tmp) {
            return sfs::WriteChecksummedFile(fs_, tmp, artifact.Serialize(),
                                             options_.sfs_retry, &io_);
          },
          retrieval_canary_.get(), rec);
      if (!staged.ok()) return staged.status();
      metrics_
          ->GetCounter("retrieval_index_builds_total",
                       {{"outcome", *staged ? "ok" : "rejected"}})
          ->Add(1);
    }
    end_stage(retrieval_span, "retrieval_index");
  }

  // --- Day boundary: two-phase control-state snapshot, then the
  // kDayComplete marker, then retention. Order matters — a crash before
  // the rename leaves only a sweepable tmp, a crash before kDayComplete
  // resumes an all-committed day that replays to the same bytes, a crash
  // before retention is converged by the next boundary.
  {
    obs::Span span = tracer_->StartSpan("commit_day");
    const ServiceSnapshot snapshot = BuildSnapshot();
    SIGMUND_RETURN_IF_ERROR(ledger_->WriteSnapshotTmp(snapshot.Serialize()));
    MaybeCrash(crash_, "day.snapshot_tmp");
    SIGMUND_RETURN_IF_ERROR(ledger_->CommitSnapshot(days_run_ + 1));
    MaybeCrash(crash_, "day.snapshot_committed");
    SIGMUND_RETURN_IF_ERROR(Journal(Op::kDayComplete));
    MaybeCrash(crash_, "day.complete");
    SIGMUND_RETURN_IF_ERROR(ledger_->RetireOldDays(days_run_));
    SIGMUND_RETURN_IF_ERROR(ledger_->RetireOldSnapshots(days_run_ + 1));
    end_stage(span, "commit_day");
  }
  report.ledger_appends = ledger_->appends() - appends_before;
  report.replay_units_skipped = units_skipped;
  if (units_skipped > 0) {
    metrics_->GetCounter("pipeline_replay_units_skipped_total")
        ->Add(units_skipped);
  }

  // --- Mirror chaos-layer fault totals into the registry, after the last
  // SFS access of the run so the day-boundary I/O's faults land in this
  // run's report. Self-correcting: only the portion not already recorded
  // (e.g. by a fault injector wired live via SetMetrics) is added, so the
  // registry's sum across label sets always equals the injector's own
  // total.
  if (options_.injected_faults != nullptr) {
    const int64_t recorded =
        metrics_->Snapshot().CounterValue("sfs_faults_injected_total");
    metrics_->GetCounter("sfs_faults_injected_total")
        ->Add(options_.injected_faults->total() - recorded);
  }

  day_span.End();
  report.total_wall_micros = day_span.DurationMicros();

  // --- The report's counters are the run's registry deltas: everything
  // the jobs and I/O layers recorded between the two snapshots.
  const obs::RegistrySnapshot after = metrics_->Snapshot();
  auto delta = [&](std::string_view name, const obs::Labels& labels) {
    return after.CounterValue(name, labels) -
           before.CounterValue(name, labels);
  };
  const obs::Labels none;
  report.checkpoints_written = delta("training_checkpoints_written_total", none);
  report.preemptions = delta("training_preemptions_total", none);
  report.restored_from_checkpoint = delta("training_restores_total", none);
  report.corrupt_checkpoints_skipped =
      delta("training_corrupt_checkpoints_skipped_total", none);
  report.simulated_train_micros = delta("training_simulated_micros_total", none);
  report.model_loads = delta("inference_model_loads_total", none);
  report.items_scored = delta("inference_items_scored_total", none);
  report.map_attempts =
      delta("mapreduce_task_attempts_total", {{"phase", "map"}});
  report.map_failures =
      delta("mapreduce_task_failures_total", {{"phase", "map"}});
  report.reduce_attempts =
      delta("mapreduce_task_attempts_total", {{"phase", "reduce"}});
  report.reduce_failures =
      delta("mapreduce_task_failures_total", {{"phase", "reduce"}});
  report.sfs_retries = delta("sfs_retries_total", none);
  report.corruptions_detected = delta("sfs_corruptions_detected_total", none);
  report.corruptions_healed = delta("sfs_corruptions_healed_total", none);
  report.corrupt_batches_rejected =
      delta("serving_batch_loads_total", {{"outcome", "rejected"}});
  report.faults_injected = delta("sfs_faults_injected_total", none);
  report.evictions = delta("training_evictions_total", none);
  report.eviction_grace_checkpoints =
      delta("training_eviction_grace_checkpoints_total", none);
  report.hard_evictions = delta("training_hard_evictions_total", none);
  report.priority_escalations =
      delta("training_priority_escalations_total", none);
  report.preemption_budget_exhausted =
      delta("training_preemption_budget_exhausted_total", none);
  report.deadline_exceeded = delta("training_deadline_exceeded_total", none);
  report.map_backup_attempts =
      delta("mapreduce_backup_attempts_total", none);
  report.map_backups_won = delta("mapreduce_backups_won_total", none);
  // Canary verdicts are split by plane: the batch ladder and the online
  // retrieval ladder roll out (and back) independently.
  report.canary_promotions = delta(
      "canary_verdicts_total", {{"plane", "batch"}, {"verdict", "promoted"}});
  report.canary_rollbacks =
      delta("canary_verdicts_total",
            {{"plane", "batch"}, {"verdict", "rolled_back"}});
  report.retrieval_promotions =
      delta("canary_verdicts_total",
            {{"plane", "retrieval"}, {"verdict", "promoted"}});
  report.retrieval_rollbacks =
      delta("canary_verdicts_total",
            {{"plane", "retrieval"}, {"verdict", "rolled_back"}});
  report.retrieval_indexes_built = static_cast<int>(
      delta("retrieval_index_builds_total", {{"outcome", "ok"}}));
  report.corrupt_indexes_rejected =
      delta("retrieval_index_builds_total", {{"outcome", "rejected"}});
  report.replica_cutovers =
      delta("serving_replica_cutovers_total", {{"outcome", "ok"}});
  report.replica_cutovers_skipped =
      delta("serving_replica_cutovers_total", {{"outcome", "skipped_dead"}});
  // Serving health is cumulative at snapshot time: requests arrive
  // between daily runs, so a per-run delta would always read zero.
  report.breaker_trips = after.CounterValue("serving_breaker_trips_total", none);
  report.fallbacks_served = after.CounterValue("serving_fallbacks_total", none);
  report.replica_failovers =
      after.CounterValue("serving_replica_failovers_total", none);
  report.hedged_reads =
      after.CounterValue("serving_hedged_reads_total", none);
  report.requests_shed = after.CounterValue("serving_shed_total", none);
  report.brownout_serves =
      after.CounterValue("serving_brownout_total", none);
  report.hedges_suppressed =
      after.CounterValue("serving_hedges_suppressed_total", none);
  report.retry_budget_exhausted =
      after.CounterValue("serving_retry_budget_exhausted_total", none);
  report.canary_samples_ignored =
      delta("canary_samples_ignored_total", none);
  // Data-plane sentry verdicts, per-run deltas like the rest of the
  // pipeline counters.
  report.feed_quarantines =
      delta("dataqual_verdicts_total", {{"verdict", "quarantine"}});
  report.feed_warns = delta("dataqual_verdicts_total", {{"verdict", "warn"}});
  report.quarantine_releases = delta("dataqual_releases_total", none);
  // Per-path request counts: cumulative like the rest of serving health
  // (traffic arrives between runs, so per-run deltas would read zero).
  report.requests_materialized =
      after.CounterValue("serving_requests_total", {{"path", "materialized"}});
  report.requests_online_retrieval = after.CounterValue(
      "serving_requests_total", {{"path", "online_retrieval"}});
  report.requests_fallback =
      after.CounterValue("serving_requests_total", {{"path", "fallback"}});
  // Orphan GC is cumulative (startup GC happens before any run; a delta
  // would always be zero) and deliberately absent from ToString.
  for (const char* kind : {"tmp", "batch", "index"}) {
    report.orphans_gc +=
        after.CounterValue("pipeline_orphans_gc_total", {{"kind", kind}});
  }

  // --- SLO evaluation: burn rates over the run-end snapshot. Runs after
  // the pipeline finished, so it is passive by construction.
  if (options_.slo != nullptr) {
    options_.slo->Evaluate(after, clock_->NowMicros());
    report.slo_alerts_fired = options_.slo->FiredTotal();
    report.slo_alerts_resolved = options_.slo->ResolvedTotal();
    report.slo_objectives_firing = options_.slo->FiringCount();
    report.slo_json = options_.slo->ToJson();
  }

  // --- Machine-readable run profile: this run's span tree + the full
  // metrics snapshot.
  obs::RunProfile profile = obs::BuildRunProfile(
      StrFormat("day%d", days_run_), *tracer_, day_span.id(), after);
  profile.stages = report.stage_wall_micros;
  if (!report.slo_json.empty()) profile.slo_json = report.slo_json;
  if (!dataqual_json.empty()) profile.dataqual_json = dataqual_json;
  report.profile_json = profile.ToJson();

  recovery_.reset();
  ++days_run_;
  return report;
}

}  // namespace sigmund::pipeline
