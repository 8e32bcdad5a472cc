#include "pipeline/service.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <type_traits>

#include "common/binary_io.h"
#include "common/hash.h"
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

bool DecodeResults(const std::string& text,
                   std::vector<ConfigRecord>* results) {
  std::vector<ConfigRecord> parsed;
  for (const std::string& line : StrSplit(text, '\n')) {
    if (line.empty()) continue;
    StatusOr<ConfigRecord> record = ConfigRecord::Deserialize(line);
    if (!record.ok()) return false;
    parsed.push_back(*std::move(record));
  }
  results->swap(parsed);
  return true;
}

// FNV-1a over the serialized plan: the plan is cheap to recompute
// deterministically, so the ledger stores only a fingerprint to
// cross-check the resumed run against.
uint64_t FingerprintPlan(const std::vector<ConfigRecord>& plan) {
  uint64_t hash = kFnv64OffsetBasis;
  for (const ConfigRecord& record : plan) {
    hash = Fnv1a64(record.Serialize() + "\n", hash);
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

// --- DailyReport as a view over the registry (DESIGN.md §5). Where a
// report counter's value comes from:
enum CounterSource {
  kDelta,       // the run's delta of a registry counter
  kCumulative,  // the counter's value at report time: serving traffic
                // arrives between runs, so a per-run delta would read 0
  kSetByRun,    // set by RunDaily itself (or the SLO engine)
};

// One DailyReport counter field: the report line that prints it ("" =
// the headline, null = none), its printf fragment, and its source.
struct ReportCounter {
  const char* line;
  const char* format;
  int64_t DailyReport::*field;
  CounterSource source;
  const char* metric = nullptr;
  obs::Labels labels = {};
};

using R = DailyReport;

// Every counter field of DailyReport, in print order.
const ReportCounter kReportCounters[] = {
    {"", " checkpoints=%lld", &R::checkpoints_written, kDelta,
     "training_checkpoints_written_total"},
    {"", " preemptions=%lld", &R::preemptions, kDelta,
     "training_preemptions_total"},
    {"", " restores=%lld", &R::restored_from_checkpoint, kDelta,
     "training_restores_total"},
    {"", " model_loads=%lld", &R::model_loads, kDelta,
     "inference_model_loads_total"},
    {"", " items=%lld", &R::items_scored, kDelta,
     "inference_items_scored_total"},
    {"", " map_attempts=%lld", &R::map_attempts, kDelta,
     "mapreduce_task_attempts_total", {{"phase", "map"}}},
    {"", " map_failures=%lld", &R::map_failures, kDelta,
     "mapreduce_task_failures_total", {{"phase", "map"}}},
    {"", " reduce_attempts=%lld", &R::reduce_attempts, kDelta,
     "mapreduce_task_attempts_total", {{"phase", "reduce"}}},
    {"", " reduce_failures=%lld", &R::reduce_failures, kDelta,
     "mapreduce_task_failures_total", {{"phase", "reduce"}}},
    {"", " quality_regressions=%lld", &R::quality_regressions, kSetByRun},
    {"", " shard_bytes_moved=%lld", &R::shard_bytes_moved, kSetByRun},
    {"", " sfs_retries=%lld", &R::sfs_retries, kDelta, "sfs_retries_total"},
    {"", " corruptions_detected=%lld", &R::corruptions_detected, kDelta,
     "sfs_corruptions_detected_total"},
    {"", " corruptions_healed=%lld", &R::corruptions_healed, kDelta,
     "sfs_corruptions_healed_total"},
    {"", " corrupt_checkpoints_skipped=%lld", &R::corrupt_checkpoints_skipped,
     kDelta, "training_corrupt_checkpoints_skipped_total"},
    {"", " corrupt_batches_rejected=%lld", &R::corrupt_batches_rejected,
     kDelta, "serving_batch_loads_total", {{"outcome", "rejected"}}},
    {"", " faults_injected=%lld", &R::faults_injected, kDelta,
     "sfs_faults_injected_total"},
    // Printed by the wall line, next to the stage timings.
    {nullptr, nullptr, &R::simulated_train_micros, kDelta,
     "training_simulated_micros_total"},
    {"churn", " evictions=%lld", &R::evictions, kDelta,
     "training_evictions_total"},
    {"churn", " grace_checkpoints=%lld", &R::eviction_grace_checkpoints,
     kDelta, "training_eviction_grace_checkpoints_total"},
    {"churn", " hard=%lld", &R::hard_evictions, kDelta,
     "training_hard_evictions_total"},
    {"churn", " escalations=%lld", &R::priority_escalations, kDelta,
     "training_priority_escalations_total"},
    {"churn", " budget_exhausted=%lld", &R::preemption_budget_exhausted,
     kDelta, "training_preemption_budget_exhausted_total"},
    {"churn", " deadline_exceeded=%lld", &R::deadline_exceeded, kDelta,
     "training_deadline_exceeded_total"},
    {"churn", " degraded_retailers=%lld", &R::degraded_retailers, kSetByRun},
    {"churn", " backups=%lld", &R::map_backup_attempts, kDelta,
     "mapreduce_backup_attempts_total"},
    {"churn", " backups_won=%lld", &R::map_backups_won, kDelta,
     "mapreduce_backups_won_total"},
    {"churn", " breaker_trips=%lld", &R::breaker_trips, kCumulative,
     "serving_breaker_trips_total"},
    {"churn", " fallbacks_served=%lld", &R::fallbacks_served, kCumulative,
     "serving_fallbacks_total"},
    {"rollout", " canary_promotions=%lld", &R::canary_promotions, kDelta,
     "canary_verdicts_total", {{"plane", "batch"}, {"verdict", "promoted"}}},
    {"rollout", " canary_rollbacks=%lld", &R::canary_rollbacks, kDelta,
     "canary_verdicts_total", {{"plane", "batch"}, {"verdict", "rolled_back"}}},
    {"rollout", " replica_cutovers=%lld", &R::replica_cutovers, kDelta,
     "serving_replica_cutovers_total", {{"outcome", "ok"}}},
    {"rollout", " cutovers_skipped=%lld", &R::replica_cutovers_skipped, kDelta,
     "serving_replica_cutovers_total", {{"outcome", "skipped_dead"}}},
    {"rollout", " failovers=%lld", &R::replica_failovers, kCumulative,
     "serving_replica_failovers_total"},
    {"rollout", " hedged_reads=%lld", &R::hedged_reads, kCumulative,
     "serving_hedged_reads_total"},
    {"retrieval", " indexes_built=%lld", &R::retrieval_indexes_built, kDelta,
     "retrieval_index_builds_total", {{"outcome", "ok"}}},
    {"retrieval", " promotions=%lld", &R::retrieval_promotions, kDelta,
     "canary_verdicts_total",
     {{"plane", "retrieval"}, {"verdict", "promoted"}}},
    {"retrieval", " rollbacks=%lld", &R::retrieval_rollbacks, kDelta,
     "canary_verdicts_total",
     {{"plane", "retrieval"}, {"verdict", "rolled_back"}}},
    {"retrieval", " corrupt_rejected=%lld", &R::corrupt_indexes_rejected,
     kDelta, "retrieval_index_builds_total", {{"outcome", "rejected"}}},
    {"retrieval", " requests(materialized=%lld", &R::requests_materialized,
     kCumulative, "serving_requests_total", {{"path", "materialized"}}},
    {"retrieval", " online_retrieval=%lld", &R::requests_online_retrieval,
     kCumulative, "serving_requests_total", {{"path", "online_retrieval"}}},
    {"retrieval", " fallback=%lld)", &R::requests_fallback, kCumulative,
     "serving_requests_total", {{"path", "fallback"}}},
    {"overload", " shed=%lld", &R::requests_shed, kCumulative,
     "serving_shed_total"},
    {"overload", " brownouts=%lld", &R::brownout_serves, kCumulative,
     "serving_brownout_total"},
    {"overload", " hedges_suppressed=%lld", &R::hedges_suppressed, kCumulative,
     "serving_hedges_suppressed_total"},
    {"overload", " retry_budget_exhausted=%lld", &R::retry_budget_exhausted,
     kCumulative, "serving_retry_budget_exhausted_total"},
    {"overload", " canary_ignored=%lld", &R::canary_samples_ignored, kDelta,
     "canary_samples_ignored_total"},
    {"dataqual", " quarantined=%lld", &R::quarantined_retailers, kSetByRun},
    {"dataqual", " feed_quarantines=%lld", &R::feed_quarantines, kDelta,
     "dataqual_verdicts_total", {{"verdict", "quarantine"}}},
    {"dataqual", " feed_warns=%lld", &R::feed_warns, kDelta,
     "dataqual_verdicts_total", {{"verdict", "warn"}}},
    {"dataqual", " releases=%lld", &R::quarantine_releases, kDelta,
     "dataqual_releases_total"},
    {"ledger", " appends=%lld", &R::ledger_appends, kDelta,
     "pipeline_ledger_appends_total"},
    {"ledger", " units_skipped=%lld", &R::replay_units_skipped, kDelta,
     "pipeline_replay_units_skipped_total"},
    // Summed over kinds. Never printed: a day after a recovery must print
    // the same report as the same day in an uninterrupted run.
    {nullptr, nullptr, &R::orphans_gc, kCumulative,
     "pipeline_orphans_gc_total"},
    {"slo", " firing=%lld", &R::slo_objectives_firing, kSetByRun},
    {"slo", " fired=%lld", &R::slo_alerts_fired, kSetByRun},
    {"slo", " resolved=%lld", &R::slo_alerts_resolved, kSetByRun},
};

// Appends the fragments of every counter printed on `line`.
void AppendCounters(const DailyReport& report, std::string_view line,
                    std::string* out) {
  for (const ReportCounter& counter : kReportCounters) {
    if (counter.line != nullptr && counter.line == line) {
      *out += StrFormat(counter.format,
                        static_cast<long long>(report.*counter.field));
    }
  }
}

// Fills every registry-backed counter of `report` from the run's two
// registry snapshots.
void FillCounters(const obs::RegistrySnapshot& before,
                  const obs::RegistrySnapshot& after, DailyReport* report) {
  for (const ReportCounter& counter : kReportCounters) {
    if (counter.source == kSetByRun) continue;
    int64_t value = after.CounterValue(counter.metric, counter.labels);
    if (counter.source == kDelta) {
      value -= before.CounterValue(counter.metric, counter.labels);
    }
    report->*counter.field = value;
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
      "%s sweep: retailers=%d (new=%d) models=%d mean_best_map=%.4f",
      full_sweep ? "full" : "incremental", retailers, new_retailers,
      models_trained, mean_best_map);
  AppendCounters(*this, "", &out);
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
  for (const char* line :
       {"churn", "rollout", "retrieval", "overload", "dataqual"}) {
    out += StrFormat("\n  %s:", line);
    AppendCounters(*this, line, &out);
  }
  if (ledger_appends > 0 || recovered_day) {
    out += "\n  ledger:";
    AppendCounters(*this, "ledger", &out);
    out += StrFormat(" recovered=%d", recovered_day ? 1 : 0);
  }
  if (!slo_json.empty()) {
    out += "\n  slo:";
    AppendCounters(*this, "slo", &out);
  }
  return out;
}

SigmundService::SigmundService(sfs::SharedFileSystem* fs,
                               const Options& options)
    : fs_(fs),
      options_(options),
      owned_metrics_(options.metrics == nullptr
                         ? std::make_unique<obs::MetricRegistry>()
                         : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_metrics_.get()),
      clock_(options.clock != nullptr ? options.clock : RealClock::Get()),
      io_(metrics_, clock_),
      monitor_(options.quality, metrics_) {
  if (options_.tracer != nullptr) {
    tracer_ = options_.tracer;
  } else {
    owned_tracer_ = std::make_unique<obs::Tracer>(clock_);
    tracer_ = owned_tracer_.get();
  }
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
  // A chain still pristine (never staged, counter untouched) is left out.
  auto record = [](VersionChainState chain, data::RetailerId id,
                   std::map<data::RetailerId, VersionChainState>* chains) {
    if (chain != VersionChainState{}) (*chains)[id] = std::move(chain);
  };
  for (data::RetailerId id : registry_.Ids()) {
    record(store_group_->primary()->State(id), id, &snapshot.store_versions);
    record(retrieval_reader_->State(id), id, &snapshot.index_versions);
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

void SigmundService::CrashPoint(const char* prefix, const char* seam) {
  if (crash_ != nullptr) {
    crash_->Hit(StrFormat("%s.%s", prefix, seam).c_str());
  }
}

template <typename Store>
StatusOr<bool> SigmundService::RollOut(
    const Plane<Store>& plane, data::RetailerId retailer,
    const std::function<Status(const std::string&)>& publish,
    const CanaryController* canary, const RecoveredDay* rec) {
  Store* store = plane.store;
  const int64_t version = store->NextVersion(retailer);
  const std::string vpath = plane.version_path(retailer, version);
  SIGMUND_RETURN_IF_ERROR(Journal(plane.intent, retailer, version, "", vpath));
  CrashPoint(plane.name, "intent");
  // Two-phase publish: a crash before the rename leaves only a sweepable
  // tmp partial, never a half-written version under the live name.
  SIGMUND_RETURN_IF_ERROR(publish(TmpPath(vpath)));
  CrashPoint(plane.name, "tmp_written");
  SIGMUND_RETURN_IF_ERROR(RetryWithPolicy(options_.sfs_retry, &io_.retry, [&] {
    return fs_->Rename(TmpPath(vpath), vpath);
  }));
  StatusOr<int64_t> staged = (store->*plane.stage)(
      retailer, *fs_, vpath, options_.sfs_retry, &io_, version);
  CrashPoint(plane.name, "staged");
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
    CrashPoint(plane.name, "canary_logged");
  }
  if (verdict == "rolled_back") {
    SIGMUND_RETURN_IF_ERROR(store->DiscardVersion(retailer, version));
    SIGMUND_RETURN_IF_ERROR(DeleteVersionFile(vpath));
    SIGMUND_RETURN_IF_ERROR(
        Journal(plane.discard, retailer, version, "rolled_back"));
    CrashPoint(plane.name, "discarded");
    return true;
  }
  SIGMUND_RETURN_IF_ERROR(store->ActivateVersion(retailer, version));
  if (plane.cutover_followers) {
    SIGMUND_RETURN_IF_ERROR(store_group_->CutoverFollowersFromFile(
        retailer, *fs_, vpath, version, options_.sfs_retry, &io_));
  }
  SIGMUND_RETURN_IF_ERROR(Journal(plane.activate, retailer, version));
  CrashPoint(plane.name, "activated");
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

Status SigmundService::RunStage(const DailyStage& stage, const StageBody& body,
                                const RecoveredDay* rec, DailyReport* report) {
  if (!body.enabled) return OkStatus();
  auto committed = [&](const std::string& tag) -> const std::string* {
    if (rec == nullptr) return nullptr;
    auto it = rec->committed_stages.find(tag);
    return it == rec->committed_stages.end() ? nullptr : &it->second;
  };
  // Durably commits `tag`, then exposes the kill-point "<stage>.<seam>".
  auto commit = [&](const std::string& tag, std::string payload,
                    const char* seam) -> Status {
    SIGMUND_RETURN_IF_ERROR(
        Journal(Op::kStageCommit, -1, 0, tag, std::move(payload)));
    CrashPoint(stage.tag, seam);
    return OkStatus();
  };
  obs::Span span = tracer_->StartSpan(stage.name);
  const Status status = [&]() -> Status {
    if (stage.tag == nullptr) return body.run().status();
    const std::string* payload = committed(stage.tag);
    if (payload != nullptr && stage.replay == DailyStage::Replay::kRestore) {
      if (body.restore && !body.restore(*payload)) {
        return InternalError(
            StrFormat("ledger: undecodable %s payload", stage.tag));
      }
      if (body.undo) SIGMUND_RETURN_IF_ERROR(body.undo->clear());
      metrics_->GetCounter("pipeline_replay_units_skipped_total")->Add(1);
      return OkStatus();
    }
    if (body.undo) {
      const std::string undo_tag = StrFormat("%s_undo", stage.tag);
      if (committed(undo_tag) != nullptr) {
        SIGMUND_RETURN_IF_ERROR(body.undo->rollback());
      } else {
        SIGMUND_RETURN_IF_ERROR(body.undo->log());
        SIGMUND_RETURN_IF_ERROR(commit(undo_tag, "", "undo_logged"));
      }
    }
    StatusOr<std::string> result = body.run();
    SIGMUND_RETURN_IF_ERROR(result.status());
    CrashPoint(stage.tag, "ran");
    if (payload != nullptr) {
      // kCrossCheck: determinism drift must fail loudly, not silently
      // fork the day.
      if (*result == *payload) return OkStatus();
      return InternalError(StrFormat(
          "ledger: %s replay diverged from its committed payload",
          stage.name));
    }
    SIGMUND_RETURN_IF_ERROR(commit(stage.tag, *std::move(result), "done"));
    if (body.undo) {
      SIGMUND_RETURN_IF_ERROR(body.undo->clear());
      CrashPoint(stage.tag, "undo_cleared");
    }
    return OkStatus();
  }();
  span.End();
  report->stage_wall_micros.emplace_back(stage.name, span.DurationMicros());
  metrics_->GetHistogram("pipeline_stage_micros", {{"stage", stage.name}})
      ->Observe(static_cast<double>(span.DurationMicros()));
  return status;
}

StatusOr<DailyReport> SigmundService::RunDaily() {
  DailyReport report;
  report.retailers = registry_.size();
  if (registry_.size() == 0) {
    return FailedPreconditionError("no retailers registered");
  }

  // The report's counters are per-run deltas of registry counters:
  // snapshot now, instrument everything, snapshot again at the end.
  const obs::RegistrySnapshot before = metrics_->Snapshot();
  obs::Span day_span =
      tracer_->StartSpan(StrFormat("run_daily/day%d", days_run_));

  // A day RecoverDay found mid-flight replays its committed work instead
  // of redoing it (DESIGN.md §13).
  RecoveredDay* rec = nullptr;
  if (recovery_.has_value() && recovery_->resumed &&
      recovery_->day == days_run_) {
    rec = &*recovery_;
  }
  report.recovered_day = rec != nullptr;
  if (rec == nullptr) {
    ledger_->StartDay(days_run_);
    SIGMUND_RETURN_IF_ERROR(Journal(Op::kDayStart));
  }
  MaybeCrash(crash_, "day.start");

  // What the stages hand each other down the day.
  std::set<data::RetailerId> quarantined;
  std::string dataqual_json;
  std::vector<ConfigRecord> plan, results;
  std::map<data::RetailerId, double> best_map;
  std::set<data::RetailerId> degraded, hold_back;
  std::vector<data::RetailerId> materialized_ids;

  // True when `plane` has nothing to roll out for `retailer` today.
  // Regressed and degraded retailers keep their live version (one with no
  // live version still gets its fresh one), and a resumed day skips the
  // units the crashed run already committed.
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
    metrics_->GetCounter("pipeline_replay_units_skipped_total")->Add(1);
    return true;
  };

  // One row per kDailyStages entry, in the same order. Each comment says
  // why the stage's replay policy is safe.
  const StageBody stages[] = {
      // placement: rebalance shards across cells (§IV-B1). The migration
      // is durable, so replay restores the placement map.
      {.enabled = !options_.placement.cells.empty(),
       .run = [&]() -> StatusOr<std::string> {
         DataPlacementPlanner planner(fs_, options_.placement);
         DataPlacementPlanner::Plan placement =
             planner.PlanPlacement(registry_);
         const int64_t bytes_before = transfer_ledger_.total_bytes();
         SIGMUND_RETURN_IF_ERROR(planner.Materialize(
             registry_, placement, shard_homes_, &transfer_ledger_,
             options_.sfs_retry, &io_));
         report.shard_bytes_moved =
             transfer_ledger_.total_bytes() - bytes_before;
         shard_homes_ = std::move(placement.home_cell);
         return EncodeShardHomes(shard_homes_);
       },
       .restore =
           [&](const std::string& payload) {
             return DecodeShardHomes(payload, &shard_homes_);
           }},
      // dataqual (DESIGN.md §12): judge every feed before any training is
      // planned. Quarantined retailers skip training, inference and both
      // rollouts, so their last-known-good versions keep serving. Observe
      // mutates sentry state: replay re-runs it from the restored state.
      {.enabled = sentry_ != nullptr,
       .run = [&]() -> StatusOr<std::string> {
         std::string retailers_json;
         for (data::RetailerId id : registry_.Ids()) {
           StatusOr<const data::RetailerData*> data = registry_.Get(id);
           if (!data.ok()) continue;
           const dataqual::FeedProfile feed_profile =
               dataqual::BuildFeedProfile(**data);
           const dataqual::DataSentry::Observation observation =
               sentry_->Observe(feed_profile);
           if (observation.verdict ==
               dataqual::DataSentry::Verdict::kQuarantine) {
             quarantined.insert(id);
             SIGLOG(WARNING) << "dataqual quarantined retailer " << id
                             << " (" << feed_profile.ToString() << ")";
             for (const dataqual::DataSentry::Finding& finding :
                  observation.findings) {
               SIGLOG(WARNING) << "  " << finding.ToString();
             }
           } else if (observation.released) {
             SIGLOG(INFO) << "dataqual released retailer " << id
                          << " from quarantine";
           }
           // The profile JSON only carries non-pass verdicts: at 10k
           // retailers a per-retailer dump would dwarf the profile.
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
                 "\"%d\":{\"verdict\":\"%s\",\"released\":%s,"
                 "\"findings\":[%s]}",
                 id, dataqual::VerdictName(observation.verdict),
                 observation.released ? "true" : "false",
                 findings_json.c_str());
           }
         }
         report.quarantined_retailers = sentry_->QuarantinedCount();
         dataqual_json = StrFormat(
             "{\"quarantined_retailers\":%d,\"retailers\":{%s}}",
             sentry_->QuarantinedCount(), retailers_json.c_str());
         return JoinIds(quarantined);
       }},
      // plan_sweep: full on first start or a forced / periodic restart
      // (§III-C3), else incremental. A pure function of restored state;
      // the payload is a fingerprint.
      {.run = [&]() -> StatusOr<std::string> {
         const bool periodic_restart =
             options_.full_sweep_every_days > 0 && days_run_ > 0 &&
             days_run_ % options_.full_sweep_every_days == 0;
         const bool full =
             previous_results_.empty() || force_full_sweep_ || periodic_restart;
         force_full_sweep_ = false;
         report.full_sweep = full;
         SweepPlanner planner(options_.sweep);
         plan = full ? planner.PlanFullSweep(registry_)
                     : planner.PlanIncrementalSweep(registry_,
                                                    previous_results_);
         // Quarantined retailers train nothing today; commit_day carries
         // their previous results forward.
         std::erase_if(plan, [&](const ConfigRecord& record) {
           return quarantined.count(record.retailer) > 0;
         });
         if (!full) {
           // Count retailers that got a full grid (new sign-ups).
           std::map<data::RetailerId, int> grid;
           for (const ConfigRecord& record : plan) ++grid[record.retailer];
           for (const auto& [retailer, count] : grid) {
             if (count > options_.sweep.incremental_top_k) {
               ++report.new_retailers;
             }
           }
         }
         return StrFormat(
             "full=%d;n=%d;fp=%llu", full ? 1 : 0,
             static_cast<int>(plan.size()),
             static_cast<unsigned long long>(FingerprintPlan(plan)));
       }},
      // train: one MapReduce, or one per cell holding the shards (§IV-B1).
      // Models and checkpoints are durable, so replay restores the trained
      // ConfigRecords and skips the MapReduce: the big recovery-time win.
      {.run = [&]() -> StatusOr<std::string> {
         TrainingJob::Options training = options_.training;
         training.metrics = metrics_;
         training.tracer = tracer_;
         training.clock = clock_;
         StatusOr<std::vector<ConfigRecord>> trained =
             options_.placement.cells.empty()
                 ? TrainingJob(fs_, &registry_, training).Run(plan)
                 : MultiCellTrainingJob(fs_, &registry_,
                                        {.cells = options_.placement.cells,
                                         .per_cell = training})
                       .Run(plan, shard_homes_);
         if (!trained.ok()) return trained.status();
         results = *std::move(trained);
         return EncodeResults(results);
       },
       .restore =
           [&](const std::string& payload) {
             return DecodeResults(payload, &results);
           },
       // Incremental records warm-start from, and then overwrite,
       // yesterday's model files, so training is not idempotent once it
       // starts publishing (DESIGN.md §13.2). The undo log makes a re-run
       // read exactly the bytes the crashed attempt read.
       .undo = StageBody::Undo{
           .log = [&]() -> Status {
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
             return OkStatus();
           },
           .rollback = [&]() -> Status {
             for (const ConfigRecord& record : plan) {
               const std::string prev = record.model_path + ".prev";
               StatusOr<std::string> bytes = RetryWithPolicy<std::string>(
                   options_.sfs_retry, &io_.retry,
                   [&] { return fs_->Read(prev); });
               if (bytes.ok()) {
                 SIGMUND_RETURN_IF_ERROR(
                     RetryWithPolicy(options_.sfs_retry, &io_.retry, [&] {
                       return fs_->Write(record.model_path, *bytes);
                     }));
               } else if (bytes.status().code() == StatusCode::kNotFound) {
                 // The file did not exist when the crashed attempt
                 // started; a warm-start record must not warm from its
                 // half-published model.
                 if (record.warm_start) {
                   SIGMUND_RETURN_IF_ERROR(
                       DeleteVersionFile(record.model_path));
                 }
               } else {
                 return bytes.status();
               }
             }
             // A mid-train crash can also strand per-task checkpoints; a
             // resumed task would warm-resume from them instead of
             // training from scratch, diverging from the clean run.
             StatusOr<std::vector<std::string>> stale =
                 RetryWithPolicy<std::vector<std::string>>(
                     options_.sfs_retry, &io_.retry,
                     [&] { return fs_->List("checkpoints/"); });
             SIGMUND_RETURN_IF_ERROR(stale.status());
             for (const std::string& path : *stale) {
               SIGMUND_RETURN_IF_ERROR(DeleteVersionFile(path));
             }
             return OkStatus();
           },
           .clear = [&]() -> Status {
             for (const ConfigRecord& record : plan) {
               SIGMUND_RETURN_IF_ERROR(
                   DeleteVersionFile(record.model_path + ".prev"));
             }
             return OkStatus();
           }}},
      // persist_sweep_results: per-retailer sweep results, for debugging.
      {.run = [&]() -> StatusOr<std::string> {
         std::map<data::RetailerId, std::string> blobs;
         for (const ConfigRecord& record : results) {
           blobs[record.retailer] += record.Serialize();
           blobs[record.retailer] += '\n';
         }
         for (const auto& [retailer, blob] : blobs) {
           // Debug artifact: plain text (not framed) so it stays
           // greppable, but still retried through transient errors.
           const std::string path = SweepResultPath(retailer);
           SIGMUND_RETURN_IF_ERROR(
               RetryWithPolicy(options_.sfs_retry, &io_.retry,
                               [&] { return fs_->Write(path, blob); }));
         }
         return std::string();
       }},
      // select_models: copy each retailer's best model by MAP@10 to its
      // best-model path. The copies are durable; replay restores the rest.
      {.run = [&]() -> StatusOr<std::string> {
         SIGMUND_RETURN_IF_ERROR(
             SelectBestModels(results, &report, &best_map, &degraded));
         // Mirrored so the degradation shows up in RunProfile snapshots.
         if (!degraded.empty()) {
           metrics_->GetCounter("pipeline_degraded_retailers_total")
               ->Add(static_cast<int64_t>(degraded.size()));
         }
         return EncodeSelect(report.mean_best_map, best_map, degraded);
       },
       .restore =
           [&](const std::string& payload) {
             return DecodeSelect(payload, &report.mean_best_map, &best_map,
                                 &degraded);
           }},
      // quality_guard (§I): a retailer whose MAP@10 regressed keeps its
      // live recommendations. Record mutates the monitor: replay re-runs
      // it from the restored baselines.
      {.enabled = options_.guard_quality,
       .run = [&]() -> StatusOr<std::string> {
         for (const auto& [retailer, map_at_10] : best_map) {
           if (monitor_.Record(retailer, map_at_10) ==
               QualityMonitor::Verdict::kRegressed) {
             hold_back.insert(retailer);
             SIGLOG(WARNING)
                 << "retailer " << retailer << " regressed: map=" << map_at_10
                 << " trailing best=" << monitor_.TrailingBest(retailer)
                 << "; keeping previous recommendations";
           }
         }
         report.quality_regressions = static_cast<int64_t>(hold_back.size());
         return JoinIds(hold_back);
       }},
      // inference: materialize every non-quarantined retailer's batch.
      // Batch files are durable, so replay restores the retailer list.
      {.run = [&]() -> StatusOr<std::string> {
         std::vector<data::RetailerId> serve_ids = registry_.Ids();
         std::erase_if(serve_ids, [&](data::RetailerId id) {
           return quarantined.count(id) > 0;
         });
         InferenceJob::Options inference = options_.inference;
         inference.metrics = metrics_;
         inference.tracer = tracer_;
         inference.clock = clock_;
         StatusOr<std::vector<data::RetailerId>> written =
             InferenceJob(fs_, &registry_, inference).Run(serve_ids);
         if (!written.ok()) return written.status();
         materialized_ids = std::move(written).value();
         return JoinIds(materialized_ids);
       },
       .restore =
           [&](const std::string& payload) {
             return DecodeIdList(payload, &materialized_ids);
           }},
      // store_load: the batch plane's rollout (DESIGN.md §7, §13). Each
      // unit publishes a copy of the day's batch; activation cuts the
      // followers over. The canary needs a live batch to compare against.
      {.run = [&]() -> StatusOr<std::string> {
         const Plane<serving::RecommendationStore> batch = BatchPlane();
         if (store_group_->num_replicas() > 1) {
           // Refresh replica health before cutting over: live replicas
           // heartbeat through the (possibly fault-injected) SFS, probes
           // read the heartbeats back.
           SIGMUND_RETURN_IF_ERROR(
               store_group_->WriteHeartbeats(fs_, options_.sfs_retry));
           store_group_->ProbeReplicas(*fs_, options_.sfs_retry);
         }
         for (data::RetailerId retailer : materialized_ids) {
           if (settled(batch, retailer)) continue;
           StatusOr<std::string> raw = RetryWithPolicy<std::string>(
               options_.sfs_retry, &io_.retry,
               [&] { return fs_->Read(RecommendationPath(retailer)); });
           if (!raw.ok()) return raw.status();
           const CanaryController* canary =
               options_.canary.enabled &&
                       batch.store->RetailerVersion(retailer) > 0
                   ? canary_.get()
                   : nullptr;
           auto publish = [&](const std::string& tmp) {
             return RetryWithPolicy(options_.sfs_retry, &io_.retry,
                                    [&] { return fs_->Write(tmp, *raw); });
           };
           SIGMUND_RETURN_IF_ERROR(
               RollOut(batch, retailer, publish, canary, rec).status());
         }
         return std::string();
       }},
      // retrieval_index (DESIGN.md §11): each unit publishes the best
      // model as an ANN index artifact. Its canary compares against the
      // materialized plane, so it gates the first index too.
      {.enabled = options_.retrieval.enabled,
       .run = [&]() -> StatusOr<std::string> {
         const Plane<retrieval::OnlineRetrievalReader> index = IndexPlane();
         for (data::RetailerId retailer : materialized_ids) {
           if (settled(index, retailer)) continue;
           StatusOr<const data::RetailerData*> retailer_data =
               registry_.Get(retailer);
           if (!retailer_data.ok()) continue;
           StatusOr<std::string> model_bytes = sfs::ReadChecksummedFile(
               fs_, BestModelPath(retailer), options_.sfs_retry, &io_);
           if (!model_bytes.ok()) {
             // No (readable) best model, e.g. a corrupt frame or a
             // retailer served purely from a previous day. The index just
             // isn't refreshed; never fail the run over it.
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
                             << ": best model undecodable, skipping index "
                                "build: "
                             << model.status().ToString();
             continue;
           }
           retrieval::IndexArtifact artifact =
               retrieval::BuildArtifactFromModel(retailer, *model,
                                                 options_.retrieval.ann);
           if (options_.retrieval.build_hook_for_testing) {
             options_.retrieval.build_hook_for_testing(retailer, &artifact);
           }
           auto publish = [&](const std::string& tmp) {
             return sfs::WriteChecksummedFile(fs_, tmp, artifact.Serialize(),
                                              options_.sfs_retry, &io_);
           };
           StatusOr<bool> staged = RollOut(index, retailer, publish,
                                           retrieval_canary_.get(), rec);
           if (!staged.ok()) return staged.status();
           metrics_
               ->GetCounter("retrieval_index_builds_total",
                            {{"outcome", *staged ? "ok" : "rejected"}})
               ->Add(1);
         }
         return std::string();
       }},
      // commit_day: today's results become the warm-start state; then the
      // two-phase snapshot, kDayComplete and retention, in that order (a
      // crash before kDayComplete resumes an all-committed day, one
      // before retention is converged by the next boundary).
      {.run = [&]() -> StatusOr<std::string> {
         report.models_trained = static_cast<int>(results.size());
         // Carry quarantined retailers' records forward, so their release
         // day warm-starts instead of planning a full grid.
         std::erase_if(previous_results_, [&](const ConfigRecord& record) {
           return quarantined.count(record.retailer) == 0;
         });
         results.insert(results.end(),
                        std::make_move_iterator(previous_results_.begin()),
                        std::make_move_iterator(previous_results_.end()));
         previous_results_ = std::move(results);
         const ServiceSnapshot snapshot = BuildSnapshot();
         SIGMUND_RETURN_IF_ERROR(
             ledger_->WriteSnapshotTmp(snapshot.Serialize()));
         MaybeCrash(crash_, "day.snapshot_tmp");
         SIGMUND_RETURN_IF_ERROR(ledger_->CommitSnapshot(days_run_ + 1));
         MaybeCrash(crash_, "day.snapshot_committed");
         SIGMUND_RETURN_IF_ERROR(Journal(Op::kDayComplete));
         MaybeCrash(crash_, "day.complete");
         SIGMUND_RETURN_IF_ERROR(ledger_->RetireOldDays(days_run_));
         SIGMUND_RETURN_IF_ERROR(ledger_->RetireOldSnapshots(days_run_ + 1));
         return std::string();
       }},
  };
  static_assert(std::extent_v<decltype(stages)> == std::size(kDailyStages));
  for (size_t i = 0; i < std::size(kDailyStages); ++i) {
    SIGMUND_RETURN_IF_ERROR(RunStage(kDailyStages[i], stages[i], rec, &report));
  }
  report.degraded_retailers = static_cast<int64_t>(degraded.size());

  day_span.End();
  report.total_wall_micros = day_span.DurationMicros();
  const obs::RegistrySnapshot after = metrics_->Snapshot();
  FillCounters(before, after, &report);

  // SLO evaluation: burn rates over the run-end snapshot. Runs after the
  // pipeline finished, so it is passive by construction.
  if (options_.slo != nullptr) {
    options_.slo->Evaluate(after, clock_->NowMicros());
    report.slo_alerts_fired = options_.slo->FiredTotal();
    report.slo_alerts_resolved = options_.slo->ResolvedTotal();
    report.slo_objectives_firing = options_.slo->FiringCount();
    report.slo_json = options_.slo->ToJson();
  }

  // Machine-readable run profile: this run's span tree + the full
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
