#ifndef SIGMUND_PIPELINE_SERVICE_H_
#define SIGMUND_PIPELINE_SERVICE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/crash_point.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/slo.h"
#include "common/trace.h"
#include "common/status.h"
#include "dataqual/sentry.h"
#include "pipeline/canary.h"
#include "pipeline/data_placement.h"
#include "pipeline/inference_job.h"
#include "pipeline/ledger.h"
#include "pipeline/quality_monitor.h"
#include "pipeline/registry.h"
#include "pipeline/sweep.h"
#include "pipeline/training_job.h"
#include "retrieval/index.h"
#include "retrieval/reader.h"
#include "serving/replicated_store.h"
#include "serving/store.h"
#include "sfs/reliable_io.h"
#include "sfs/shared_filesystem.h"

namespace sigmund::pipeline {

// Summary of one daily run: a view over the metrics registry. Each
// counter field has one row in the report's counter table (service.cc).
// The row says which report line prints the field, and how, and where its
// value comes from: the run's delta of a registry counter, the counter's
// cumulative value, or RunDaily itself. Adding a counter means adding one
// field and one row.
struct DailyReport {
  bool full_sweep = false;
  int retailers = 0;
  int models_trained = 0;
  int new_retailers = 0;
  double mean_best_map = 0.0;   // mean over retailers of best MAP@10
  int64_t checkpoints_written = 0;
  int64_t preemptions = 0;
  int64_t restored_from_checkpoint = 0;
  int64_t model_loads = 0;      // inference model (re)loads
  int64_t items_scored = 0;
  int64_t map_attempts = 0;
  int64_t map_failures = 0;
  int64_t reduce_attempts = 0;
  int64_t reduce_failures = 0;
  // Retailers whose new models regressed past the quality guardrail; the
  // store kept serving their previous batch.
  int64_t quality_regressions = 0;
  // Degradation ladder: retailers whose winning model trained under an
  // exhausted deadline/preemption budget this run (the store keeps
  // serving their previous batch when one exists).
  int64_t degraded_retailers = 0;
  // Lease churn (preemptible training cells): machine revocations, final
  // checkpoints flushed inside the eviction-grace window, revocations
  // that missed the window, tasks escalated from preemptible to regular
  // priority, models whose preemption budget ran out, and models stopped
  // by their deadline.
  int64_t evictions = 0;
  int64_t eviction_grace_checkpoints = 0;
  int64_t hard_evictions = 0;
  int64_t priority_escalations = 0;
  int64_t preemption_budget_exhausted = 0;
  int64_t deadline_exceeded = 0;
  // Straggler mitigation: speculative backup map attempts and winners.
  int64_t map_backup_attempts = 0;
  int64_t map_backups_won = 0;
  // Serving health at report time. Serving traffic happens between daily
  // runs, so these are cumulative counter values at snapshot time, not
  // per-run deltas.
  int64_t breaker_trips = 0;
  int64_t fallbacks_served = 0;
  int64_t replica_failovers = 0;
  int64_t hedged_reads = 0;
  // Overload plane (DESIGN.md §8), cumulative like the rest of serving
  // health: requests shed by admission control, responses served under a
  // brownout rung, hedges suppressed by the hedge budget, and client
  // retries blocked by the retry budget.
  int64_t requests_shed = 0;
  int64_t brownout_serves = 0;
  int64_t hedges_suppressed = 0;
  int64_t retry_budget_exhausted = 0;
  // Canary impressions excluded because the serving plane shed or
  // degraded them (per-run delta; see CanaryController::Options).
  int64_t canary_samples_ignored = 0;
  // Online retrieval plane (DESIGN.md §11), this run: ANN index
  // artifacts built + staged, retrieval-plane canary verdicts, and
  // corrupt index artifacts rejected at stage time.
  int64_t retrieval_indexes_built = 0;
  int64_t retrieval_promotions = 0;
  int64_t retrieval_rollbacks = 0;
  int64_t corrupt_indexes_rejected = 0;
  // Per-path serving request counts (cumulative at report time, like the
  // rest of serving health): materialized store vs. online ANN retrieval
  // vs. any degradation-ladder fallback.
  int64_t requests_materialized = 0;
  int64_t requests_online_retrieval = 0;
  int64_t requests_fallback = 0;
  // Safe-rollout ladder, this run: canary verdicts on staged batches and
  // staggered follower cutovers completed/skipped (per-run deltas).
  int64_t canary_promotions = 0;
  int64_t canary_rollbacks = 0;
  int64_t replica_cutovers = 0;
  int64_t replica_cutovers_skipped = 0;
  // Training-data shard bytes migrated across cells this run (§IV-B1);
  // 0 when data placement is disabled.
  int64_t shard_bytes_moved = 0;
  // Data-plane sentry (DESIGN.md §12), this run: feeds quarantined /
  // flagged, retailers released from quarantine (per-run deltas), and the
  // number of retailers sitting in quarantine after this run.
  int64_t feed_quarantines = 0;
  int64_t feed_warns = 0;
  int64_t quarantine_releases = 0;
  int64_t quarantined_retailers = 0;

  // Robustness counters for this run. Transient SFS errors that a retry
  // absorbed, checksum failures caught (and healed on the write path),
  // corrupt checkpoints skipped over by training, corrupt recommendation
  // batches the serving store refused to load, and the faults a chaos
  // layer injected during this run (a FaultInjectingFileSystem counts
  // them live once SetMetrics points it at the service's registry).
  int64_t sfs_retries = 0;
  int64_t corruptions_detected = 0;
  int64_t corruptions_healed = 0;
  int64_t corrupt_checkpoints_skipped = 0;
  int64_t corrupt_batches_rejected = 0;
  int64_t faults_injected = 0;

  // Run ledger (DESIGN.md §13), per-run deltas: intent/commit entries
  // appended this run, stage/rollout units skipped because the ledger
  // already recorded their commit, and whether this run resumed a day a
  // crashed coordinator left mid-flight.
  bool recovered_day = false;
  int64_t ledger_appends = 0;
  int64_t replay_units_skipped = 0;
  // Orphaned artifacts garbage-collected since the service started
  // (cumulative registry value of pipeline_orphans_gc_total across
  // kinds; startup GC runs before any daily run, so a per-run delta
  // would always read zero). Deliberately kept out of ToString: the
  // daily line must stay byte-identical between a clean day and the
  // same day after a crash-recovery earlier in the service's life.
  int64_t orphans_gc = 0;

  // --- Timing (from the service's tracer; simulated when the service
  // runs under a SimClock). One (stage name, wall micros) pair per
  // pipeline stage actually run, in execution order.
  std::vector<std::pair<std::string, int64_t>> stage_wall_micros;
  int64_t total_wall_micros = 0;
  // Simulated training time accumulated by this run's map tasks.
  int64_t simulated_train_micros = 0;

  // --- SLO alerting (zeros / "" when no SloEngine is wired in). Fires +
  // resolves are cumulative engine totals at report time; firing is how
  // many objectives are in the firing state right now.
  int64_t slo_alerts_fired = 0;
  int64_t slo_alerts_resolved = 0;
  int64_t slo_objectives_firing = 0;
  std::string slo_json;

  // Machine-readable run profile: the run's span tree plus a full metrics
  // snapshot, as JSON (see obs::RunProfile). Write it next to the daily
  // report.
  std::string profile_json;

  std::string ToString() const;
};

// One stage of a daily run (DESIGN.md §13.2). `name` labels the stage's
// span, its pipeline_stage_micros{stage} histogram and its
// DailyReport::stage_wall_micros entry. A committed stage journals one
// kStageCommit tagged `tag`, with the kill-point "<tag>.ran" after its
// work and "<tag>.done" after the commit. On a resumed day its `replay`
// policy decides what a committed payload means. The rollout and
// day-boundary stages commit per unit instead and carry no tag.
struct DailyStage {
  enum class Replay {
    kNone,        // uncommitted stage
    kRestore,     // skip the work; restore its outputs from the payload
    kCrossCheck,  // re-run the work (it mutates control state); the new
                  // payload must equal the committed one
  };
  const char* name;
  const char* tag;
  Replay replay;
};

// Every stage of RunDaily, in run order. RunDaily's stage table gives each
// row its body; no other list of stages exists.
inline constexpr DailyStage kDailyStages[] = {
    {"placement", "placement", DailyStage::Replay::kRestore},
    {"dataqual", "dataqual", DailyStage::Replay::kCrossCheck},
    {"plan_sweep", "plan_sweep", DailyStage::Replay::kCrossCheck},
    {"train", "train", DailyStage::Replay::kRestore},
    {"persist_sweep_results", "persist_sweep", DailyStage::Replay::kRestore},
    {"select_models", "select_models", DailyStage::Replay::kRestore},
    {"quality_guard", "quality_guard", DailyStage::Replay::kCrossCheck},
    {"inference", "inference", DailyStage::Replay::kRestore},
    {"store_load", nullptr, DailyStage::Replay::kNone},
    {"retrieval_index", nullptr, DailyStage::Replay::kNone},
    {"commit_day", nullptr, DailyStage::Replay::kNone},
};

// The whole Sigmund service, end to end (§II-A): each daily run plans a
// sweep (full on first start, incremental afterwards — with a full grid
// for newly signed-up retailers), runs the training MapReduce, selects the
// best model per retailer by MAP@10, materializes recommendations with the
// inference MapReduce, and batch-loads them into the serving store.
class SigmundService {
 public:
  struct Options {
    SweepPlanner::Options sweep;
    TrainingJob::Options training;
    InferenceJob::Options inference;
    // Days between forced full-sweep restarts (terms-of-service recency
    // constraint, §III-C3). 0 = never force.
    int full_sweep_every_days = 0;

    // Quality guardrail (§I: "quality is monitored and maintained"): when
    // on, a retailer whose best MAP@10 regressed past the threshold keeps
    // serving yesterday's recommendations.
    bool guard_quality = true;
    QualityMonitor::Options quality;

    // Data placement (§IV-B1): when cells are named here, each daily run
    // rebalances retailer data shards across them (FFD by interaction
    // count) and migrates shards through the shared filesystem, with the
    // moved bytes reported in DailyReport. Empty = disabled.
    DataPlacementPlanner::Options placement;

    // Safe-rollout serving plane. `serving.num_replicas` > 1 turns on the
    // replicated store group with staggered follower cutover and
    // heartbeat-probed failover; `serving.store.retained_versions` sets
    // the per-retailer rollback window.
    serving::ReplicatedStoreGroup::Options serving;
    // Canary rollout: when `canary.enabled` and `canary.oracle` are set,
    // each staged batch (for a retailer with an active one) is evaluated
    // on simulated live traffic after the offline MAP gate, and promoted
    // or rolled back by observed CTR.
    CanaryController::Options canary;

    // Online embedding-retrieval plane (DESIGN.md §11). When enabled,
    // each daily run snapshots every retailer's best model into a
    // versioned, CRC-framed ANN index artifact
    // (retrieval::IndexArtifactVersionPath), stages it on the online
    // reader, gates it with a retrieval-plane canary against the live
    // materialized plane (when `canary.enabled`), and activates or
    // discards it. Serving the staged index to users is the Frontend's
    // job (Options::retrieval_store + retrieval_ab_fraction).
    struct RetrievalOptions {
      bool enabled = false;
      retrieval::AnnIndex::Options ann;
      retrieval::OnlineRetrievalReader::Options reader;
      // Chaos seam: invoked on each freshly built artifact before it is
      // published, so tests can degrade an index (truncate its factors)
      // and prove the retrieval canary rolls it back on live signal.
      std::function<void(data::RetailerId, retrieval::IndexArtifact*)>
          build_hook_for_testing;
    };
    RetrievalOptions retrieval;

    // Data-plane sentry (DESIGN.md §12). When enabled, every RunDaily
    // profiles each retailer's feed before the sweep is planned and asks
    // the DataSentry for a verdict. A quarantined retailer skips
    // retraining and the retrieval-index rebuild, keeps serving its
    // last-known-good batch/index, and auto-releases when a later feed
    // passes — releases warm-start from the last-good checkpoint because
    // the retailer's previous sweep results are carried forward across
    // quarantined days.
    struct DataQualOptions {
      bool enabled = false;
      dataqual::DataSentry::Options sentry;
    };
    DataQualOptions dataqual;

    // Durable run ledger + crash recovery (DESIGN.md §13), always on:
    // every RunDaily journals a StageIntent before each externally
    // visible per-retailer mutation and a StageCommit after it, batch /
    // index activations publish immutable versioned SFS copies
    // (recommendations/r<id>.v<NNNNNN>, retrieval/r<id>.v<NNNNNN>), and
    // each day boundary writes a versioned control-state snapshot — so a
    // coordinator killed anywhere mid-day can be reconstructed, call
    // RecoverDay(), and finish the day byte-identical to an
    // uninterrupted same-seed run.
    struct LedgerOptions {
      // No-op: the ledger can no longer be turned off. Kept so callers
      // written against the opt-in ledger still compile.
      bool enabled = true;
      RunLedger::Options ledger;
    };
    LedgerOptions ledger;

    // Seeded kill-point injector threaded through the stage boundaries
    // and Stage/Activate seams — the process-death sibling of
    // sfs::FaultInjectingFileSystem. Borrowed; null (the default) makes
    // every instrumented seam a single null-pointer branch.
    CrashInjector* crash = nullptr;

    // Retry policy for the service's own SFS access (best-model copies,
    // sweep results, data placement, store batch loads). The training and
    // inference jobs carry their own policies in `training.sfs_retry` /
    // `inference.sfs_retry`.
    RetryPolicy sfs_retry;

    // --- Observability. All borrowed; when null the service owns a
    // private registry/tracer driven by `clock` (null = RealClock).
    // Every run instruments the full pipeline into the registry and
    // tracer; DailyReport's counter fields are per-run deltas of registry
    // counters (the report is a snapshot view, not separate bookkeeping).
    obs::MetricRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
    const Clock* clock = nullptr;

    // SLO engine (borrowed; null = no SLO evaluation). When wired in,
    // every RunDaily evaluates the declared objectives over the run-end
    // registry snapshot and surfaces burn rates / alert transitions in
    // DailyReport and the RunProfile "slo" section. Evaluation happens
    // after the run completes, so it can never perturb the run itself.
    obs::SloEngine* slo = nullptr;
  };

  // `fs` is borrowed and holds all models/checkpoints/recommendations.
  SigmundService(sfs::SharedFileSystem* fs, const Options& options);

  // Registers (or refreshes after daily data arrival) a retailer. The
  // data is borrowed; keep it alive and call again when it changes.
  void UpsertRetailer(const data::RetailerData* data);

  // Runs one full day of the pipeline. Choice of full vs. incremental
  // sweep is automatic.
  StatusOr<DailyReport> RunDaily();

  // What RecoverDay found and repaired on startup.
  struct RecoveryReport {
    // A mid-flight day was found in the ledger: the next RunDaily
    // resumes it, skipping every unit of work whose commit is already
    // durable.
    bool resumed = false;
    int day = 0;           // the day the next RunDaily will run
    int snapshot_day = -1; // control-state snapshot rehydrated (-1 = none)
    int64_t ledger_entries = 0;
    bool torn_tail_dropped = false;
    int64_t tmp_files_swept = 0;
    int64_t orphan_versions_deleted = 0;
    int64_t versions_rehydrated = 0;
  };

  // Crash-anywhere startup path (DESIGN.md §13). Sweeps orphaned
  // `*.tmp` partials (safe on a clean first boot too), rehydrates
  // durable control state from the newest readable snapshot (warm-start
  // results, quality baselines, sentry quarantine state, shard
  // placement), rebuilds the serving store and retrieval reader version
  // chains from their versioned SFS files, garbage-collects version
  // files orphaned by uncommitted intents, and re-opens a day the
  // crashed process left mid-flight so the next RunDaily replays it
  // idempotently. Call once on a freshly constructed service, before
  // UpsertRetailer data is served.
  StatusOr<RecoveryReport> RecoverDay();

  // Forces the next RunDaily to perform a full sweep (used after the
  // periodic model restart or a catastrophic loss of models).
  void ForceFullSweep() { force_full_sweep_ = true; }

  // The primary serving replica (the version authority). With
  // num_replicas == 1 this is the whole serving plane, exactly as before
  // replication existed.
  const serving::RecommendationStore& store() const {
    return *store_group_->primary();
  }
  serving::RecommendationStore* mutable_store() {
    return store_group_->primary();
  }
  // The whole replicated serving plane (request routing, failover,
  // cutover, rollback).
  serving::ReplicatedStoreGroup* store_group() { return store_group_.get(); }
  const serving::ReplicatedStoreGroup& store_group() const {
    return *store_group_;
  }
  const RetailerRegistry& registry() const { return registry_; }

  // The online retrieval plane's serving endpoint (always constructed;
  // empty until Options::retrieval.enabled runs populate it). Hand it to
  // the Frontend as Options::retrieval_store to serve the A/B arm.
  retrieval::OnlineRetrievalReader* retrieval_reader() {
    return retrieval_reader_.get();
  }
  const retrieval::OnlineRetrievalReader& retrieval_reader() const {
    return *retrieval_reader_;
  }

  // Best trained config per retailer from the most recent run.
  const std::vector<ConfigRecord>& latest_results() const {
    return previous_results_;
  }

  const QualityMonitor& quality_monitor() const { return monitor_; }

  // The data-plane sentry (null unless Options::dataqual.enabled).
  const dataqual::DataSentry* sentry() const { return sentry_.get(); }

  // Days completed so far. After RecoverDay this is the day the next
  // RunDaily will run — which may be one past the day a crashed caller
  // thinks it was on, when the crash landed after the day's snapshot
  // commit (the day was durably complete; only its report was lost).
  int days_run() const { return days_run_; }

  // The registry / tracer every run records into (service-owned unless
  // injected through Options).
  obs::MetricRegistry* metrics() const { return metrics_; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  // One plane's per-retailer rollout outcomes already committed this
  // day: activated / discarded versions and logged canary verdicts.
  struct RecoveredPlane {
    std::map<data::RetailerId, int64_t> activated;
    std::map<data::RetailerId, int64_t> discarded;
    std::map<std::pair<data::RetailerId, int64_t>, std::string> canary;
  };
  // Everything RecoverDay decoded from a mid-flight day's ledger; the
  // next RunDaily consumes it to skip committed work and reuse durable
  // canary verdicts.
  struct RecoveredDay {
    bool resumed = false;
    int day = 0;
    // Stage tag -> commit payload, for every kStageCommit already durable.
    std::map<std::string, std::string> committed_stages;
    RecoveredPlane batch;
    RecoveredPlane index;
  };

  // One serving plane as the journaled rollout protocol sees it (defined
  // in service.cc): the batch plane drives the primary
  // RecommendationStore, the index plane the OnlineRetrievalReader.
  template <typename Store>
  struct Plane;
  Plane<serving::RecommendationStore> BatchPlane();
  Plane<retrieval::OnlineRetrievalReader> IndexPlane();

  // Appends one entry for the current day to the run ledger.
  Status Journal(RunLedger::Op op, data::RetailerId retailer = -1,
                 int64_t version = 0, std::string tag = "",
                 std::string payload = "");
  // Hits the kill-point "<prefix>.<seam>" (no-op without an injector).
  void CrashPoint(const char* prefix, const char* seam);

  // What RunDaily's stage table attaches to one kDailyStages row.
  struct StageBody {
    bool enabled = true;
    // The stage's work; returns its commit payload ("" when uncommitted).
    std::function<StatusOr<std::string>()> run = {};
    // kRestore: restores the stage's outputs from a committed payload;
    // false when the payload does not decode. Null: nothing to restore.
    std::function<bool(const std::string&)> restore = {};
    // Undo log of a stage that overwrites its own inputs (train),
    // committed under "<tag>_undo" (kill-point "<tag>.undo_logged")
    // before the work starts: `log` copies the inputs aside, `rollback`
    // puts them back before a crashed attempt re-runs, and `clear` drops
    // the copies once the stage has committed ("<tag>.undo_cleared").
    struct Undo {
      std::function<Status()> log, rollback, clear;
    };
    std::optional<Undo> undo = {};
  };
  // Runs one stage-table row under its span, and owns its commit,
  // its kill-points and its replay on a resumed day (`rec`, else null).
  Status RunStage(const DailyStage& stage, const StageBody& body,
                  const RecoveredDay* rec, DailyReport* report);

  // One per-retailer rollout unit, the same for both planes:
  // intent -> publish -> stage -> canary verdict -> activate or discard,
  // with a kill-point after each durable step. `publish` writes the new
  // version's bytes to the tmp path it is given; `canary` (null = none)
  // gates activation on live traffic; a resumed day's `rec` (else null)
  // supplies the canary verdicts the crashed run already logged. Returns
  // false when the version failed its integrity check at stage time.
  template <typename Store>
  StatusOr<bool> RollOut(const Plane<Store>& plane, data::RetailerId retailer,
                         const std::function<Status(const std::string&)>&
                             publish,
                         const CanaryController* canary,
                         const RecoveredDay* rec);

  // Recovery: decodes the plane's rollout entries from the day log into
  // `rec`, rebuilds its version chain from the snapshot plus the day's
  // committed rollouts, and deletes the version files it does not retain
  // (counted in pipeline_orphans_gc_total{kind}).
  template <typename Store>
  Status RehydratePlane(const Plane<Store>& plane,
                        const ServiceSnapshot& snapshot,
                        const std::vector<RunLedger::Entry>& entries,
                        RecoveredDay* rec, RecoveryReport* recovery);

  // Picks the best record per retailer, copies its model to BestModelPath
  // and fills `best_map` per retailer. Retailers whose winning record is
  // marked degraded (deadline/preemption budget exhausted during
  // training) are added to `degraded`.
  Status SelectBestModels(const std::vector<ConfigRecord>& results,
                          DailyReport* report,
                          std::map<data::RetailerId, double>* best_map,
                          std::set<data::RetailerId>* degraded);

  // Serializes everything a restarted coordinator cannot rederive from
  // code + SFS artifacts alone, with days_run = days_run_ + 1 (the day
  // about to complete).
  ServiceSnapshot BuildSnapshot() const;

  // Deletes `path` with retry; a file already gone is success.
  Status DeleteVersionFile(const std::string& path);
  // Deletes the plane's version files under `prefix` (its directory, or
  // one retailer's "recommendations/r7.v") whose version its store does
  // not retain; returns how many.
  template <typename Store>
  StatusOr<int64_t> DeleteUnretainedVersions(const Plane<Store>& plane,
                                             const std::string& prefix);

  sfs::SharedFileSystem* fs_;
  Options options_;
  RetailerRegistry registry_;
  // Serving plane + canary controller; built in the constructor once the
  // metrics registry is resolved.
  std::unique_ptr<serving::ReplicatedStoreGroup> store_group_;
  std::unique_ptr<CanaryController> canary_;
  // Online retrieval plane: the versioned ANN reader plus its own canary
  // controller (plane="retrieval"), whose serve hook routes canary
  // impressions to the staged index and control impressions to the live
  // materialized plane.
  std::unique_ptr<retrieval::OnlineRetrievalReader> retrieval_reader_;
  std::unique_ptr<CanaryController> retrieval_canary_;
  // Data-plane sentry (null unless Options::dataqual.enabled); judges
  // every feed before the sweep and owns quarantine state across days.
  std::unique_ptr<dataqual::DataSentry> sentry_;
  // Durable run ledger (always constructed) and the borrowed kill-point
  // injector.
  std::unique_ptr<RunLedger> ledger_;
  CrashInjector* crash_ = nullptr;
  // Set by RecoverDay when a mid-flight day was found; consumed (and
  // cleared) by the next RunDaily.
  std::optional<RecoveredDay> recovery_;
  std::vector<ConfigRecord> previous_results_;
  // Where each retailer's data shard currently lives (data placement).
  std::map<data::RetailerId, std::string> shard_homes_;
  sfs::FileTransferLedger transfer_ledger_;
  // Observability plumbing: borrowed from Options or service-owned.
  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  std::unique_ptr<obs::Tracer> owned_tracer_;
  obs::MetricRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  const Clock* clock_ = nullptr;
  // Retry/corruption counters for the service's own SFS access, counted
  // into metrics_ (DailyReport carries per-run registry deltas). Declared
  // after metrics_ and clock_, which it is built from.
  sfs::ReliableIoCounters io_;
  // Per-retailer quality guardrail; counts into metrics_, so it is
  // declared after it.
  QualityMonitor monitor_;
  bool force_full_sweep_ = false;
  int days_run_ = 0;
};

}  // namespace sigmund::pipeline

#endif  // SIGMUND_PIPELINE_SERVICE_H_
