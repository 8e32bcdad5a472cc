#include "pipeline/training_job.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

#include "cluster/executor.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/evaluator.h"
#include "core/grid_search.h"
#include "core/negative_sampler.h"
#include "core/trainer.h"
#include "pipeline/checkpoint.h"
#include "sfs/reliable_io.h"

namespace sigmund::pipeline {

namespace {

// The job's counters (see TrainingJob::Options), looked up once per Run
// and bumped by the mappers where each event happens.
struct TrainingCounters {
  explicit TrainingCounters(obs::MetricRegistry* metrics)
      : models_trained(metrics->GetCounter("training_models_trained_total")),
        checkpoints_written(
            metrics->GetCounter("training_checkpoints_written_total")),
        preemptions(metrics->GetCounter("training_preemptions_total")),
        restores(metrics->GetCounter("training_restores_total")),
        epochs_recovered(
            metrics->GetCounter("training_epochs_recovered_total")),
        corrupt_checkpoints_skipped(metrics->GetCounter(
            "training_corrupt_checkpoints_skipped_total")),
        simulated_micros(
            metrics->GetCounter("training_simulated_micros_total")),
        evictions(metrics->GetCounter("training_evictions_total")),
        eviction_grace_checkpoints(metrics->GetCounter(
            "training_eviction_grace_checkpoints_total")),
        hard_evictions(metrics->GetCounter("training_hard_evictions_total")),
        priority_escalations(
            metrics->GetCounter("training_priority_escalations_total")),
        preemption_budget_exhausted(metrics->GetCounter(
            "training_preemption_budget_exhausted_total")),
        deadline_exceeded(
            metrics->GetCounter("training_deadline_exceeded_total")),
        degraded_records(
            metrics->GetCounter("training_degraded_records_total")),
        view_builds(
            metrics->GetCounter("training_retailer_view_builds_total")),
        model_micros(
            metrics->GetHistogram("training_model_simulated_micros")) {}

  obs::Counter* models_trained;
  obs::Counter* checkpoints_written;
  obs::Counter* preemptions;
  obs::Counter* restores;
  // Epochs a resumed model did not redo thanks to its checkpoint.
  obs::Counter* epochs_recovered;
  obs::Counter* corrupt_checkpoints_skipped;
  // Simulated training time summed over every model-training attempt
  // (each map task runs its own SimClock).
  obs::Counter* simulated_micros;
  // Lease churn: revocations suffered, final checkpoints flushed inside
  // the eviction-grace window, revocations that missed the window, and
  // tasks escalated from preemptible to regular priority.
  obs::Counter* evictions;
  obs::Counter* eviction_grace_checkpoints;
  obs::Counter* hard_evictions;
  obs::Counter* priority_escalations;
  // Degradation ladder: models whose preemption budget ran out, whose
  // deadline passed, and output records marked degraded for any reason.
  obs::Counter* preemption_budget_exhausted;
  obs::Counter* deadline_exceeded;
  obs::Counter* degraded_records;
  obs::Counter* view_builds;
  obs::Histogram* model_micros;
};

// A retailer's training state: the leave-last-out split, the TrainingData
// over its training half, and the co-occurrence model the samplers
// consult. Every consumer reads it through const, so the configs of one
// retailer share a single view. Pinned in place: `training_data` points
// into `split`.
struct RetailerTrainingView {
  explicit RetailerTrainingView(const data::RetailerData* retailer)
      : data(retailer),
        split(data::SplitLeaveLastOut(*retailer)),
        training_data(&split.train, retailer->catalog.num_items()),
        cooccurrence(core::CooccurrenceModel::Build(
            split.train, retailer->catalog.num_items(), {})) {}
  RetailerTrainingView(const RetailerTrainingView&) = delete;
  RetailerTrainingView& operator=(const RetailerTrainingView&) = delete;

  const data::RetailerData* const data;
  const data::TrainTestSplit split;
  const core::TrainingData training_data;
  const core::CooccurrenceModel cooccurrence;
};

// The views of one Run, keyed by retailer. The first task to need a
// retailer builds its view; a task that asks while the build runs waits
// for it. A view is dropped once the last planned record of its retailer
// has mapped, so memory holds only the retailers still in flight.
class TrainingViewCache {
 public:
  explicit TrainingViewCache(obs::Counter* builds) : builds_(builds) {}

  // Plans one more record of `retailer`. Call before any Acquire.
  void AddRecord(const data::RetailerData* retailer) {
    Slot& slot = slots_[retailer->id];
    slot.data = retailer;
    ++slot.records_left;
  }

  // `id` must be a planned retailer.
  std::shared_ptr<const RetailerTrainingView> Acquire(data::RetailerId id) {
    std::unique_lock<std::mutex> lock(mu_);
    Slot& slot = PlannedSlot(id);
    built_.wait(lock, [&slot] { return !slot.building; });
    if (slot.view != nullptr) return slot.view;
    slot.building = true;
    lock.unlock();
    auto view = std::make_shared<const RetailerTrainingView>(slot.data);
    builds_->Add(1);
    lock.lock();
    slot.building = false;
    slot.view = view;
    built_.notify_all();
    return view;
  }

  // One record of `id` has mapped successfully.
  void Release(data::RetailerId id) {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& slot = PlannedSlot(id);
    if (--slot.records_left == 0) slot.view.reset();
  }

 private:
  struct Slot {
    const data::RetailerData* data = nullptr;
    int records_left = 0;
    bool building = false;
    std::shared_ptr<const RetailerTrainingView> view;
  };

  Slot& PlannedSlot(data::RetailerId id) {
    auto it = slots_.find(id);
    SIGCHECK(it != slots_.end()) << "retailer " << id << " is not planned";
    return it->second;
  }

  obs::Counter* builds_;
  std::mutex mu_;
  std::condition_variable built_;
  std::map<data::RetailerId, Slot> slots_;
};

// The Train() function of §IV-B, as a Mapper: one config record in, one
// trained model in SFS + one output config record out.
class TrainMapper : public mapreduce::Mapper {
 public:
  // `views`, `counters` and `io` are shared by every map task of the
  // run. Map tasks run on pool threads, so per-model spans attach to the
  // job span by explicit `parent_span_id` rather than the tracer's
  // thread-local stack. `executor` (also shared) hands out the revocable
  // machine leases each model trains under; never null, but inert unless
  // churn is configured. Each model trains with `threads_per_model`
  // Hogwild threads (PlanTrainingCores).
  TrainMapper(sfs::SharedFileSystem* fs, TrainingViewCache* views,
              const TrainingJob::Options* options, int threads_per_model,
              const TrainingCounters* counters, sfs::ReliableIoCounters* io,
              cluster::PreemptibleExecutor* executor, int64_t parent_span_id)
      : fs_(fs),
        views_(views),
        options_(options),
        threads_per_model_(threads_per_model),
        counters_(counters),
        io_(io),
        executor_(executor),
        parent_span_id_(parent_span_id) {}

  Status Map(const mapreduce::Record& input,
             const mapreduce::Emitter& emit) override {
    StatusOr<ConfigRecord> parsed = ConfigRecord::Deserialize(input.value);
    if (!parsed.ok()) return parsed.status();
    ConfigRecord record = std::move(parsed).value();

    obs::Span model_span;
    if (options_->tracer != nullptr) {
      model_span = options_->tracer->StartSpan(
          "train/retailer" + std::to_string(record.retailer) + "/m" +
              std::to_string(record.model_number),
          parent_span_id_);
    }

    const std::shared_ptr<const RetailerTrainingView> view =
        views_->Acquire(record.retailer);
    const data::Catalog* catalog = &view->data->catalog;
    const core::TrainingData& training_data = view->training_data;

    Rng rng(SplitMix64(record.params.seed) ^
            SplitMix64(static_cast<uint64_t>(record.retailer) * 131 +
                       record.model_number));
    Rng preempt_rng(SplitMix64(options_->seed) ^
                    SplitMix64(static_cast<uint64_t>(record.retailer) * 977 +
                               record.model_number));

    // Per-task simulated clock: checkpoint cadence follows simulated
    // training time, which scales with retailer size.
    SimClock clock;
    CheckpointManager checkpoints(
        fs_, &clock, CheckpointDir(record.retailer, record.model_number),
        options_->checkpoint_interval_seconds, options_->sfs_retry, io_,
        counters_->corrupt_checkpoints_skipped);

    core::BprModel model(catalog, record.params);
    int start_epoch = 0;
    if (checkpoints.HasCheckpoint()) {
      // A previous (preempted) attempt left a durable checkpoint: resume.
      // Restore reports a corrupt checkpoint as kNotFound, so the task
      // falls through to a clean restart instead of crashing.
      StatusOr<CheckpointManager::Restored> restored =
          checkpoints.Restore(catalog);
      if (restored.ok() &&
          restored->model.params() == record.params) {
        model = std::move(restored->model);
        model.ResizeForCatalog(&rng);
        start_epoch = restored->epoch + 1;
        counters_->restores->Add(1);
        counters_->epochs_recovered->Add(start_epoch);
      } else {
        if (!restored.ok() &&
            restored.status().code() != StatusCode::kNotFound) {
          return restored.status();  // transient; task attempt retried
        }
        model.InitRandom(&rng);
      }
    } else if (record.warm_start && fs_->Exists(record.model_path)) {
      // Incremental run: warm-start from yesterday's model (§III-C3).
      StatusOr<std::string> bytes = sfs::ReadChecksummedFile(
          fs_, record.model_path, options_->sfs_retry, io_);
      if (!bytes.ok() &&
          bytes.status().code() != StatusCode::kDataLoss) {
        return bytes.status();  // transient; task attempt retried
      }
      StatusOr<core::BprModel> previous =
          bytes.ok() ? core::BprModel::Deserialize(*bytes, catalog)
                     : StatusOr<core::BprModel>(bytes.status());
      if (previous.ok()) {
        StatusOr<core::BprModel> warm = core::WarmStartFrom(
            *previous, catalog, record.params, &rng);
        if (warm.ok()) {
          model = std::move(warm).value();
        } else {
          model.InitRandom(&rng);
        }
      } else {
        model.InitRandom(&rng);
      }
    } else {
      model.InitRandom(&rng);
    }

    std::unique_ptr<core::NegativeSampler> sampler =
        core::MakeNegativeSampler(record.params, catalog, &training_data,
                                  &model, &view->cooccurrence);
    core::BprTrainer trainer(&model, &training_data, sampler.get());

    // Training loop with mid-training preemption injection: a preemption
    // throws away everything since the last durable checkpoint, exactly
    // like losing the machine.
    const double epoch_seconds = options_->simulated_seconds_per_step *
                                 static_cast<double>(
                                     training_data.num_positions());
    // Acquire the machine this model trains on. With churn configured the
    // lease is revocable on the task's simulated clock; otherwise it is a
    // stable machine and Check() below always reports kHeld.
    const std::string task_key = record.Key();
    const bool lease_revocable = executor_->churn_enabled();
    cluster::MachineLease lease =
        executor_->Acquire(task_key, clock.NowSeconds());

    int64_t total_steps = 0;
    Status checkpoint_error;
    // Forward-progress guard for pathological configs (preemption
    // probability ~1 with checkpointing disabled, or churn so aggressive
    // the inter-eviction time is shorter than an epoch). Shared by both
    // injection paths: Bernoulli preemptions and lease evictions.
    int preemption_budget = options_->preemption_budget;
    bool budget_exhausted = false;
    bool deadline_hit = false;
    bool injection_disabled = false;
    auto note_budget_exhausted = [&] {
      if (!budget_exhausted) {
        budget_exhausted = true;
        injection_disabled = true;
        counters_->preemption_budget_exhausted->Add(1);
      }
    };
    while (start_epoch < record.params.num_epochs) {
      bool preempted = false;
      bool evicted = false;
      core::BprTrainer::Options train_options;
      train_options.num_threads = threads_per_model_;
      train_options.first_epoch = start_epoch;
      train_options.epoch_callback =
          [&](int epoch, const core::TrainStats&) {
            clock.AdvanceSeconds(epoch_seconds);
            StatusOr<bool> wrote =
                checkpoints.MaybeCheckpoint(model, epoch);
            if (!wrote.ok()) {
              checkpoint_error = wrote.status();
              return false;
            }
            if (*wrote) counters_->checkpoints_written->Add(1);
            // Deadline budget: a model that overruns its share of the
            // daily window stops here; the partial model is still
            // committed (availability) but the record is marked degraded
            // (freshness).
            if (options_->per_model_deadline_seconds > 0.0 &&
                clock.NowSeconds() >= options_->per_model_deadline_seconds) {
              deadline_hit = true;
              counters_->deadline_exceeded->Add(1);
              return false;
            }
            // Lease revocation: the machine is going away. Caught inside
            // the grace window there is time to flush one final
            // checkpoint; past it, everything since the last periodic
            // checkpoint is lost with the machine.
            if (lease_revocable && !injection_disabled) {
              const cluster::MachineLease::State lease_state =
                  lease.Check(clock.NowSeconds());
              if (lease_state != cluster::MachineLease::State::kHeld) {
                if (preemption_budget <= 0) {
                  note_budget_exhausted();
                } else {
                  --preemption_budget;
                  const bool within_grace =
                      lease_state ==
                      cluster::MachineLease::State::kEvictionNotice;
                  if (within_grace) {
                    // A failed grace flush is not fatal: the machine is
                    // gone either way, and restore falls back to the last
                    // periodic checkpoint.
                    Status flushed =
                        checkpoints.ForceCheckpoint(model, epoch);
                    if (flushed.ok()) {
                      counters_->checkpoints_written->Add(1);
                      counters_->eviction_grace_checkpoints->Add(1);
                    }
                  }
                  counters_->evictions->Add(1);
                  if (!within_grace) counters_->hard_evictions->Add(1);
                  if (executor_->OnEviction(task_key)) {
                    counters_->priority_escalations->Add(1);
                  }
                  evicted = true;
                  return false;
                }
              }
            }
            const bool preempt_draw =
                preempt_rng.Bernoulli(options_->preemption_prob_per_epoch);
            if (preempt_draw && !injection_disabled) {
              if (preemption_budget > 0) {
                --preemption_budget;
                preempted = true;
                counters_->preemptions->Add(1);
                return false;
              }
              note_budget_exhausted();
            }
            return true;
          };
      core::TrainStats train_stats = trainer.Train(train_options);
      total_steps += train_stats.sgd_steps;
      if (!checkpoint_error.ok()) return checkpoint_error;
      if (deadline_hit) {
        start_epoch += train_stats.epochs_run;
        break;
      }
      if (!preempted && !evicted) {
        start_epoch += train_stats.epochs_run;
        break;
      }
      // Rescheduled on a fresh machine: restore the latest checkpoint, or
      // restart from scratch if none was ever written — or if the one that
      // was written turns out to be corrupt (Restore reports kNotFound).
      StatusOr<CheckpointManager::Restored> restored =
          checkpoints.HasCheckpoint()
              ? checkpoints.Restore(catalog)
              : StatusOr<CheckpointManager::Restored>(
                    NotFoundError("no checkpoint"));
      if (restored.ok()) {
        model = std::move(restored->model);
        start_epoch = restored->epoch + 1;
        counters_->restores->Add(1);
      } else if (restored.status().code() == StatusCode::kNotFound) {
        model.InitRandom(&rng);
        start_epoch = 0;
      } else {
        return restored.status();  // transient; task attempt retried
      }
      if (evicted) {
        // Rescheduling is not free: pay the restart overhead, then lease
        // the next machine. A task escalated to regular priority comes
        // back on a stable machine (its new lease never expires).
        clock.AdvanceSeconds(
            std::max(0.0, options_->churn.restart_overhead_seconds));
        lease = executor_->Acquire(task_key, clock.NowSeconds());
      }
    }

    // Evaluate on the hold-out set; big retailers use sampled MAP
    // estimation (§III-C2).
    core::Evaluator::Options eval_options;
    if (catalog->num_items() > options_->sampled_eval_threshold_items) {
      eval_options.item_sample_fraction = options_->sampled_eval_fraction;
    }
    core::MetricSet metrics = core::Evaluator::Evaluate(
        model, training_data, view->split.holdout, eval_options);

    // Commit the final model atomically, then GC the checkpoints. The
    // checksummed write verifies the stored bytes before the rename makes
    // them visible, so a torn write can never publish a corrupt model.
    const std::string tmp = record.model_path + ".tmp";
    SIGMUND_RETURN_IF_ERROR(sfs::WriteChecksummedFile(
        fs_, tmp, model.Serialize(), options_->sfs_retry, io_));
    SIGMUND_RETURN_IF_ERROR(
        RetryWithPolicy(options_->sfs_retry, &io_->retry, [&] {
          return fs_->Rename(tmp, record.model_path);
        }));
    SIGMUND_RETURN_IF_ERROR(checkpoints.Clear());

    record.trained = true;
    // Degradation ladder, rung 1: the model shipped, but the training run
    // blew its deadline or its preemption budget. Selection downstream
    // treats the retailer as degraded and keeps serving yesterday's batch
    // when one exists.
    if (deadline_hit || budget_exhausted) {
      record.degraded = true;
      counters_->degraded_records->Add(1);
    }
    record.map_at_10 = metrics.map_at_k;
    record.auc = metrics.auc;
    record.epochs_run = start_epoch;
    record.sgd_steps = total_steps;
    counters_->models_trained->Add(1);
    counters_->simulated_micros->Add(clock.NowMicros());
    counters_->model_micros->Observe(static_cast<double>(clock.NowMicros()));
    emit(mapreduce::Record{record.Key(), record.Serialize()});
    views_->Release(record.retailer);
    return OkStatus();
  }

 private:
  sfs::SharedFileSystem* fs_;
  TrainingViewCache* views_;
  const TrainingJob::Options* options_;
  int threads_per_model_;
  const TrainingCounters* counters_;
  sfs::ReliableIoCounters* io_;
  cluster::PreemptibleExecutor* executor_;
  int64_t parent_span_id_;
};

}  // namespace

TrainingCores PlanTrainingCores(int max_parallel_tasks, int threads_per_model,
                                int map_tasks) {
  const int max_threads = std::max(1, threads_per_model);
  const int64_t cores = static_cast<int64_t>(max_parallel_tasks) * max_threads;
  TrainingCores plan;
  plan.concurrent_tasks =
      static_cast<int>(std::min<int64_t>(cores, map_tasks));
  plan.threads_per_model =
      plan.concurrent_tasks > 0
          ? static_cast<int>(std::clamp<int64_t>(
                cores / plan.concurrent_tasks, 1, max_threads))
          : 1;
  return plan;
}

int64_t EstimateTrainingCost(const ConfigRecord& record,
                             const data::RetailerData& data) {
  return data.TotalInteractions() * record.params.num_factors *
         record.params.num_epochs;
}

TrainingJob::TrainingJob(sfs::SharedFileSystem* fs,
                         const RetailerRegistry* registry,
                         const Options& options)
    : fs_(fs), registry_(registry), options_(options) {
  SIGCHECK(options_.metrics != nullptr)
      << "TrainingJob::Options::metrics is required";
}

StatusOr<std::vector<ConfigRecord>> TrainingJob::Run(
    const std::vector<ConfigRecord>& plan) {
  obs::Span job_span;
  if (options_.tracer != nullptr) {
    job_span = options_.tracer->StartSpan(options_.job_label);
  }
  const TrainingCounters counters(options_.metrics);
  sfs::ReliableIoCounters io(options_.metrics, options_.clock);

  // Largest models first, one record per map task: the pool's FIFO then
  // starts the costliest models on the first free machines (LPT), and the
  // stable sort keeps the planner's shuffled order among equal costs.
  TrainingViewCache views(counters.view_builds);
  std::vector<std::pair<int64_t, const ConfigRecord*>> by_cost;
  by_cost.reserve(plan.size());
  for (const ConfigRecord& record : plan) {
    StatusOr<const data::RetailerData*> retailer =
        registry_->Get(record.retailer);
    if (!retailer.ok()) return retailer.status();
    views.AddRecord(*retailer);
    by_cost.emplace_back(EstimateTrainingCost(record, **retailer), &record);
  }
  std::stable_sort(by_cost.begin(), by_cost.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::vector<mapreduce::Record> input;
  input.reserve(by_cost.size());
  for (const auto& entry : by_cost) {
    const ConfigRecord& record = *entry.second;
    input.push_back(mapreduce::Record{record.Key(), record.Serialize()});
  }

  mapreduce::MapReduceSpec spec;
  spec.num_map_tasks = std::max(1, static_cast<int>(input.size()));
  spec.num_reduce_tasks = 1;  // "the reduce phase writes out the output
                              // config records" (§IV-B)
  const TrainingCores cores = PlanTrainingCores(
      options_.max_parallel_tasks, options_.threads_per_model,
      spec.num_map_tasks);
  spec.max_parallel_tasks = cores.concurrent_tasks;
  spec.map_task_failure_prob = options_.map_task_failure_prob;
  spec.reduce_task_failure_prob = options_.reduce_task_failure_prob;
  spec.max_attempts_per_task = options_.max_attempts_per_task;
  spec.seed = options_.seed;
  spec.metrics = options_.metrics;
  spec.tracer = options_.tracer;
  spec.clock = options_.clock;
  spec.label = options_.job_label;

  // One lease executor per run: map tasks on pool threads share it, and
  // per-task eviction schedules depend only on (churn seed, record key,
  // incarnation), so churn outcomes are independent of thread scheduling.
  cluster::PreemptibleExecutor::Options executor_options;
  executor_options.churn = options_.churn;
  cluster::PreemptibleExecutor executor(executor_options);

  const int64_t parent_span_id = job_span.id();
  mapreduce::MapReduceJob job(
      spec,
      [this, &views, &cores, &counters, &io, &executor, parent_span_id] {
        return std::make_unique<TrainMapper>(
            fs_, &views, &options_, cores.threads_per_model, &counters,
            &io, &executor, parent_span_id);
      },
      [] { return mapreduce::IdentityReducer(); });
  StatusOr<std::vector<mapreduce::Record>> output = job.Run(input);
  if (!output.ok()) return output.status();

  std::vector<ConfigRecord> results;
  results.reserve(output->size());
  for (const mapreduce::Record& record : *output) {
    StatusOr<ConfigRecord> parsed = ConfigRecord::Deserialize(record.value);
    if (!parsed.ok()) return parsed.status();
    results.push_back(std::move(parsed).value());
  }
  return results;
}

StatusOr<std::vector<ConfigRecord>> MultiCellTrainingJob::Run(
    const std::vector<ConfigRecord>& plan,
    const std::map<data::RetailerId, std::string>& data_homes) {
  if (options_.cells.empty()) {
    return InvalidArgumentError("MultiCellTrainingJob needs >= 1 cell");
  }

  // Route each record to its retailer's data cell, preserving the plan's
  // (shuffled) order within each cell. Each cell's TrainingJob then runs
  // its records largest first, so the shuffle only breaks cost ties.
  std::map<std::string, std::vector<ConfigRecord>> per_cell;
  for (const ConfigRecord& record : plan) {
    auto it = data_homes.find(record.retailer);
    const std::string& cell =
        it != data_homes.end() ? it->second : options_.cells.front();
    per_cell[cell].push_back(record);
  }

  std::vector<ConfigRecord> merged;
  for (const std::string& cell : options_.cells) {
    auto it = per_cell.find(cell);
    if (it == per_cell.end()) continue;
    TrainingJob::Options cell_options = options_.per_cell;
    // Decorrelate failure/preemption draws across cells.
    cell_options.seed =
        SplitMix64(options_.per_cell.seed) ^ std::hash<std::string>()(cell);
    cell_options.job_label = options_.per_cell.job_label + "/" + cell;
    TrainingJob job(fs_, registry_, cell_options);
    StatusOr<std::vector<ConfigRecord>> results = job.Run(it->second);
    if (!results.ok()) return results.status();
    merged.insert(merged.end(), results->begin(), results->end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const ConfigRecord& a, const ConfigRecord& b) {
              return a.Key() < b.Key();
            });
  return merged;
}

}  // namespace sigmund::pipeline
