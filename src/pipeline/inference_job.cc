#include "pipeline/inference_job.h"

#include <map>
#include <memory>
#include <string_view>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/candidate_selector.h"
#include "core/cooccurrence.h"
#include "core/recommendation_batch.h"
#include "pipeline/binpack.h"
#include "pipeline/config_record.h"
#include "sfs/reliable_io.h"

namespace sigmund::pipeline {

namespace {

// Per-retailer state an inference mapper keeps loaded while it processes
// that retailer's contiguous run of item records.
struct LoadedRetailer {
  data::RetailerId id = -1;
  const data::RetailerData* data = nullptr;
  std::unique_ptr<core::BprModel> model;
  std::unique_ptr<core::CooccurrenceModel> cooccurrence;
  std::unique_ptr<core::RepurchaseEstimator> repurchase;
  std::unique_ptr<core::CandidateSelector> selector;
  std::unique_ptr<core::InferenceEngine> engine;
};

// The job's counters (see InferenceJob::Options), looked up once per Run
// and bumped by the mappers where each event happens.
struct InferenceCounters {
  explicit InferenceCounters(obs::MetricRegistry* metrics)
      : model_loads(metrics->GetCounter("inference_model_loads_total")),
        items_scored(metrics->GetCounter("inference_items_scored_total")),
        model_load_micros(
            metrics->GetHistogram("inference_model_load_micros")) {}

  obs::Counter* model_loads;
  obs::Counter* items_scored;
  obs::Histogram* model_load_micros;
};

class InferenceMapper : public mapreduce::Mapper {
 public:
  // `counters` and `io` are shared by every map task of the run.
  InferenceMapper(sfs::SharedFileSystem* fs, const RetailerRegistry* registry,
                  const InferenceJob::Options* options,
                  const InferenceCounters* counters,
                  sfs::ReliableIoCounters* io)
      : fs_(fs),
        registry_(registry),
        options_(options),
        counters_(counters),
        io_(io) {}

  Status Map(const mapreduce::Record& input,
             const mapreduce::Emitter& emit) override {
    // Key: "r<retailer>/i<item>".
    data::RetailerId retailer = 0;
    data::ItemIndex item = 0;
    if (!ParseKey(input.key, &retailer, &item)) {
      return InvalidArgumentError("bad inference key: " + input.key);
    }

    if (retailer != loaded_.id) {
      // "A load should only get triggered if this is the first record
      // being processed by the mapper or if it is processing an input
      // split that contains the boundary between two retailers" (§IV-C2).
      SIGMUND_RETURN_IF_ERROR(LoadRetailer(retailer));
    }

    // Encoded once, here: the job only concatenates these records.
    const core::ItemRecommendations recs =
        loaded_.engine->RecommendForItem(item, options_->inference);
    counters_->items_scored->Add(1);
    emit(mapreduce::Record{input.key, core::EncodeItemRecord(recs)});
    return OkStatus();
  }

 private:
  static bool ParseKey(const std::string& key, data::RetailerId* retailer,
                       data::ItemIndex* item) {
    if (key.empty() || key[0] != 'r') return false;
    size_t slash = key.find("/i");
    if (slash == std::string::npos) return false;
    int64_t r = 0, i = 0;
    if (!ParseInt64(key.substr(1, slash - 1), &r)) return false;
    if (!ParseInt64(key.substr(slash + 2), &i)) return false;
    *retailer = static_cast<data::RetailerId>(r);
    *item = static_cast<data::ItemIndex>(i);
    return true;
  }

  Status LoadRetailer(data::RetailerId retailer) {
    // The configured clock keeps load-latency samples deterministic under
    // SimClock.
    const Clock* clock =
        options_->clock != nullptr ? options_->clock : RealClock::Get();
    const int64_t load_start = clock->NowMicros();
    StatusOr<const data::RetailerData*> data = registry_->Get(retailer);
    if (!data.ok()) return data.status();

    StatusOr<std::string> bytes = sfs::ReadChecksummedFile(
        fs_, BestModelPath(retailer), options_->sfs_retry, io_);
    if (!bytes.ok()) return bytes.status();
    StatusOr<core::BprModel> model =
        core::BprModel::Deserialize(*bytes, &(*data)->catalog);
    if (!model.ok()) return model.status();

    loaded_.id = retailer;
    loaded_.data = *data;
    loaded_.model =
        std::make_unique<core::BprModel>(std::move(model).value());
    // Candidate-selection inputs are rebuilt from the retailer's full
    // histories (they are cheap relative to training).
    loaded_.cooccurrence = std::make_unique<core::CooccurrenceModel>(
        core::CooccurrenceModel::Build((*data)->histories,
                                       (*data)->catalog.num_items(), {}));
    loaded_.repurchase = std::make_unique<core::RepurchaseEstimator>(
        core::RepurchaseEstimator::Build((*data)->histories, (*data)->catalog,
                                         {}));
    loaded_.selector = std::make_unique<core::CandidateSelector>(
        &(*data)->catalog, loaded_.cooccurrence.get(),
        loaded_.repurchase.get());
    loaded_.engine = std::make_unique<core::InferenceEngine>(
        loaded_.model.get(), loaded_.selector.get());
    counters_->model_loads->Add(1);
    counters_->model_load_micros->Observe(
        static_cast<double>(clock->NowMicros() - load_start));
    return OkStatus();
  }

  sfs::SharedFileSystem* fs_;
  const RetailerRegistry* registry_;
  const InferenceJob::Options* options_;
  const InferenceCounters* counters_;
  sfs::ReliableIoCounters* io_;
  LoadedRetailer loaded_;
};

}  // namespace

InferenceJob::InferenceJob(sfs::SharedFileSystem* fs,
                           const RetailerRegistry* registry,
                           const Options& options)
    : fs_(fs), registry_(registry), options_(options) {
  SIGCHECK(options_.metrics != nullptr)
      << "InferenceJob::Options::metrics is required";
}

StatusOr<std::vector<data::RetailerId>> InferenceJob::Run(
    const std::vector<data::RetailerId>& retailers) {
  obs::Span job_span;
  if (options_.tracer != nullptr) {
    job_span = options_.tracer->StartSpan(options_.job_label);
  }
  const InferenceCounters counters(options_.metrics);
  sfs::ReliableIoCounters io(options_.metrics, options_.clock);

  // --- Partition retailers across cells, weighted by inventory size.
  std::vector<PackItem> items;
  for (data::RetailerId id : retailers) {
    StatusOr<const data::RetailerData*> data = registry_->Get(id);
    if (!data.ok()) return data.status();
    items.push_back(PackItem{id, static_cast<double>((*data)->num_items())});
  }
  std::vector<std::vector<PackItem>> cells =
      FirstFitDecreasing(items, options_.num_cells);

  // --- One MapReduce per cell; input contiguous per retailer. The
  // outputs stay alive until the batches are written: `records` views
  // their values.
  std::vector<std::vector<mapreduce::Record>> outputs;
  outputs.reserve(cells.size());
  std::map<data::RetailerId, std::vector<std::string_view>> records;
  int cell_index = -1;
  for (const auto& cell : cells) {
    ++cell_index;
    if (cell.empty()) continue;
    std::vector<mapreduce::Record> input;
    for (const PackItem& pack : cell) {
      data::RetailerId id = static_cast<data::RetailerId>(pack.id);
      StatusOr<const data::RetailerData*> data = registry_->Get(id);
      if (!data.ok()) return data.status();
      for (data::ItemIndex item = 0; item < (*data)->num_items(); ++item) {
        input.push_back(
            mapreduce::Record{StrFormat("r%d/i%d", id, item), ""});
      }
    }

    mapreduce::MapReduceSpec spec;
    spec.num_map_tasks =
        std::max(1, std::min<int>(options_.map_tasks_per_cell,
                                  static_cast<int>(input.size())));
    spec.num_reduce_tasks = 0;  // map-only; order preserved per retailer
    spec.max_parallel_tasks = options_.max_parallel_tasks;
    spec.map_task_failure_prob = options_.map_task_failure_prob;
    spec.max_attempts_per_task = options_.max_attempts_per_task;
    spec.speculative_backups = options_.speculative_backups;
    spec.speculation_commit_fraction = options_.speculation_commit_fraction;
    spec.seed = options_.seed;
    spec.metrics = options_.metrics;
    spec.tracer = options_.tracer;
    spec.clock = options_.clock;
    spec.label = options_.job_label + "/cell" + std::to_string(cell_index);

    mapreduce::MapReduceJob job(
        spec,
        [this, &counters, &io] {
          return std::make_unique<InferenceMapper>(fs_, registry_, &options_,
                                                   &counters, &io);
        },
        [] { return mapreduce::IdentityReducer(); });
    StatusOr<std::vector<mapreduce::Record>> output = job.Run(input);
    if (!output.ok()) return output.status();

    outputs.push_back(std::move(output).value());
    for (const mapreduce::Record& record : outputs.back()) {
      size_t slash = record.key.find('/');
      int64_t retailer = 0;
      SIGCHECK(ParseInt64(record.key.substr(1, slash - 1), &retailer));
      records[static_cast<data::RetailerId>(retailer)].push_back(
          record.value);
    }
  }

  // --- Write each retailer's batch once: the records are ordered by
  // query and concatenated into the columns, never decoded into lists.
  // Every item was materialized, so the batch needs one record per item.
  std::vector<data::RetailerId> materialized;
  for (const auto& [retailer, values] : records) {
    StatusOr<const data::RetailerData*> data = registry_->Get(retailer);
    if (!data.ok()) return data.status();
    StatusOr<core::RecommendationBatch> batch =
        core::RecommendationBatch::FromItemRecords(values,
                                                   (*data)->num_items());
    if (!batch.ok()) return batch.status();
    // Checksummed + read-back-verified: the serving loader must never see
    // a torn recommendation batch.
    SIGMUND_RETURN_IF_ERROR(sfs::WriteChecksummedFile(
        fs_, RecommendationPath(retailer), batch->Encode(),
        options_.sfs_retry, &io));
    materialized.push_back(retailer);
  }
  return materialized;
}

}  // namespace sigmund::pipeline
