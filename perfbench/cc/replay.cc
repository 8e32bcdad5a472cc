// Layer replay of a traced day. After the timed RunDaily, the day's
// layer work is re-run as direct calls into the library's public
// functions, with the same plan (latest_results), options and seeds, each
// call wrapped in a span. Models come from the pre-day filesystem (warm
// starts) and the day's filesystem (selected models); everything the
// replay writes goes to a scratch filesystem. Replayed quality and
// recommendation files are compared with what RunDaily produced, so a
// replay that drifts from the program is visible.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "common/random.h"
#include "core/candidate_selector.h"
#include "core/cooccurrence.h"
#include "core/evaluator.h"
#include "core/grid_search.h"
#include "core/inference.h"
#include "core/negative_sampler.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "dataqual/feed_profile.h"
#include "hooks.h"
#include "pipeline/config_record.h"
#include "pipeline/ledger.h"
#include "retrieval/artifact.h"
#include "retrieval/index.h"
#include "sfs/reliable_io.h"
#include "workloads.h"

namespace perfbench {

namespace core = sigmund::core;
namespace data = sigmund::data;
namespace pipeline = sigmund::pipeline;
namespace retrieval = sigmund::retrieval;
namespace sfs = sigmund::sfs;

namespace {

// ANN queries replayed per retailer for the retrieval metrics.
constexpr int kQueriesPerRetailer = 64;
constexpr int kSearchK = 10;

struct TrainTally {
  int64_t records = 0;
  int64_t sgd_steps = 0;
  int64_t skipped = 0;
  int64_t allocs = 0;
  int64_t eval_examples = 0;
  int64_t model_bytes = 0;
  int64_t quality_matches = 0;
};

struct InferenceTally {
  int64_t retailers = 0;
  int64_t items = 0;
  int64_t candidates = 0;
  int64_t batch_bytes = 0;
  int64_t batch_matches = 0;
  int64_t queries = 0;
  double recall = 0.0;
  double scan_frac = 0.0;
  int64_t profile_events = 0;
};

double Seconds(const std::map<std::string, SpanTotals>& totals,
               const std::string& name) {
  auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.total_ns * 1e-9;
}

// Builds the per-model training state exactly as the training mapper does
// (split, training data, co-occurrence) and returns its pieces.
struct TrainState {
  data::TrainTestSplit split;
  std::unique_ptr<core::TrainingData> training_data;
  std::unique_ptr<core::CooccurrenceModel> cooccurrence;
};

void BuildTrainState(const data::RetailerData& retailer, SpanRecorder* spans,
                     TrainState* state) {
  Scope span(spans, "core.train_setup");
  const int n = retailer.catalog.num_items();
  state->split = data::SplitLeaveLastOut(retailer);
  state->training_data =
      std::make_unique<core::TrainingData>(&state->split.train, n);
  state->cooccurrence = std::make_unique<core::CooccurrenceModel>(
      core::CooccurrenceModel::Build(state->split.train, n, {}));
}

void ReplayTraining(const ReplayInputs& in,
                    const std::map<data::RetailerId, const data::RetailerData*>&
                        retailers,
                    sfs::SharedFileSystem* scratch, TrainTally* tally) {
  Scope replay(in.spans, "replay.train");
  const pipeline::TrainingJob::Options& options = in.options->training;
  for (const pipeline::ConfigRecord& record : in.service->latest_results()) {
    auto found = retailers.find(record.retailer);
    if (found == retailers.end()) continue;
    const data::RetailerData& retailer = *found->second;
    const data::Catalog* catalog = &retailer.catalog;
    Scope model_span(in.spans, "pipeline.train_model");

    TrainState state;
    BuildTrainState(retailer, in.spans, &state);

    sigmund::Rng rng(sigmund::SplitMix64(record.params.seed) ^
                     sigmund::SplitMix64(
                         static_cast<uint64_t>(record.retailer) * 131 +
                         record.model_number));
    core::BprModel model(catalog, record.params);
    bool warmed = false;
    if (record.warm_start && in.pre_day_fs->Exists(record.model_path)) {
      Scope load(in.spans, "core.model_load");
      sigmund::StatusOr<std::string> bytes =
          sfs::ReadChecksummedFile(in.pre_day_fs, record.model_path);
      if (bytes.ok()) {
        sigmund::StatusOr<core::BprModel> previous =
            core::BprModel::Deserialize(*bytes, catalog);
        if (previous.ok()) {
          sigmund::StatusOr<core::BprModel> warm =
              core::WarmStartFrom(*previous, catalog, record.params, &rng);
          if (warm.ok()) {
            model = std::move(warm).value();
            warmed = true;
          }
        }
      }
    }
    if (!warmed) model.InitRandom(&rng);

    std::unique_ptr<core::NegativeSampler> sampler = core::MakeNegativeSampler(
        record.params, catalog, state.training_data.get(), &model,
        state.cooccurrence.get());
    core::BprTrainer trainer(&model, state.training_data.get(), sampler.get());
    core::BprTrainer::Options train_options;
    train_options.num_threads = options.threads_per_model;
    train_options.num_epochs = record.params.num_epochs;
    Scope sgd(in.spans, "core.sgd");
    SetGlobalAllocCounting(true);
    const int64_t allocs_before = GlobalAllocs();
    const core::TrainStats stats = trainer.Train(train_options);
    tally->allocs += GlobalAllocs() - allocs_before;
    SetGlobalAllocCounting(false);
    sgd.End();
    tally->sgd_steps += stats.sgd_steps;
    tally->skipped += stats.skipped_steps;

    core::Evaluator::Options eval_options;
    if (catalog->num_items() > options.sampled_eval_threshold_items) {
      eval_options.item_sample_fraction = options.sampled_eval_fraction;
    }
    Scope eval(in.spans, "core.eval");
    const core::MetricSet metrics = core::Evaluator::Evaluate(
        model, *state.training_data, state.split.holdout, eval_options);
    eval.End();
    tally->eval_examples += metrics.num_examples;
    if (metrics.map_at_k == record.map_at_10) ++tally->quality_matches;

    Scope serialize(in.spans, "core.model_serialize");
    const std::string bytes = model.Serialize();
    serialize.End();
    tally->model_bytes += static_cast<int64_t>(bytes.size());
    Scope write(in.spans, "sfs.write_checksummed");
    (void)sfs::WriteChecksummedFile(scratch, record.model_path, bytes);
    write.End();
    ++tally->records;
  }
}

// Hogwild scaling: one model of the largest retailer, trained from the
// same random start on 1 and on 4 threads; returns steps/s for each.
std::pair<double, double> SgdScaling(const ReplayInputs& in,
                                     const data::RetailerData& largest) {
  const pipeline::ConfigRecord* record = nullptr;
  for (const pipeline::ConfigRecord& r : in.service->latest_results()) {
    if (r.retailer == largest.id) {
      record = &r;
      break;
    }
  }
  if (record == nullptr) return {0.0, 0.0};
  TrainState state;
  BuildTrainState(largest, nullptr, &state);
  double rates[2] = {0.0, 0.0};
  const int threads[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    core::BprModel model(&largest.catalog, record->params);
    sigmund::Rng rng(record->params.seed);
    model.InitRandom(&rng);
    std::unique_ptr<core::NegativeSampler> sampler = core::MakeNegativeSampler(
        record->params, &largest.catalog, state.training_data.get(), &model,
        state.cooccurrence.get());
    core::BprTrainer trainer(&model, state.training_data.get(), sampler.get());
    core::BprTrainer::Options options;
    options.num_threads = threads[t];
    options.num_epochs = 3;
    Scope span(in.spans, threads[t] == 1 ? "core.sgd_1t" : "core.sgd_4t");
    const core::TrainStats stats = trainer.Train(options);
    const double seconds = span.End() * 1e-9;
    rates[t] = seconds > 0 ? stats.sgd_steps / seconds : 0.0;
  }
  return {rates[0], rates[1]};
}

void ReplayInferenceAndRetrieval(
    const ReplayInputs& in,
    const std::map<data::RetailerId, const data::RetailerData*>& retailers,
    sfs::SharedFileSystem* scratch, InferenceTally* tally) {
  const core::InferenceEngine::Options& inference = in.options->inference.inference;
  core::CandidateSelector::Options late = inference.selector;
  late.late_funnel = true;
  for (const auto& [id, retailer] : retailers) {
    const int n = retailer->catalog.num_items();
    Scope replay(in.spans, "replay.inference");
    Scope load(in.spans, "core.model_load");
    sigmund::StatusOr<std::string> bytes =
        sfs::ReadChecksummedFile(in.day_fs, pipeline::BestModelPath(id));
    if (!bytes.ok()) continue;
    sigmund::StatusOr<core::BprModel> model =
        core::BprModel::Deserialize(*bytes, &retailer->catalog);
    if (!model.ok()) continue;
    load.End();

    Scope index(in.spans, "core.candidate_index");
    const core::CooccurrenceModel cooccurrence =
        core::CooccurrenceModel::Build(retailer->histories, n, {});
    const core::RepurchaseEstimator repurchase =
        core::RepurchaseEstimator::Build(retailer->histories,
                                         retailer->catalog, {});
    const core::CandidateSelector selector(&retailer->catalog, &cooccurrence,
                                           &repurchase);
    index.End();
    const core::InferenceEngine engine(&*model, &selector);

    std::vector<std::vector<data::ItemIndex>> view(n), purchase(n), late_view(n);
    Scope candidates(in.spans, "core.candidate");
    for (data::ItemIndex i = 0; i < n; ++i) {
      view[i] = selector.ViewBased(i, inference.selector);
      purchase[i] = selector.PurchaseBased(i, inference.selector);
      if (inference.materialize_late_funnel) {
        late_view[i] = selector.ViewBased(i, late);
      }
    }
    candidates.End();
    for (data::ItemIndex i = 0; i < n; ++i) {
      tally->candidates += static_cast<int64_t>(
          view[i].size() + purchase[i].size() + late_view[i].size());
    }

    std::vector<core::ItemRecommendations> recs(n);
    Scope score(in.spans, "core.score");
    for (data::ItemIndex i = 0; i < n; ++i) {
      recs[i].query = i;
      recs[i].view_based = engine.RankCandidates(
          {{i, data::ActionType::kView}}, view[i], inference.top_k);
      recs[i].purchase_based = engine.RankCandidates(
          {{i, data::ActionType::kConversion}}, purchase[i], inference.top_k);
      if (inference.materialize_late_funnel) {
        recs[i].view_based_late = engine.RankCandidates(
            {{i, data::ActionType::kView}}, late_view[i], inference.top_k);
      }
    }
    score.End();

    // The inference job's round trip: each mapper output is serialized,
    // parsed back by the job, then re-serialized into the batch file.
    Scope encode(in.spans, "core.batch_encode");
    std::string blob;
    for (const core::ItemRecommendations& rec : recs) {
      sigmund::StatusOr<core::ItemRecommendations> parsed =
          core::ItemRecommendations::Deserialize(rec.Serialize());
      if (!parsed.ok()) continue;
      blob += parsed->Serialize();
      blob += '\n';
    }
    encode.End();
    Scope write(in.spans, "sfs.write_checksummed");
    (void)sfs::WriteChecksummedFile(scratch, pipeline::RecommendationPath(id),
                                    blob);
    write.End();
    replay.End();

    sigmund::StatusOr<std::string> served =
        sfs::ReadChecksummedFile(in.day_fs, pipeline::RecommendationPath(id));
    if (served.ok() && *served == blob) ++tally->batch_matches;
    ++tally->retailers;
    tally->items += n;
    tally->batch_bytes += static_cast<int64_t>(blob.size());

    // Retrieval plane: the index build, then ANN searches against an
    // exact scan of the same item vectors.
    Scope build(in.spans, "retrieval.index_build");
    const retrieval::IndexArtifact artifact = retrieval::BuildArtifactFromModel(
        id, *model, in.options->retrieval.ann);
    build.End();
    const int dim = model->dim();
    std::vector<float> vectors(static_cast<size_t>(n) * dim);
    for (data::ItemIndex i = 0; i < n; ++i) {
      model->ItemRepresentation(i, vectors.data() + static_cast<size_t>(i) * dim);
    }
    const retrieval::ExactIndex exact(std::move(vectors), dim);
    std::vector<float> query(dim);
    const int queries = std::min(n, kQueriesPerRetailer);
    for (int q = 0; q < queries; ++q) {
      const data::ItemIndex item = static_cast<data::ItemIndex>(
          static_cast<int64_t>(q) * n / queries);
      artifact.QueryEmbedding({{item, data::ActionType::kView}}, query.data());
      retrieval::SearchStats stats;
      Scope search(in.spans, "retrieval.search");
      const std::vector<core::ScoredItem> ann = artifact.index.Search(
          query.data(), kSearchK, in.options->retrieval.reader.nprobe, &stats);
      search.End();
      const std::vector<core::ScoredItem> truth =
          exact.Search(query.data(), kSearchK, 0, nullptr);
      int hits = 0;
      for (const core::ScoredItem& a : ann) {
        for (const core::ScoredItem& t : truth) hits += a.item == t.item;
      }
      tally->recall += truth.empty() ? 1.0 : static_cast<double>(hits) / truth.size();
      tally->scan_frac += static_cast<double>(stats.candidates_scanned) / n;
      ++tally->queries;
    }

    Scope profile(in.spans, "dataqual.profile");
    tally->profile_events += sigmund::dataqual::BuildFeedProfile(*retailer).events;
  }
}

double ReplayLedger(const ReplayInputs& in, int64_t* entries_out) {
  const pipeline::RunLedger::Options& options = in.options->ledger.ledger;
  pipeline::RunLedger reader(in.day_fs, options, {}, nullptr, nullptr);
  const int day = in.service->days_run() - 1;
  sigmund::StatusOr<pipeline::RunLedger::DecodeResult> decoded =
      reader.ReadDay(day);
  if (!decoded.ok()) return 0.0;
  sfs::MemFileSystem scratch;
  pipeline::RunLedger writer(&scratch, options, {}, nullptr, nullptr);
  writer.StartDay(day);
  double seconds = 0.0;
  for (const pipeline::RunLedger::Entry& entry : decoded->entries) {
    Scope span(in.spans, "pipeline.ledger_append");
    (void)writer.Append(entry);
    seconds += span.End() * 1e-9;
  }
  *entries_out = static_cast<int64_t>(decoded->entries.size());
  return seconds;
}

int64_t StageMicros(const pipeline::DailyReport& report, const char* stage) {
  for (const auto& [name, micros] : report.stage_wall_micros) {
    if (name == stage) return micros;
  }
  return 0;
}

}  // namespace

void ReplayDay(const ReplayInputs& in, Metrics* layers, RunResult* result) {
  std::map<data::RetailerId, const data::RetailerData*> retailers;
  const data::RetailerData* largest = nullptr;
  for (const data::RetailerData* r : in.retailers) {
    retailers[r->id] = r;
    if (largest == nullptr || r->num_items() > largest->num_items()) largest = r;
  }
  sfs::MemFileSystem scratch;
  TrainTally train;
  ReplayTraining(in, retailers, &scratch, &train);
  InferenceTally inference;
  ReplayInferenceAndRetrieval(in, retailers, &scratch, &inference);
  int64_t ledger_entries = 0;
  const double ledger_s = ReplayLedger(in, &ledger_entries);
  const auto [steps_1t, steps_4t] = SgdScaling(in, *largest);

  const std::map<std::string, SpanTotals> totals =
      TotalsByName(in.spans->Spans());
  const int64_t attempted_steps = train.sgd_steps + train.skipped;
  layers->Set("core.sgd_s", Seconds(totals, "core.sgd"), "s");
  layers->Set("core.sgd_steps", static_cast<double>(train.sgd_steps), "count");
  layers->Set("core.sgd_steps_per_s_1t", steps_1t, "steps/s");
  layers->Set("core.sgd_steps_per_s_4t", steps_4t, "steps/s");
  layers->Set("core.sgd_skipped_frac",
              attempted_steps > 0
                  ? static_cast<double>(train.skipped) / attempted_steps
                  : 0.0,
              "ratio");
  layers->Set("core.allocs_per_sgd_step",
              attempted_steps > 0
                  ? static_cast<double>(train.allocs) / attempted_steps
                  : 0.0,
              "count");
  layers->Set("core.train_setup_s", Seconds(totals, "core.train_setup"), "s");
  layers->Set("core.eval_s", Seconds(totals, "core.eval"), "s");
  layers->Set("core.eval_examples", static_cast<double>(train.eval_examples),
              "count");
  layers->Set("core.model_bytes", static_cast<double>(train.model_bytes),
              "bytes");
  layers->Set("core.model_serialize_s",
              Seconds(totals, "core.model_serialize"), "s");
  layers->Set("core.candidate_s", Seconds(totals, "core.candidate"), "s");
  layers->Set("core.candidates_per_item",
              inference.items > 0
                  ? static_cast<double>(inference.candidates) / inference.items
                  : 0.0,
              "count");
  layers->Set("core.score_s", Seconds(totals, "core.score"), "s");
  layers->Set("core.items_scored", static_cast<double>(inference.items),
              "count");
  layers->Set("core.batch_encode_s", Seconds(totals, "core.batch_encode"),
              "s");
  layers->Set("core.batch_bytes", static_cast<double>(inference.batch_bytes),
              "bytes");
  layers->Set("retrieval.index_build_s",
              Seconds(totals, "retrieval.index_build"), "s");
  layers->Set("retrieval.search_us",
              inference.queries > 0
                  ? Seconds(totals, "retrieval.search") * 1e6 / inference.queries
                  : 0.0,
              "us");
  layers->Set("retrieval.scan_frac",
              inference.queries > 0 ? inference.scan_frac / inference.queries
                                    : 0.0,
              "ratio");
  layers->Set("retrieval.recall_at_10",
              inference.queries > 0 ? inference.recall / inference.queries
                                    : 0.0,
              "ratio");
  layers->Set("dataqual.profile_s", Seconds(totals, "dataqual.profile"), "s");
  layers->Set("dataqual.events", static_cast<double>(inference.profile_events),
              "count");
  layers->Set("pipeline.ledger_append_s", ledger_s, "s");

  // How well the replay tracks the program: replayed layer time over the
  // program's own stage wall (the replay runs models one after another,
  // the program max_parallel_tasks at a time), and exact agreement of
  // replayed quality and recommendation files.
  const double train_stage_s = StageMicros(*in.report, "train") * 1e-6;
  const double inference_stage_s = StageMicros(*in.report, "inference") * 1e-6;
  const double train_ratio =
      train_stage_s > 0 ? Seconds(totals, "replay.train") / train_stage_s : 0.0;
  const double inference_ratio =
      inference_stage_s > 0
          ? Seconds(totals, "replay.inference") / inference_stage_s
          : 0.0;
  layers->Set("obs.replay_train_ratio", train_ratio, "ratio");
  layers->Set("obs.replay_inference_ratio", inference_ratio, "ratio");
  std::printf(
      "replay: %lld models (%lld/%lld reproduce the program's MAP@10 "
      "exactly), %lld batches (%lld/%lld byte-identical to the program's), "
      "%lld ledger entries\n",
      static_cast<long long>(train.records),
      static_cast<long long>(train.quality_matches),
      static_cast<long long>(train.records),
      static_cast<long long>(inference.retailers),
      static_cast<long long>(inference.batch_matches),
      static_cast<long long>(inference.retailers),
      static_cast<long long>(ledger_entries));
  std::printf(
      "replay vs program: core train time / train stage = %.3f, core "
      "inference time / inference stage = %.3f\n",
      train_ratio, inference_ratio);
  if (train.records == 0 || inference.retailers == 0) {
    result->Fail("replay found no models to replay");
  }
}

}  // namespace perfbench
