#ifndef SIGMUND_PIPELINE_CONFIG_RECORD_H_
#define SIGMUND_PIPELINE_CONFIG_RECORD_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/hyperparams.h"
#include "data/types.h"

namespace sigmund::pipeline {

// One model-training work item, flowing through the pipeline exactly as in
// §IV-A: "the sweep step ... outputs a set of config records containing
// the model number, training and validation dataset locations, and the
// values assigned to each of the hyperparameters. These config records
// form the input to the training step." The training job fills in the
// output metrics and emits the record again.
struct ConfigRecord {
  data::RetailerId retailer = 0;
  int model_number = 0;
  core::HyperParams params;

  // SFS location the trained model is written to (and read from for
  // warm starts / inference).
  std::string model_path;

  // Incremental run: initialize from the model currently at model_path.
  bool warm_start = false;

  // --- Output fields, filled by the training job.
  bool trained = false;
  // Training finished early — deadline budget or preemption budget
  // exhausted. The (partially trained) model is still committed so the
  // retailer stays servable, but model selection treats the retailer as
  // degraded: freshness suffers, availability never does.
  bool degraded = false;
  double map_at_10 = -1.0;
  double auc = -1.0;
  int epochs_run = 0;
  int64_t sgd_steps = 0;

  // Key used for MapReduce records ("r<retailer>/m<model>").
  std::string Key() const;

  std::string Serialize() const;
  static StatusOr<ConfigRecord> Deserialize(const std::string& text);
};

// Canonical SFS path layout for the pipeline.
std::string ModelPath(data::RetailerId retailer, int model_number);
std::string BestModelPath(data::RetailerId retailer);
std::string CheckpointDir(data::RetailerId retailer, int model_number);
std::string RecommendationPath(data::RetailerId retailer);
std::string SweepResultPath(data::RetailerId retailer);
// Immutable per-version copy of a recommendation batch (run ledger,
// DESIGN.md §13): RecommendationPath is overwritten by every day's
// inference, but crash rehydration and rollback need each retained
// version's bytes as they were staged. The "." separator keeps prefix
// listings of one retailer from matching another (r1. vs r10.).
std::string RecommendationVersionPath(data::RetailerId retailer,
                                      int64_t version);
// Scratch name for write-tmp-then-rename sequences; anything matching
// this suffix at startup is debris from a crash mid-write.
std::string TmpPath(const std::string& path);

}  // namespace sigmund::pipeline

#endif  // SIGMUND_PIPELINE_CONFIG_RECORD_H_
