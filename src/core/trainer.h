#ifndef SIGMUND_CORE_TRAINER_H_
#define SIGMUND_CORE_TRAINER_H_

#include <functional>

#include "core/model.h"
#include "core/negative_sampler.h"
#include "core/training_data.h"

namespace sigmund::core {

// Progress of a training run.
struct TrainStats {
  int epochs_run = 0;
  int64_t sgd_steps = 0;
  int64_t skipped_steps = 0;   // no valid negative / empty context
  double last_epoch_loss = 0.0;  // mean BPR loss over the last epoch
};

// Multi-threaded (Hogwild [26]) SGD trainer for BprModel (§III-B1,
// §IV-B2). All threads update the shared parameter arrays without locks;
// conflicting writes are benign races, as in the original Hogwild scheme.
//
// Per SGD step, with probability params.tier_constraint_fraction the
// negative comes from the user's own lower-tier items (the tier
// constraints of §III-B1); otherwise from the configured NegativeSampler.
class BprTrainer {
 public:
  struct Options {
    // Hogwild threads; 1 trains on the calling thread, deterministically.
    int num_threads = 1;
    // Absolute index of the first epoch to run. Epoch e always draws the
    // sample streams seeded by (params.seed, e), so a model restored from
    // a checkpoint after epoch k and resumed with first_epoch = k + 1
    // replays exactly the epochs an uninterrupted run would have.
    int first_epoch = 0;
    // Epochs to run from first_epoch; <= 0 means up to (excluding)
    // model->params().num_epochs.
    int num_epochs = 0;
    // Steps per epoch; <= 0 means one step per training position.
    int64_t steps_per_epoch = 0;
    // Invoked after every epoch (from the coordinating thread) with the
    // epoch's absolute index. Return false to stop early. Used by the
    // pipeline for time-based checkpointing and by early-convergence
    // experiments.
    std::function<bool(int epoch, const TrainStats& stats)> epoch_callback;
  };

  // Does not take ownership; all pointers must outlive the trainer.
  BprTrainer(BprModel* model, const TrainingData* data,
             const NegativeSampler* sampler);

  // Runs the epochs options select (or until the callback stops it) and
  // returns aggregate stats over them.
  TrainStats Train(const Options& options);

  // Runs one SGD step on the given example triple (context, positive,
  // negative); exposed for unit tests of the update rule. Returns the BPR
  // loss of the example *before* the update.
  double Step(const Context& context, data::ItemIndex positive,
              data::ItemIndex negative, Rng* rng);

 private:
  // Buffers one SGD loop (a Train() chunk, or one thread's Step() calls)
  // reuses across steps, so a step allocates nothing.
  struct Scratch {
    // Sizes the vectors to the model dimension and reserves a full
    // context window.
    void Resize(int dim, int window);
    Context context;
    std::vector<float> u, phi_i, phi_j, diff, grad;
  };

  // One SGD step sampled from the data; returns loss or -1 if skipped.
  double SampleAndStep(Rng* rng, Scratch* scratch);

  // Applies the pairwise update for the user vector scratch->u of
  // `context`.
  double ApplyUpdate(const Context& context, data::ItemIndex positive,
                     data::ItemIndex negative, Scratch* scratch);

  // Adds the gradient scale * dir - lambda * w into a row with an
  // Adagrad-scaled learning rate; `grad` is dim() floats of scratch.
  void UpdateRow(EmbeddingMatrix* table, int row, const float* dir,
                 float scale, float lambda, float* grad);

  BprModel* model_;
  const TrainingData* data_;
  const NegativeSampler* sampler_;
};

}  // namespace sigmund::core

#endif  // SIGMUND_CORE_TRAINER_H_
