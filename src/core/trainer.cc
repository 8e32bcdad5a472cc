#include "core/trainer.h"

#include <atomic>
#include <cmath>
#include <optional>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace sigmund::core {

namespace {

double Softplus(double z) {
  // Numerically stable log(1 + exp(z)).
  if (z > 30.0) return z;
  if (z < -30.0) return 0.0;
  return std::log1p(std::exp(z));
}

}  // namespace

BprTrainer::BprTrainer(BprModel* model, const TrainingData* data,
                       const NegativeSampler* sampler)
    : model_(model), data_(data), sampler_(sampler) {
  SIGCHECK(model != nullptr);
  SIGCHECK(data != nullptr);
  SIGCHECK(sampler != nullptr);
}

void BprTrainer::Scratch::Resize(int dim, int window) {
  for (std::vector<float>* buffer : {&u, &phi_i, &phi_j, &diff, &grad}) {
    buffer->resize(dim);
  }
  context.reserve(window);
}

void BprTrainer::UpdateRow(EmbeddingMatrix* table, int row, const float* dir,
                           float scale, float lambda, float* grad) {
  const int d = model_->dim();
  float* w = table->row(row);

  // One pass computes the gradient and its squared norm. Blocks of four
  // with four partial sums let the compiler vectorize it.
  float n0 = 0.0f, n1 = 0.0f, n2 = 0.0f, n3 = 0.0f;
  int k = 0;
  for (; k + 4 <= d; k += 4) {
    const float g0 = scale * dir[k] - lambda * w[k];
    const float g1 = scale * dir[k + 1] - lambda * w[k + 1];
    const float g2 = scale * dir[k + 2] - lambda * w[k + 2];
    const float g3 = scale * dir[k + 3] - lambda * w[k + 3];
    grad[k] = g0;
    grad[k + 1] = g1;
    grad[k + 2] = g2;
    grad[k + 3] = g3;
    n0 += g0 * g0;
    n1 += g1 * g1;
    n2 += g2 * g2;
    n3 += g3 * g3;
  }
  for (; k < d; ++k) {
    grad[k] = scale * dir[k] - lambda * w[k];
    n0 += grad[k] * grad[k];
  }
  float step = static_cast<float>(model_->params().learning_rate);
  if (model_->params().use_adagrad) {
    // Row-wise Adagrad: accumulate the squared norm of this row's gradient
    // ("the sum of the norms of its updates", §III-C1), damping frequently
    // updated rows.
    // Benign race under Hogwild.
    float& acc = table->adagrad(row);
    acc += (n0 + n1) + (n2 + n3);
    step /= std::sqrt(1e-6f + acc);
  }
  AddScaled(step, grad, d, w);
}

double BprTrainer::ApplyUpdate(const Context& context,
                               data::ItemIndex positive,
                               data::ItemIndex negative, Scratch* scratch) {
  const int d = model_->dim();
  const HyperParams& params = model_->params();
  const float* u = scratch->u.data();
  float* diff = scratch->diff.data();
  float* grad = scratch->grad.data();

  model_->ItemRepresentation(positive, scratch->phi_i.data());
  model_->ItemRepresentation(negative, scratch->phi_j.data());

  double x = 0.0;
  for (int k = 0; k < d; ++k) {
    diff[k] = scratch->phi_i[k] - scratch->phi_j[k];
    x += static_cast<double>(u[k]) * diff[k];
  }
  const double loss = Softplus(-x);
  const double s = 1.0 / (1.0 + std::exp(x));  // sigma(-x)

  // --- Item-side updates: every additive component of phi gets the same
  // gradient direction (hierarchical additive model).
  const float lambda_v = static_cast<float>(params.lambda_v);
  auto update_item_side = [&](data::ItemIndex item, double sign) {
    const float scale = static_cast<float>(sign * s);
    UpdateRow(&model_->item_embeddings(), item, u, scale, lambda_v, grad);
    const data::Item& meta = model_->catalog().item(item);
    if (params.use_taxonomy) {
      for (data::CategoryId a :
           model_->catalog().taxonomy().PathToRoot(meta.category)) {
        UpdateRow(&model_->taxonomy_embeddings(), a, u, scale, lambda_v,
                  grad);
      }
    }
    if (params.use_brand && meta.brand != data::kUnknownBrand &&
        meta.brand < model_->brand_embeddings().rows()) {
      UpdateRow(&model_->brand_embeddings(), meta.brand, u, scale, lambda_v,
                grad);
    }
    if (params.use_price) {
      int bucket = data::PriceBucket(meta.price, data::kDefaultPriceBuckets);
      if (bucket >= 0) {
        UpdateRow(&model_->price_embeddings(), bucket, u, scale, lambda_v,
                  grad);
      }
    }
  };
  update_item_side(positive, +1.0);
  update_item_side(negative, -1.0);

  // --- Context-side updates: vC of each context item, weighted by its
  // decay weight (gradient of u = sum_m w_m vC_m w.r.t. vC_m is w_m).
  const int window = params.context_window;
  const int n = std::min<int>(window, static_cast<int>(context.size()));
  const int start = static_cast<int>(context.size()) - n;
  const std::span<const float> weights = model_->ContextWeights(n);
  const float lambda_vc = static_cast<float>(params.lambda_vc);
  for (int m = 0; m < n; ++m) {
    UpdateRow(&model_->context_embeddings(), context[start + m].item, diff,
              static_cast<float>(s * weights[m]), lambda_vc, grad);
  }
  return loss;
}

double BprTrainer::Step(const Context& context, data::ItemIndex positive,
                        data::ItemIndex negative, Rng* /*rng*/) {
  SIGCHECK(!context.empty());
  thread_local Scratch scratch;
  scratch.Resize(model_->dim(), model_->params().context_window);
  model_->UserEmbedding(context, scratch.u.data());
  return ApplyUpdate(context, positive, negative, &scratch);
}

double BprTrainer::SampleAndStep(Rng* rng, Scratch* scratch) {
  const HyperParams& params = model_->params();
  TrainingData::Position pos = data_->SamplePosition(rng);
  const data::Interaction& event = data_->EventAt(pos);
  data_->ContextAt(pos, params.context_window, &scratch->context);
  if (scratch->context.empty()) return -1.0;
  // The user vector is computed once: the sampler and the update read the
  // same model state.
  model_->UserEmbedding(scratch->context, scratch->u.data());

  data::ItemIndex negative = data::kInvalidItem;
  // Tier constraint: with some probability, and when the positive action
  // is above the weakest tier, contrast against one of the user's own
  // lower-tier items (search > view, cart > search, conversion > cart).
  if (data::ActionStrength(event.action) > 0 &&
      rng->Bernoulli(params.tier_constraint_fraction)) {
    negative = data_->SampleLowerTierItem(pos.user, event.action, rng);
    if (negative == event.item) negative = data::kInvalidItem;
  }
  if (negative == data::kInvalidItem) {
    negative = sampler_->Sample(*data_, pos.user, scratch->u.data(),
                                event.item, rng);
  }
  if (negative == data::kInvalidItem || negative == event.item) return -1.0;
  return ApplyUpdate(scratch->context, event.item, negative, scratch);
}

TrainStats BprTrainer::Train(const Options& options) {
  TrainStats stats;
  const HyperParams& params = model_->params();
  const int64_t default_steps = data_->num_positions();
  const int64_t steps_per_epoch =
      options.steps_per_epoch > 0 ? options.steps_per_epoch : default_steps;
  if (steps_per_epoch == 0) return stats;

  const int threads = std::max(1, options.num_threads);
  // A single-threaded run works through the chunks in order on the
  // calling thread: the same chunks and seeds a one-worker pool would run,
  // without spawning a thread per call.
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  const int64_t chunks = static_cast<int64_t>(threads) * 4;
  const int first_epoch = std::max(0, options.first_epoch);
  const int end_epoch = options.num_epochs > 0
                            ? first_epoch + options.num_epochs
                            : params.num_epochs;

  for (int epoch = first_epoch; epoch < end_epoch; ++epoch) {
    std::atomic<double> loss_sum{0.0};
    std::atomic<int64_t> done{0}, skipped{0};
    auto run_chunk = [&](int64_t c) {
      // Per-chunk RNG: deterministic in (seed, epoch, chunk) for
      // single-threaded runs; Hogwild interleaving is inherently
      // nondeterministic across threads.
      Rng rng(SplitMix64(params.seed + 1) ^
              SplitMix64(static_cast<uint64_t>(epoch) * 1000003ULL + c));
      Scratch scratch;
      scratch.Resize(model_->dim(), params.context_window);
      int64_t my_steps =
          steps_per_epoch / chunks + (c < steps_per_epoch % chunks ? 1 : 0);
      double local_loss = 0.0;
      int64_t local_done = 0, local_skipped = 0;
      for (int64_t i = 0; i < my_steps; ++i) {
        double loss = SampleAndStep(&rng, &scratch);
        if (loss < 0.0) {
          ++local_skipped;
        } else {
          local_loss += loss;
          ++local_done;
        }
      }
      loss_sum.fetch_add(local_loss);
      done.fetch_add(local_done);
      skipped.fetch_add(local_skipped);
    };
    if (pool.has_value()) {
      pool->ParallelFor(chunks, run_chunk);
    } else {
      for (int64_t c = 0; c < chunks; ++c) run_chunk(c);
    }

    stats.epochs_run = epoch - first_epoch + 1;
    stats.sgd_steps += done.load();
    stats.skipped_steps += skipped.load();
    stats.last_epoch_loss =
        done.load() > 0 ? loss_sum.load() / done.load() : 0.0;
    if (options.epoch_callback && !options.epoch_callback(epoch, stats)) {
      break;
    }
  }
  return stats;
}

}  // namespace sigmund::core
