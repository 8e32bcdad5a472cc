#ifndef SIGMUND_CORE_MODEL_H_
#define SIGMUND_CORE_MODEL_H_

#include <stdint.h>

#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "core/hyperparams.h"
#include "data/catalog.h"
#include "data/types.h"

namespace sigmund::core {

// One (action, item) pair of a user's recent history; a Context is the
// sequence of the user's last K actions, oldest first (§III-B2).
struct ContextEntry {
  data::ItemIndex item = data::kInvalidItem;
  data::ActionType action = data::ActionType::kView;
};
using Context = std::vector<ContextEntry>;

// Longest context window a model or retrieval artifact may declare; bounds
// the ContextWeightTable (window * (window + 1) / 2 floats).
inline constexpr int kMaxContextWindow = 1024;

// Normalized geometric-decay context weights (§III-B2) for every context
// length 1..window, computed once. For length n the weights are, oldest
// first, w_j = decay^(n-1-j) / sum_m decay^(n-1-m): the newest entry has
// weight 1 before normalization. BprModel and the retrieval artifact both
// read their weights from one of these, so the online query embedding is
// bit-identical to the one training scored with.
class ContextWeightTable {
 public:
  ContextWeightTable() = default;
  ContextWeightTable(int window, double decay);

  int window() const { return window_; }

  // The n weights for a context of length n, 0 <= n <= window().
  std::span<const float> Weights(int n) const {
    SIGCHECK(n >= 0 && n <= window_);
    return {weights_.data() + static_cast<size_t>(n) * (n - 1) / 2,
            static_cast<size_t>(n)};
  }

 private:
  int window_ = 0;
  std::vector<float> weights_;  // rows for n = 1..window, back to back
};

// out[k] += scale * in[k] for k < d: the embedding kernels' inner loop.
// Blocks of four, each loaded before it is stored, let the compiler
// vectorize it; every element is still one multiply and one add, so the
// result matches the plain loop bit for bit (scale 1 is an exact add).
inline void AddScaled(float scale, const float* in, int d, float* out) {
  int k = 0;
  for (; k + 4 <= d; k += 4) {
    const float o0 = out[k] + scale * in[k];
    const float o1 = out[k + 1] + scale * in[k + 1];
    const float o2 = out[k + 2] + scale * in[k + 2];
    const float o3 = out[k + 3] + scale * in[k + 3];
    out[k] = o0;
    out[k + 1] = o1;
    out[k + 2] = o2;
    out[k + 3] = o3;
  }
  for (; k < d; ++k) out[k] += scale * in[k];
}

// Dense row-major float matrix holding one embedding per row, plus a
// per-row Adagrad accumulator (sum of squared gradient norms). Rows are
// updated lock-free by Hogwild threads.
class EmbeddingMatrix {
 public:
  EmbeddingMatrix() = default;
  EmbeddingMatrix(int rows, int dim) { Resize(rows, dim); }

  void Resize(int rows, int dim);
  // Grows to `rows`, Gaussian-initializing the new rows.
  void GrowRows(int rows, double stddev, Rng* rng);
  void InitRandom(double stddev, Rng* rng);

  int rows() const { return rows_; }
  int dim() const { return dim_; }
  float* row(int r) { return values_.data() + static_cast<size_t>(r) * dim_; }
  const float* row(int r) const {
    return values_.data() + static_cast<size_t>(r) * dim_;
  }
  float& adagrad(int r) { return adagrad_[r]; }
  float adagrad(int r) const { return adagrad_[r]; }
  void ResetAdagrad();

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(values_.capacity() * sizeof(float) +
                                adagrad_.capacity() * sizeof(float));
  }

  const std::vector<float>& values() const { return values_; }
  std::vector<float>* mutable_values() { return &values_; }
  std::vector<float>* mutable_adagrad() { return &adagrad_; }
  const std::vector<float>& adagrad_values() const { return adagrad_; }

 private:
  int rows_ = 0;
  int dim_ = 0;
  std::vector<float> values_;
  std::vector<float> adagrad_;
};

// The BPR factorization model with Sigmund's extensions: separate context
// embeddings (§III-B2) and hierarchical additive side features — taxonomy,
// brand, log-price bucket (§III-B4).
//
//   phi(i) = v_i [+ sum_{a in path(cat(i))} t_a] [+ b_brand(i)] [+ p_bucket(i)]
//   u      = sum_j w_j * vC_{I_j}          (w_j geometric decay, normalized)
//   x_ui   = <u, phi(i)>
//
// The model does NOT own the catalog; the caller keeps it alive.
class BprModel {
 public:
  BprModel(const data::Catalog* catalog, const HyperParams& params);

  // Gaussian-initializes all embedding tables from params().seed-derived
  // randomness.
  void InitRandom(Rng* rng);

  const HyperParams& params() const { return params_; }
  const data::Catalog& catalog() const { return *catalog_; }
  int dim() const { return params_.num_factors; }
  int num_items() const { return item_emb_.rows(); }

  // Writes phi(i) into out[dim()].
  void ItemRepresentation(data::ItemIndex i, float* out) const;

  // Writes the context-derived user embedding (Eq. 1) into out[dim()].
  // Uses the last params().context_window entries of `context`. A user
  // with empty context gets the zero vector.
  void UserEmbedding(const Context& context, float* out) const;

  // Affinity x_ui given a precomputed user vector. Score() builds phi(i)
  // on the fly, for a model that is still changing (adaptive negative
  // sampling); scoring many items against a fixed model goes through
  // BuildPhiTable() and ScoreWithPhi().
  double Score(const float* user_vec, data::ItemIndex i) const;
  double ScoreWithPhi(const float* user_vec, const float* phi) const {
    double sum = 0.0;
    for (int k = 0, d = dim(); k < d; ++k) {
      sum += static_cast<double>(user_vec[k]) * phi[k];
    }
    return sum;
  }

  // phi(i) for every catalog item, as a flat num_items*dim() row-major
  // table. A snapshot: it goes stale when the model trains further.
  std::vector<float> BuildPhiTable() const;

  // Mutable tables for the trainer.
  EmbeddingMatrix& item_embeddings() { return item_emb_; }
  EmbeddingMatrix& context_embeddings() { return context_emb_; }
  EmbeddingMatrix& taxonomy_embeddings() { return taxonomy_emb_; }
  EmbeddingMatrix& brand_embeddings() { return brand_emb_; }
  EmbeddingMatrix& price_embeddings() { return price_emb_; }
  const EmbeddingMatrix& item_embeddings() const { return item_emb_; }
  const EmbeddingMatrix& context_embeddings() const { return context_emb_; }
  const EmbeddingMatrix& taxonomy_embeddings() const { return taxonomy_emb_; }
  const EmbeddingMatrix& brand_embeddings() const { return brand_emb_; }
  const EmbeddingMatrix& price_embeddings() const { return price_emb_; }

  // Context weights for a context of length n <= params().context_window
  // (normalized, oldest first), from the table built with the model.
  std::span<const float> ContextWeights(int n) const {
    return context_weights_.Weights(n);
  }

  // Grows the item/context tables after catalog growth (daily new items,
  // §III-C3), Gaussian-initializing new rows. Returns #items added.
  int ResizeForCatalog(Rng* rng);

  // Resets every Adagrad accumulator to 0 — done at the start of each
  // incremental run (§III-C3).
  void ResetAdagrad();

  // Total parameter memory (drives the one-retailer-per-machine policy).
  int64_t MemoryBytes() const;

  // Binary (de)serialization of all tables + accumulators. The catalog is
  // NOT serialized; Deserialize validates dimensions against it.
  std::string Serialize() const;
  static StatusOr<BprModel> Deserialize(const std::string& bytes,
                                        const data::Catalog* catalog);

 private:
  const data::Catalog* catalog_;
  HyperParams params_;
  ContextWeightTable context_weights_;
  EmbeddingMatrix item_emb_;      // v_i
  EmbeddingMatrix context_emb_;   // vC_i
  EmbeddingMatrix taxonomy_emb_;  // t_a, one per category
  EmbeddingMatrix brand_emb_;     // b_b, one per brand
  EmbeddingMatrix price_emb_;     // p_k, one per price bucket
};

}  // namespace sigmund::core

#endif  // SIGMUND_CORE_MODEL_H_
