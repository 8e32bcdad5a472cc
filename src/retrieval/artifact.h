#ifndef SIGMUND_RETRIEVAL_ARTIFACT_H_
#define SIGMUND_RETRIEVAL_ARTIFACT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/model.h"
#include "data/types.h"
#include "retrieval/index.h"

namespace sigmund::retrieval {

// The versioned, durable unit the index-builder stage publishes per
// retailer per day: everything the online reader needs to answer a query
// without touching the model — the ANN index over the item-side vectors
// phi(i) and the query-side context-embedding table with its decay
// parameters (mirroring BprModel::UserEmbedding, so the online query
// embedding is bit-identical to what training scored with).
//
// Stored CRC-framed via sfs::WriteChecksummedFile; a torn or truncated
// artifact surfaces as kDataLoss at stage time and the reader keeps
// serving the previous version.
struct IndexArtifact {
  data::RetailerId retailer = 0;
  int dim = 0;
  // Query-side context model (HyperParams::context_window/context_decay
  // of the model the artifact was built from).
  int context_window = 25;
  double context_decay = 0.85;
  // Decay weights for context_window/context_decay, computed once by
  // BuildArtifactFromFactors and Deserialize (the same table type
  // BprModel scores with).
  core::ContextWeightTable context_weights;

  // Item-side: ANN index over phi(i) for every catalog item.
  AnnIndex index;

  // Query-side: one embedding per item (row-major, num_context_rows x
  // dim) — the model's context table for BPR, or the item factors
  // themselves for WRMF-style two-sided factorizations.
  int num_context_rows = 0;
  std::vector<float> context_vectors;

  // Writes the context-derived query embedding into out[dim], using the
  // last `context_window` entries weighted by `context_weights` — the same
  // arithmetic as BprModel::UserEmbedding. Entries referencing items
  // outside [0, num_context_rows) are skipped (catalog grew since the
  // artifact was built).
  void QueryEmbedding(const core::Context& context, float* out) const;

  // Payload + "SIDX" header; wrap in a checksummed frame for storage.
  std::string Serialize() const;
  static StatusOr<IndexArtifact> Deserialize(const std::string& bytes);
};

// Immutable per-version artifact location (DESIGN.md §13), alongside
// models/ and recommendations/: the daily run publishes each index
// version here, and crash rehydration re-stages retained versions from
// these.
std::string IndexArtifactVersionPath(data::RetailerId retailer,
                                     int64_t version);

// Snapshots a trained BPR model into an artifact: exports phi(i) per
// item (item embedding + additive taxonomy/brand/price features, exactly
// what inference scores with) as the indexed vectors and the context
// table as the query side.
IndexArtifact BuildArtifactFromModel(data::RetailerId retailer,
                                     const core::BprModel& model,
                                     const AnnIndex::Options& options);

// Builds an artifact straight from factor matrices (both row-major,
// rows x dim) — the WRMF path, where `item_vectors` are the item factors
// and `query_vectors` whatever the query embedding should be averaged
// over (for WRMF, the item factors again: a context is folded in as a
// decayed sum of its items' factors).
IndexArtifact BuildArtifactFromFactors(data::RetailerId retailer,
                                       const std::vector<float>& item_vectors,
                                       const std::vector<float>& query_vectors,
                                       int dim, int context_window,
                                       double context_decay,
                                       const AnnIndex::Options& options);

}  // namespace sigmund::retrieval

#endif  // SIGMUND_RETRIEVAL_ARTIFACT_H_
