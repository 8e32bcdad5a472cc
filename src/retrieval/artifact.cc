#include "retrieval/artifact.h"

#include <algorithm>

#include "common/binary_io.h"
#include "common/string_util.h"

namespace sigmund::retrieval {

namespace {

// "SIDX" little-endian, the artifact's own magic inside the CRC frame —
// catches a checksummed-but-wrong blob (e.g. a model file staged at the
// index path) before any field is trusted.
constexpr uint32_t kArtifactMagic = 0x58444953u;
constexpr uint32_t kArtifactVersion = 1;

}  // namespace

void IndexArtifact::QueryEmbedding(const core::Context& context,
                                   float* out) const {
  for (int k = 0; k < dim; ++k) out[k] = 0.0f;
  if (context.empty() || context_window <= 0) return;

  const int n =
      std::min<int>(context_window, static_cast<int>(context.size()));
  const int start = static_cast<int>(context.size()) - n;
  const std::span<const float> weights = context_weights.Weights(n);
  for (int j = 0; j < n; ++j) {
    const data::ItemIndex item = context[start + j].item;
    if (item < 0 || item >= num_context_rows) continue;
    const float* vc =
        context_vectors.data() + static_cast<size_t>(item) * dim;
    for (int k = 0; k < dim; ++k) out[k] += weights[j] * vc[k];
  }
}

std::string IndexArtifact::Serialize() const {
  BinaryWriter writer;
  writer.Write<uint32_t>(kArtifactMagic);
  writer.Write<uint32_t>(kArtifactVersion);
  writer.Write<int32_t>(retailer);
  writer.Write<int32_t>(dim);
  writer.Write<int32_t>(context_window);
  writer.Write<double>(context_decay);
  index.SerializeTo(&writer);
  writer.Write<int32_t>(num_context_rows);
  writer.WriteVector(context_vectors);
  return writer.Take();
}

StatusOr<IndexArtifact> IndexArtifact::Deserialize(const std::string& bytes) {
  BinaryReader reader(bytes);
  uint32_t magic = 0, version = 0;
  if (!reader.Read(&magic) || magic != kArtifactMagic) {
    return DataLossError("bad index artifact magic");
  }
  if (!reader.Read(&version) || version != kArtifactVersion) {
    return DataLossError("unsupported index artifact version");
  }
  IndexArtifact artifact;
  int32_t retailer = 0, dim = 0, window = 0;
  if (!reader.Read(&retailer) || !reader.Read(&dim) ||
      !reader.Read(&window) || !reader.Read(&artifact.context_decay)) {
    return DataLossError("truncated index artifact header");
  }
  artifact.retailer = retailer;
  artifact.dim = dim;
  artifact.context_window = window;
  if (window < 0 || window > core::kMaxContextWindow) {
    return DataLossError("index artifact context window out of range");
  }
  artifact.context_weights =
      core::ContextWeightTable(window, artifact.context_decay);
  StatusOr<AnnIndex> index = AnnIndex::DeserializeFrom(&reader);
  if (!index.ok()) return index.status();
  artifact.index = std::move(index).value();
  int32_t context_rows = 0;
  if (!reader.Read(&context_rows) ||
      !reader.ReadVector(&artifact.context_vectors) || !reader.Done()) {
    return DataLossError("truncated index artifact payload");
  }
  artifact.num_context_rows = context_rows;
  if (dim <= 0 || artifact.index.dim() != dim ||
      context_rows < 0 ||
      artifact.context_vectors.size() !=
          static_cast<size_t>(context_rows) * static_cast<size_t>(dim)) {
    return DataLossError("inconsistent index artifact");
  }
  return artifact;
}

std::string IndexArtifactVersionPath(data::RetailerId retailer,
                                     int64_t version) {
  return StrFormat("retrieval/r%d.v%06lld", retailer,
                   static_cast<long long>(version));
}

IndexArtifact BuildArtifactFromModel(data::RetailerId retailer,
                                     const core::BprModel& model,
                                     const AnnIndex::Options& options) {
  const int dim = model.dim();
  const int n = model.num_items();
  std::vector<float> item_vectors(static_cast<size_t>(n) * dim);
  std::vector<float> phi(dim);
  for (int i = 0; i < n; ++i) {
    model.ItemRepresentation(static_cast<data::ItemIndex>(i), phi.data());
    std::copy_n(phi.data(), dim,
                item_vectors.data() + static_cast<size_t>(i) * dim);
  }
  return BuildArtifactFromFactors(
      retailer, item_vectors, model.context_embeddings().values(), dim,
      model.params().context_window, model.params().context_decay, options);
}

IndexArtifact BuildArtifactFromFactors(data::RetailerId retailer,
                                       const std::vector<float>& item_vectors,
                                       const std::vector<float>& query_vectors,
                                       int dim, int context_window,
                                       double context_decay,
                                       const AnnIndex::Options& options) {
  IndexArtifact artifact;
  artifact.retailer = retailer;
  artifact.dim = dim;
  artifact.context_window = context_window;
  artifact.context_decay = context_decay;
  artifact.context_weights =
      core::ContextWeightTable(context_window, context_decay);
  artifact.index = AnnIndex::Build(item_vectors, dim, options);
  artifact.num_context_rows =
      dim > 0 ? static_cast<int>(query_vectors.size()) / dim : 0;
  artifact.context_vectors = query_vectors;
  return artifact;
}

}  // namespace sigmund::retrieval
