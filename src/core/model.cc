#include "core/model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace sigmund::core {

namespace {

// Serialization framing.
constexpr uint32_t kMagic = 0x5349474dU;  // "SIGM"
constexpr uint32_t kVersion = 1;

void AppendBytes(std::string* out, const void* data, size_t size) {
  if (size == 0) return;  // empty vectors have null data()
  out->append(static_cast<const char*>(data), size);
}

template <typename T>
void AppendValue(std::string* out, T value) {
  AppendBytes(out, &value, sizeof(value));
}

template <typename T>
bool ReadValue(const std::string& in, size_t* offset, T* value) {
  if (*offset + sizeof(T) > in.size()) return false;
  std::memcpy(value, in.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

void AppendFloats(std::string* out, const std::vector<float>& values) {
  AppendValue<uint64_t>(out, values.size());
  AppendBytes(out, values.data(), values.size() * sizeof(float));
}

bool ReadFloats(const std::string& in, size_t* offset,
                std::vector<float>* values) {
  uint64_t count = 0;
  if (!ReadValue(in, offset, &count)) return false;
  // Bounded by the bytes left, so a hostile count cannot wrap the sum.
  if (count > (in.size() - *offset) / sizeof(float)) return false;
  values->resize(count);
  if (count > 0) {
    std::memcpy(values->data(), in.data() + *offset, count * sizeof(float));
  }
  *offset += count * sizeof(float);
  return true;
}

// Training only ever writes finite values and sums of squares, so a
// non-finite value or a negative accumulator marks a forged or corrupt
// table.
bool ValidTableValues(const std::vector<float>& values,
                      const std::vector<float>& adagrad) {
  return std::all_of(values.begin(), values.end(),
                     [](float v) { return std::isfinite(v); }) &&
         std::all_of(adagrad.begin(), adagrad.end(),
                     [](float a) { return std::isfinite(a) && a >= 0.0f; });
}

}  // namespace

void EmbeddingMatrix::Resize(int rows, int dim) {
  SIGCHECK_GE(rows, 0);
  SIGCHECK_GT(dim, 0);
  rows_ = rows;
  dim_ = dim;
  values_.assign(static_cast<size_t>(rows) * dim, 0.0f);
  adagrad_.assign(rows, 0.0f);
}

void EmbeddingMatrix::GrowRows(int rows, double stddev, Rng* rng) {
  SIGCHECK_GE(rows, rows_);
  int old_rows = rows_;
  rows_ = rows;
  values_.resize(static_cast<size_t>(rows) * dim_, 0.0f);
  adagrad_.resize(rows, 0.0f);
  for (int r = old_rows; r < rows; ++r) {
    float* v = row(r);
    for (int k = 0; k < dim_; ++k) {
      v[k] = static_cast<float>(rng->Gaussian(0.0, stddev));
    }
  }
}

void EmbeddingMatrix::InitRandom(double stddev, Rng* rng) {
  for (float& v : values_) {
    v = static_cast<float>(rng->Gaussian(0.0, stddev));
  }
  ResetAdagrad();
}

void EmbeddingMatrix::ResetAdagrad() {
  std::fill(adagrad_.begin(), adagrad_.end(), 0.0f);
}

ContextWeightTable::ContextWeightTable(int window, double decay)
    : window_(window) {
  SIGCHECK_GE(window, 0);
  SIGCHECK_LE(window, kMaxContextWindow);
  weights_.resize(static_cast<size_t>(window) * (window + 1) / 2);
  for (int n = 1; n <= window; ++n) {
    float* row = weights_.data() + static_cast<size_t>(n) * (n - 1) / 2;
    double total = 0.0;
    for (int j = 0; j < n; ++j) {
      double w = std::pow(decay, n - 1 - j);
      row[j] = static_cast<float>(w);
      total += w;
    }
    if (total > 0.0) {
      for (int j = 0; j < n; ++j) row[j] = static_cast<float>(row[j] / total);
    }
  }
}

BprModel::BprModel(const data::Catalog* catalog, const HyperParams& params)
    : catalog_(catalog),
      params_(params),
      context_weights_(params.context_window, params.context_decay) {
  SIGCHECK(catalog != nullptr);
  SIGCHECK_GT(params.num_factors, 0);
  const int dim = params.num_factors;
  item_emb_.Resize(catalog->num_items(), dim);
  context_emb_.Resize(catalog->num_items(), dim);
  taxonomy_emb_.Resize(
      params.use_taxonomy ? catalog->taxonomy().num_categories() : 0, dim);
  brand_emb_.Resize(params.use_brand ? catalog->num_brands() : 0, dim);
  price_emb_.Resize(params.use_price ? data::kDefaultPriceBuckets : 0, dim);
}

void BprModel::InitRandom(Rng* rng) {
  const double stddev = params_.init_scale / std::sqrt(dim());
  item_emb_.InitRandom(stddev, rng);
  context_emb_.InitRandom(stddev, rng);
  taxonomy_emb_.InitRandom(stddev, rng);
  brand_emb_.InitRandom(stddev, rng);
  price_emb_.InitRandom(stddev, rng);
}

void BprModel::ItemRepresentation(data::ItemIndex i, float* out) const {
  const int d = dim();
  std::memcpy(out, item_emb_.row(i), d * sizeof(float));

  const data::Item& item = catalog_->item(i);
  if (params_.use_taxonomy && taxonomy_emb_.rows() > 0) {
    for (data::CategoryId a : catalog_->taxonomy().PathToRoot(item.category)) {
      AddScaled(1.0f, taxonomy_emb_.row(a), d, out);
    }
  }
  if (params_.use_brand && item.brand != data::kUnknownBrand &&
      item.brand < brand_emb_.rows()) {
    AddScaled(1.0f, brand_emb_.row(item.brand), d, out);
  }
  if (params_.use_price) {
    int bucket = data::PriceBucket(item.price, data::kDefaultPriceBuckets);
    if (bucket >= 0) AddScaled(1.0f, price_emb_.row(bucket), d, out);
  }
}

void BprModel::UserEmbedding(const Context& context, float* out) const {
  const int d = dim();
  for (int k = 0; k < d; ++k) out[k] = 0.0f;
  if (context.empty()) return;

  const int window = params_.context_window;
  const int n = std::min<int>(window, static_cast<int>(context.size()));
  const int start = static_cast<int>(context.size()) - n;
  const std::span<const float> weights = ContextWeights(n);
  for (int j = 0; j < n; ++j) {
    AddScaled(weights[j], context_emb_.row(context[start + j].item), d, out);
  }
}

double BprModel::Score(const float* user_vec, data::ItemIndex i) const {
  // phi(i) lives on the stack up to kStackDim factors, so scoring (the
  // adaptive sampler's inner loop) allocates nothing on any thread, the
  // first call included; wider models reuse a per-thread buffer.
  constexpr int kStackDim = 256;
  float stack_phi[kStackDim];
  float* phi = stack_phi;
  if (dim() > kStackDim) {
    thread_local std::vector<float> wide_phi;
    wide_phi.resize(dim());
    phi = wide_phi.data();
  }
  ItemRepresentation(i, phi);
  return ScoreWithPhi(user_vec, phi);
}

std::vector<float> BprModel::BuildPhiTable() const {
  const int d = dim();
  const int n = catalog_->num_items();
  std::vector<float> table(static_cast<size_t>(n) * d);
  for (data::ItemIndex i = 0; i < n; ++i) {
    ItemRepresentation(i, table.data() + static_cast<size_t>(i) * d);
  }
  return table;
}

int BprModel::ResizeForCatalog(Rng* rng) {
  const int added = catalog_->num_items() - item_emb_.rows();
  SIGCHECK_GE(added, 0);
  if (added == 0) return 0;
  const double stddev = params_.init_scale / std::sqrt(dim());
  item_emb_.GrowRows(catalog_->num_items(), stddev, rng);
  context_emb_.GrowRows(catalog_->num_items(), stddev, rng);
  if (params_.use_brand && catalog_->num_brands() > brand_emb_.rows()) {
    brand_emb_.GrowRows(catalog_->num_brands(), stddev, rng);
  }
  return added;
}

void BprModel::ResetAdagrad() {
  item_emb_.ResetAdagrad();
  context_emb_.ResetAdagrad();
  taxonomy_emb_.ResetAdagrad();
  brand_emb_.ResetAdagrad();
  price_emb_.ResetAdagrad();
}

int64_t BprModel::MemoryBytes() const {
  return item_emb_.MemoryBytes() + context_emb_.MemoryBytes() +
         taxonomy_emb_.MemoryBytes() + brand_emb_.MemoryBytes() +
         price_emb_.MemoryBytes();
}

std::string BprModel::Serialize() const {
  std::string out;
  AppendValue(&out, kMagic);
  AppendValue(&out, kVersion);
  std::string params_text = params_.Serialize();
  AppendValue<uint64_t>(&out, params_text.size());
  out += params_text;
  for (const EmbeddingMatrix* m :
       {&item_emb_, &context_emb_, &taxonomy_emb_, &brand_emb_, &price_emb_}) {
    AppendValue<int32_t>(&out, m->rows());
    AppendValue<int32_t>(&out, m->dim());
    AppendFloats(&out, m->values());
    AppendFloats(&out, m->adagrad_values());
  }
  return out;
}

StatusOr<BprModel> BprModel::Deserialize(const std::string& bytes,
                                         const data::Catalog* catalog) {
  size_t offset = 0;
  uint32_t magic = 0, version = 0;
  if (!ReadValue(bytes, &offset, &magic) || magic != kMagic) {
    return DataLossError("bad model magic");
  }
  if (!ReadValue(bytes, &offset, &version) || version != kVersion) {
    return DataLossError("unsupported model version");
  }
  uint64_t params_size = 0;
  if (!ReadValue(bytes, &offset, &params_size) ||
      offset + params_size > bytes.size()) {
    return DataLossError("truncated model params");
  }
  StatusOr<HyperParams> params =
      HyperParams::Deserialize(bytes.substr(offset, params_size));
  if (!params.ok()) return params.status();
  if (params->num_factors <= 0 || params->context_window < 0 ||
      params->context_window > kMaxContextWindow) {
    return DataLossError("model params out of range");
  }
  offset += params_size;

  BprModel model(catalog, *params);
  for (EmbeddingMatrix* m :
       {&model.item_emb_, &model.context_emb_, &model.taxonomy_emb_,
        &model.brand_emb_, &model.price_emb_}) {
    int32_t rows = 0, dim = 0;
    if (!ReadValue(bytes, &offset, &rows) ||
        !ReadValue(bytes, &offset, &dim)) {
      return DataLossError("truncated model table header");
    }
    std::vector<float> values, adagrad;
    if (!ReadFloats(bytes, &offset, &values) ||
        !ReadFloats(bytes, &offset, &adagrad)) {
      return DataLossError("truncated model table data");
    }
    if (values.size() != static_cast<size_t>(rows) * dim ||
        adagrad.size() != static_cast<size_t>(rows)) {
      return DataLossError("model table size mismatch");
    }
    // A table is either absent (no rows, dim 0) or has the model's
    // dimension; rows without a dimension carry no values to score with.
    if (rows < 0 || (dim == 0 && rows != 0) ||
        (dim != 0 && dim != model.dim())) {
      return DataLossError("model factor-dimension mismatch");
    }
    if (!ValidTableValues(values, adagrad)) {
      return DataLossError("model table holds a non-finite value");
    }
    m->Resize(rows, dim == 0 ? model.dim() : dim);
    *m->mutable_values() = std::move(values);
    *m->mutable_adagrad() = std::move(adagrad);
  }
  // The serialized model may lag the live catalog (items added since the
  // checkpoint); that is allowed and handled by ResizeForCatalog. It must
  // never exceed it.
  if (model.item_emb_.rows() > catalog->num_items()) {
    return DataLossError("model has more items than catalog");
  }
  // Every table the scorer indexes must cover its ids: the context table
  // every item row, and an enabled taxonomy or price table every category
  // or bucket. (Brand rows are bounds-checked where they are read.)
  if (model.context_emb_.rows() != model.item_emb_.rows()) {
    return DataLossError("model context table does not match item table");
  }
  if (model.params_.use_taxonomy &&
      model.taxonomy_emb_.rows() < catalog->taxonomy().num_categories()) {
    return DataLossError("model taxonomy table misses categories");
  }
  if (model.params_.use_price &&
      model.price_emb_.rows() < data::kDefaultPriceBuckets) {
    return DataLossError("model price table misses buckets");
  }
  return model;
}

}  // namespace sigmund::core
