#include "retrieval/reader.h"

#include <algorithm>
#include <utility>

namespace sigmund::retrieval {

OnlineRetrievalReader::OnlineRetrievalReader(const Options& options,
                                             obs::MetricRegistry* metrics)
    : options_(options),
      chain_("retrieval index", options.retained_versions) {
  obs::RequireRegistry(metrics, "OnlineRetrievalReader");
  queries_ok_ =
      metrics->GetCounter("retrieval_queries_total", {{"outcome", "ok"}});
  queries_error_ =
      metrics->GetCounter("retrieval_queries_total", {{"outcome", "error"}});
  candidates_scanned_ = metrics->GetHistogram("retrieval_candidates_scanned");
}

int64_t OnlineRetrievalReader::StageArtifact(data::RetailerId retailer,
                                             IndexArtifact artifact,
                                             int64_t version) {
  return chain_.Stage(
      retailer, std::make_shared<const IndexArtifact>(std::move(artifact)),
      version);
}

StatusOr<int64_t> OnlineRetrievalReader::StageFromFile(
    data::RetailerId retailer, const sfs::SharedFileSystem& fs,
    const std::string& path, const RetryPolicy& policy,
    sfs::ReliableIoCounters* io, int64_t version) {
  StatusOr<std::string> payload =
      sfs::ReadChecksummedFile(&fs, path, policy, io);
  if (!payload.ok()) return payload.status();
  StatusOr<IndexArtifact> artifact = IndexArtifact::Deserialize(*payload);
  if (!artifact.ok()) {
    // CRC passed but the payload is incoherent — count it with the same
    // severity as a torn frame: the artifact never becomes servable.
    if (io != nullptr) io->corruptions_detected->Add(1);
    return artifact.status();
  }
  return StageArtifact(retailer, std::move(artifact).value(), version);
}

StatusOr<std::vector<core::ScoredItem>> OnlineRetrievalReader::ServeContext(
    data::RetailerId retailer, const core::Context& context) const {
  return ServeContextAtVersion(retailer, context, 0);
}

StatusOr<std::vector<core::ScoredItem>> OnlineRetrievalReader::ServeContext(
    data::RetailerId retailer, const core::Context& context,
    obs::TraceContext trace) const {
  return ServeContextAtVersion(retailer, context, 0, trace);
}

StatusOr<std::vector<core::ScoredItem>>
OnlineRetrievalReader::ServeContextAtVersion(data::RetailerId retailer,
                                             const core::Context& context,
                                             int64_t version,
                                             obs::TraceContext trace) const {
  if (context.empty()) {
    queries_error_->Add(1);
    return InvalidArgumentError("empty context");
  }
  std::shared_ptr<const IndexArtifact> artifact =
      chain_.Find(retailer, version);
  if (artifact == nullptr) {
    queries_error_->Add(1);
    return NotFoundError("no retrieval index for retailer");
  }

  std::vector<float> query(artifact->dim);
  artifact->QueryEmbedding(context, query.data());

  // Over-fetch by the context length so dropping already-seen items (the
  // query item itself would otherwise top the list) still leaves top_k.
  const int fetch =
      options_.top_k + static_cast<int>(std::min<size_t>(
                           context.size(), artifact->index.num_items()));
  SearchStats stats;
  std::vector<core::ScoredItem> found =
      artifact->index.Search(query.data(), fetch, options_.nprobe, &stats);

  std::vector<core::ScoredItem> items;
  items.reserve(options_.top_k);
  for (const core::ScoredItem& item : found) {
    if (static_cast<int>(items.size()) >= options_.top_k) break;
    bool seen = false;
    for (const core::ContextEntry& entry : context) {
      if (entry.item == item.item) {
        seen = true;
        break;
      }
    }
    if (!seen) items.push_back(item);
  }

  if (trace.active()) {
    trace.Annotate("nprobe", std::to_string(options_.nprobe));
    trace.Annotate("lists_probed", std::to_string(stats.lists_probed));
    trace.Annotate("candidates_scanned",
                   std::to_string(stats.candidates_scanned));
  }
  queries_ok_->Add(1);
  candidates_scanned_->Observe(static_cast<double>(stats.candidates_scanned));
  return items;
}

}  // namespace sigmund::retrieval
