#include "serving/store.h"

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/funnel.h"

namespace sigmund::serving {

int64_t RecommendationStore::StageRetailer(
    data::RetailerId retailer,
    const std::vector<core::ItemRecommendations>& recommendations,
    int64_t version) {
  return chain_.Stage(
      retailer,
      std::make_shared<const Shard>(Shard::FromLists(recommendations)),
      version);
}

void RecommendationStore::LoadRetailer(
    data::RetailerId retailer,
    const std::vector<core::ItemRecommendations>& recommendations) {
  const int64_t version = StageRetailer(retailer, recommendations);
  SIGCHECK(ActivateVersion(retailer, version).ok());
}

StatusOr<int64_t> RecommendationStore::StageRetailerFromFile(
    data::RetailerId retailer, const sfs::SharedFileSystem& fs,
    const std::string& path, const RetryPolicy& policy,
    sfs::ReliableIoCounters* io, int64_t version) {
  // Batch-load latency + outcome counters go to the registry behind the
  // caller's ReliableIoCounters, if one is given.
  const int64_t start_micros = io != nullptr ? io->clock->NowMicros() : 0;
  auto finish = [&](const char* outcome,
                    StatusOr<int64_t> result) -> StatusOr<int64_t> {
    if (io != nullptr) {
      io->metrics->GetHistogram("serving_batch_load_micros")
          ->Observe(static_cast<double>(io->clock->NowMicros() -
                                        start_micros));
      io->metrics
          ->GetCounter("serving_batch_loads_total", {{"outcome", outcome}})
          ->Add(1);
    }
    return result;
  };
  const RetryStats* retry_stats = sfs::RetryStatsOf(io);
  StatusOr<std::string> blob =
      RetryWithPolicy<std::string>(policy, retry_stats, [&] {
        return fs.Read(path);
      });
  if (!blob.ok()) return finish("error", blob.status());
  StatusOr<std::string> payload = ReadChecksummedFrame(*blob);
  if (!payload.ok()) {
    // Torn, bit-rotted or unframed batch: refuse it and keep serving the
    // previous version of this retailer's recommendations.
    if (io != nullptr) io->corruptions_detected->Add(1);
    return finish("rejected", payload.status());
  }
  StatusOr<core::RecommendationBatch> batch =
      core::RecommendationBatch::Decode(*payload);
  if (!batch.ok()) {
    // The frame checked out but its contents break the batch format's
    // rules: still a corrupt batch from serving's point of view. Previous
    // data stays.
    if (io != nullptr) io->corruptions_detected->Add(1);
    return finish("rejected",
                  DataLossError(StrFormat("corrupt recommendation batch %s: %s",
                                          path.c_str(),
                                          batch.status().message().c_str())));
  }
  const int64_t staged = chain_.Stage(
      retailer, std::make_shared<const Shard>(std::move(batch).value()),
      version);
  return finish("ok", staged);
}

Status RecommendationStore::LoadRetailerFromFile(
    data::RetailerId retailer, const sfs::SharedFileSystem& fs,
    const std::string& path, const RetryPolicy& policy,
    sfs::ReliableIoCounters* io, int64_t version) {
  StatusOr<int64_t> staged =
      StageRetailerFromFile(retailer, fs, path, policy, io, version);
  if (!staged.ok()) return staged.status();
  return ActivateVersion(retailer, *staged);
}

StatusOr<std::vector<core::ScoredItem>> RecommendationStore::LookupInShard(
    const Shard* shard, data::RetailerId retailer, data::ItemIndex item,
    core::RecommendationList list) const {
  if (shard == nullptr) {
    return NotFoundError(StrFormat("retailer %d not loaded", retailer));
  }
  if (item < 0 || item >= shard->num_items()) {
    return NotFoundError(StrFormat("no recommendations for item %d", item));
  }
  // No late-funnel variant materialized: serve the plain substitutes.
  if (list == core::RecommendationList::kViewBasedLate &&
      shard->ListSize(item, list) == 0) {
    list = core::RecommendationList::kViewBased;
  }
  return shard->List(item, list);
}

StatusOr<std::vector<core::ScoredItem>> RecommendationStore::Lookup(
    data::RetailerId retailer, data::ItemIndex item,
    RecommendationKind kind) const {
  return LookupAtVersion(retailer, item, kind, /*version=*/0);
}

StatusOr<std::vector<core::ScoredItem>> RecommendationStore::LookupAtVersion(
    data::RetailerId retailer, data::ItemIndex item, RecommendationKind kind,
    int64_t version) const {
  std::shared_ptr<const Shard> shard = chain_.Find(retailer, version);
  return LookupInShard(shard.get(), retailer, item, kind);
}

StatusOr<std::vector<core::ScoredItem>> RecommendationStore::ServeContext(
    data::RetailerId retailer, const core::Context& context) const {
  return ServeContextAtVersion(retailer, context, /*version=*/0);
}

StatusOr<std::vector<core::ScoredItem>>
RecommendationStore::ServeContextAtVersion(data::RetailerId retailer,
                                           const core::Context& context,
                                           int64_t version) const {
  if (context.empty()) {
    return InvalidArgumentError("empty context");
  }
  const core::ContextEntry& latest = context.back();
  // After a purchase decision (cart/conversion), show accessories;
  // before it, show substitutes (Fig. 1) — the facet-constrained variant
  // for a late-funnel user.
  core::RecommendationList list = core::RecommendationList::kViewBased;
  if (latest.action == data::ActionType::kCart ||
      latest.action == data::ActionType::kConversion) {
    list = core::RecommendationList::kPurchaseBased;
  } else if (core::ClassifyFunnelStage(context, /*catalog=*/nullptr, {}) ==
             core::FunnelStage::kLate) {
    list = core::RecommendationList::kViewBasedLate;
  }
  std::shared_ptr<const Shard> shard = chain_.Find(retailer, version);
  return LookupInShard(shard.get(), retailer, latest.item, list);
}

StatusOr<std::vector<core::ScoredItem>>
RecommendationStore::LookupLateFunnel(data::RetailerId retailer,
                                      data::ItemIndex item) const {
  std::shared_ptr<const Shard> shard = chain_.Find(retailer, /*version=*/0);
  return LookupInShard(shard.get(), retailer, item,
                       core::RecommendationList::kViewBasedLate);
}

int RecommendationStore::num_retailers() const {
  return static_cast<int>(chain_.ActivePayloads().size());
}

int64_t RecommendationStore::num_items() const {
  int64_t total = 0;
  for (const auto& shard : chain_.ActivePayloads()) {
    total += shard->num_listed_items();
  }
  return total;
}

}  // namespace sigmund::serving
