#include "serving/store.h"

#include <algorithm>
#include <mutex>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/funnel.h"

namespace sigmund::serving {

void RecommendationStore::Retire(Entry* entry, int64_t keep) const {
  const size_t retained =
      static_cast<size_t>(std::max(1, options_.retained_versions));
  auto it = entry->versions.begin();
  while (entry->versions.size() > retained && it != entry->versions.end()) {
    if (it->first == entry->active || it->first == keep) {
      ++it;
      continue;
    }
    it = entry->versions.erase(it);
  }
}

int64_t RecommendationStore::StageShard(data::RetailerId retailer,
                                        std::shared_ptr<const Shard> shard,
                                        int64_t version) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry& entry = entries_[retailer];
  if (version <= 0) version = entry.next_version;
  entry.next_version = std::max(entry.next_version, version + 1);
  entry.versions[version] = std::move(shard);
  // A staged-but-never-activated pile must not grow unboundedly either;
  // the staged version itself is always kept.
  Retire(&entry, version);
  return version;
}

int64_t RecommendationStore::StageRetailer(
    data::RetailerId retailer,
    const std::vector<core::ItemRecommendations>& recommendations,
    int64_t version) {
  return StageShard(retailer,
                    std::make_shared<const Shard>(
                        core::RecommendationBatch::FromLists(recommendations)),
                    version);
}

void RecommendationStore::LoadRetailer(
    data::RetailerId retailer,
    const std::vector<core::ItemRecommendations>& recommendations) {
  const int64_t version = StageRetailer(retailer, recommendations);
  SIGCHECK(ActivateVersion(retailer, version).ok());
}

Status RecommendationStore::ActivateVersion(data::RetailerId retailer,
                                            int64_t version) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(retailer);
  if (it == entries_.end() || it->second.versions.count(version) == 0) {
    return NotFoundError(StrFormat(
        "retailer %d has no resident batch version %lld", retailer,
        static_cast<long long>(version)));
  }
  it->second.active = version;
  Retire(&it->second, version);
  return OkStatus();
}

Status RecommendationStore::RollbackRetailer(data::RetailerId retailer,
                                             int64_t version) {
  // Pure pointer flip: the target version is already resident in memory,
  // so no filesystem is touched and nothing is reloaded.
  return ActivateVersion(retailer, version);
}

Status RecommendationStore::DiscardVersion(data::RetailerId retailer,
                                           int64_t version) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(retailer);
  if (it == entries_.end() || it->second.versions.count(version) == 0) {
    return NotFoundError(StrFormat(
        "retailer %d has no resident batch version %lld", retailer,
        static_cast<long long>(version)));
  }
  if (it->second.active == version) {
    return FailedPreconditionError(StrFormat(
        "batch version %lld is active for retailer %d; activate another "
        "version before discarding it",
        static_cast<long long>(version), retailer));
  }
  it->second.versions.erase(version);
  return OkStatus();
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
  const int64_t staged = StageShard(
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

std::shared_ptr<const RecommendationStore::Shard>
RecommendationStore::FindShard(data::RetailerId retailer,
                               int64_t version) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(retailer);
  if (it == entries_.end()) return nullptr;
  const Entry& entry = it->second;
  const int64_t wanted = version <= 0 ? entry.active : version;
  if (wanted == 0) return nullptr;
  auto shard = entry.versions.find(wanted);
  return shard == entry.versions.end() ? nullptr : shard->second;
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
  std::shared_ptr<const Shard> shard = FindShard(retailer, version);
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
  std::shared_ptr<const Shard> shard = FindShard(retailer, version);
  return LookupInShard(shard.get(), retailer, latest.item, list);
}

StatusOr<std::vector<core::ScoredItem>>
RecommendationStore::LookupLateFunnel(data::RetailerId retailer,
                                      data::ItemIndex item) const {
  std::shared_ptr<const Shard> shard = FindShard(retailer, /*version=*/0);
  return LookupInShard(shard.get(), retailer, item,
                       core::RecommendationList::kViewBasedLate);
}

int RecommendationStore::num_retailers() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  int count = 0;
  for (const auto& [retailer, entry] : entries_) {
    if (entry.active != 0) ++count;
  }
  return count;
}

int64_t RecommendationStore::num_items() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [retailer, entry] : entries_) {
    if (entry.active == 0) continue;
    auto shard = entry.versions.find(entry.active);
    if (shard == entry.versions.end()) continue;
    total += shard->second->num_listed_items();
  }
  return total;
}

int64_t RecommendationStore::RetailerVersion(data::RetailerId retailer) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(retailer);
  return it == entries_.end() ? 0 : it->second.active;
}

int64_t RecommendationStore::LatestVersion(data::RetailerId retailer) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(retailer);
  if (it == entries_.end() || it->second.versions.empty()) return 0;
  return it->second.versions.rbegin()->first;
}

std::vector<int64_t> RecommendationStore::RetainedVersions(
    data::RetailerId retailer) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<int64_t> versions;
  auto it = entries_.find(retailer);
  if (it == entries_.end()) return versions;
  versions.reserve(it->second.versions.size());
  for (const auto& [version, shard] : it->second.versions) {
    versions.push_back(version);
  }
  return versions;
}

int64_t RecommendationStore::NextVersion(data::RetailerId retailer) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(retailer);
  return it == entries_.end() ? 1 : it->second.next_version;
}

void RecommendationStore::EnsureNextVersion(data::RetailerId retailer,
                                            int64_t next_version) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry& entry = entries_[retailer];
  entry.next_version = std::max(entry.next_version, next_version);
}

}  // namespace sigmund::serving
