#include "serving/store.h"

#include <algorithm>
#include <mutex>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/funnel.h"

namespace sigmund::serving {

std::shared_ptr<const RecommendationStore::Shard>
RecommendationStore::BuildShard(
    std::vector<core::ItemRecommendations> recommendations) {
  auto shard = std::make_shared<Shard>();
  // Index by query item; the vector is addressed directly by item id.
  data::ItemIndex max_item = -1;
  for (const core::ItemRecommendations& recs : recommendations) {
    max_item = std::max(max_item, recs.query);
  }
  shard->by_item.resize(max_item + 1);
  for (core::ItemRecommendations& recs : recommendations) {
    data::ItemIndex query = recs.query;
    shard->by_item[query] = std::move(recs);
  }
  return shard;
}

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

int64_t RecommendationStore::StageRetailer(
    data::RetailerId retailer,
    std::vector<core::ItemRecommendations> recommendations, int64_t version) {
  std::shared_ptr<const Shard> shard = BuildShard(std::move(recommendations));
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

void RecommendationStore::LoadRetailer(
    data::RetailerId retailer,
    std::vector<core::ItemRecommendations> recommendations) {
  const int64_t version = StageRetailer(retailer, std::move(recommendations));
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
  // Batch-load latency + outcome counters when observability is wired in
  // through the caller's ReliableIoCounters.
  obs::MetricRegistry* metrics = io != nullptr ? io->metrics : nullptr;
  const Clock* clock = nullptr;
  int64_t start_micros = 0;
  if (metrics != nullptr) {
    clock = io->clock != nullptr ? io->clock : RealClock::Get();
    start_micros = clock->NowMicros();
  }
  auto finish = [&](const char* outcome,
                    StatusOr<int64_t> result) -> StatusOr<int64_t> {
    if (metrics != nullptr) {
      metrics->GetHistogram("serving_batch_load_micros")
          ->Observe(static_cast<double>(clock->NowMicros() - start_micros));
      metrics->GetCounter("serving_batch_loads_total", {{"outcome", outcome}})
          ->Add(1);
    }
    return result;
  };
  RetryStats* retry_stats = io != nullptr ? &io->retry : nullptr;
  StatusOr<std::string> blob =
      RetryWithPolicy<std::string>(policy, retry_stats, [&] {
        return fs.Read(path);
      });
  if (!blob.ok()) return finish("error", blob.status());
  StatusOr<std::string> payload = ReadChecksummedFrame(*blob);
  if (!payload.ok()) {
    // Torn, bit-rotted or unframed batch: refuse it and keep serving the
    // previous version of this retailer's recommendations.
    if (io != nullptr) io->CountCorruptionDetected();
    return finish("rejected", payload.status());
  }
  std::vector<core::ItemRecommendations> recommendations;
  for (const std::string& line : StrSplit(*payload, '\n')) {
    if (line.empty()) continue;
    StatusOr<core::ItemRecommendations> recs =
        core::ItemRecommendations::Deserialize(line);
    if (!recs.ok()) {
      // The frame checked out but a record does not decode: still a
      // corrupt batch from serving's point of view. Previous data stays.
      if (io != nullptr) io->CountCorruptionDetected();
      return finish("rejected",
                    DataLossError(StrFormat(
                        "corrupt recommendation batch %s: %s", path.c_str(),
                        recs.status().message().c_str())));
    }
    recommendations.push_back(std::move(recs).value());
  }
  const int64_t staged =
      StageRetailer(retailer, std::move(recommendations), version);
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
    RecommendationKind kind) const {
  if (shard == nullptr) {
    return NotFoundError(StrFormat("retailer %d not loaded", retailer));
  }
  if (item < 0 ||
      item >= static_cast<data::ItemIndex>(shard->by_item.size())) {
    return NotFoundError(StrFormat("no recommendations for item %d", item));
  }
  const core::ItemRecommendations& recs = shard->by_item[item];
  return kind == RecommendationKind::kViewBased ? recs.view_based
                                                : recs.purchase_based;
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
  // before it, show substitutes (Fig. 1).
  const bool post_purchase =
      latest.action == data::ActionType::kCart ||
      latest.action == data::ActionType::kConversion;
  if (post_purchase) {
    return LookupAtVersion(retailer, latest.item,
                           RecommendationKind::kPurchaseBased, version);
  }
  std::shared_ptr<const Shard> shard = FindShard(retailer, version);
  if (shard == nullptr) {
    return NotFoundError(StrFormat("retailer %d not loaded", retailer));
  }
  // Browsing: a late-funnel user gets the facet-constrained variant.
  if (core::ClassifyFunnelStage(context, /*catalog=*/nullptr, {}) ==
      core::FunnelStage::kLate) {
    const data::ItemIndex item = latest.item;
    if (item >= 0 &&
        item < static_cast<data::ItemIndex>(shard->by_item.size()) &&
        !shard->by_item[item].view_based_late.empty()) {
      return shard->by_item[item].view_based_late;
    }
  }
  return LookupInShard(shard.get(), retailer, latest.item,
                       RecommendationKind::kViewBased);
}

StatusOr<std::vector<core::ScoredItem>>
RecommendationStore::LookupLateFunnel(data::RetailerId retailer,
                                      data::ItemIndex item) const {
  std::shared_ptr<const Shard> shard = FindShard(retailer, /*version=*/0);
  if (shard == nullptr) {
    return NotFoundError(StrFormat("retailer %d not loaded", retailer));
  }
  if (item < 0 ||
      item >= static_cast<data::ItemIndex>(shard->by_item.size())) {
    return NotFoundError(StrFormat("no recommendations for item %d", item));
  }
  const core::ItemRecommendations& recs = shard->by_item[item];
  if (!recs.view_based_late.empty()) return recs.view_based_late;
  return recs.view_based;
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
    total += static_cast<int64_t>(shard->second->by_item.size());
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
