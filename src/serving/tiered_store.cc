#include "serving/tiered_store.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/recommendation_batch.h"

namespace sigmund::serving {

std::string TieredStore::FlashPath(data::RetailerId retailer, int64_t version,
                                   data::ItemIndex item) {
  return StrFormat("flash/r%d/v%lld/i%d", retailer,
                   static_cast<long long>(version), item);
}

std::string TieredStore::FlashRoot(data::RetailerId retailer) {
  return StrFormat("flash/r%d/", retailer);
}

void TieredStore::CollectStaleFlash(data::RetailerId retailer,
                                    int64_t keep_version) {
  // Gather this retailer's stale files plus any deletes that failed on a
  // previous pass, then retire them. List/Delete failures are tolerated:
  // whatever survives is retried on the next load.
  const std::string keep_prefix =
      StrFormat("flash/r%d/v%lld/", retailer,
                static_cast<long long>(keep_version));
  std::vector<std::string> stale;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stale.swap(pending_gc_);
  }
  StatusOr<std::vector<std::string>> files = fs_->List(FlashRoot(retailer));
  if (files.ok()) {
    for (std::string& path : *files) {
      if (path.compare(0, keep_prefix.size(), keep_prefix) != 0) {
        stale.push_back(std::move(path));
      }
    }
  }
  std::vector<std::string> still_pending;
  for (const std::string& path : stale) {
    Status deleted = fs_->Delete(path);
    if (!deleted.ok() && deleted.code() != StatusCode::kNotFound) {
      still_pending.push_back(path);
    }
  }
  if (!still_pending.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_gc_.insert(pending_gc_.end(),
                       std::make_move_iterator(still_pending.begin()),
                       std::make_move_iterator(still_pending.end()));
  }
}

Status TieredStore::LoadRetailer(
    data::RetailerId retailer,
    const std::vector<core::ItemRecommendations>& recs,
    const std::vector<int64_t>& popularity) {
  // Pick the hot set by popularity.
  std::vector<data::ItemIndex> order;
  order.reserve(recs.size());
  for (const core::ItemRecommendations& rec : recs) order.push_back(rec.query);
  std::sort(order.begin(), order.end(),
            [&popularity](data::ItemIndex a, data::ItemIndex b) {
              int64_t pa = a < static_cast<data::ItemIndex>(popularity.size())
                               ? popularity[a]
                               : 0;
              int64_t pb = b < static_cast<data::ItemIndex>(popularity.size())
                               ? popularity[b]
                               : 0;
              if (pa != pb) return pa > pb;
              return a < b;
            });
  const size_t hot_count = static_cast<size_t>(
      options_.hot_fraction * static_cast<double>(order.size()));
  std::unordered_map<data::ItemIndex, bool> is_hot;
  for (size_t n = 0; n < order.size(); ++n) is_hot[order[n]] = n < hot_count;

  // Everything goes to flash (the authoritative copy) under a fresh
  // version directory; hot items are additionally pinned in memory.
  HotShard shard;
  shard.total_items = static_cast<int>(recs.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto prev = hot_.find(retailer);
    shard.version = prev == hot_.end() ? 1 : prev->second.version + 1;
  }
  for (const core::ItemRecommendations& rec : recs) {
    SIGMUND_RETURN_IF_ERROR(fs_->Write(
        FlashPath(retailer, shard.version, rec.query),
        core::EncodeItemRecord(rec)));
    if (is_hot[rec.query]) shard.pinned.emplace(rec.query, rec);
  }

  const int64_t version = shard.version;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hot_[retailer] = std::move(shard);
    // Drop stale cache entries for this retailer (batch-update semantics).
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->first.first == retailer) {
        cache_index_.erase(it->first);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Retire the previous version's flash files now that the new shard is
  // live; lookups racing the swap already resolve to the new version.
  CollectStaleFlash(retailer, version);
  return OkStatus();
}

void TieredStore::CacheInsert(const CacheKey& key,
                              core::ItemRecommendations recs) {
  lru_.emplace_front(key, std::move(recs));
  cache_index_[key] = lru_.begin();
  while (static_cast<int>(lru_.size()) > options_.cache_capacity) {
    cache_index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

StatusOr<std::vector<core::ScoredItem>> TieredStore::Lookup(
    data::RetailerId retailer, data::ItemIndex item,
    RecommendationKind kind) {
  auto pick = [kind](const core::ItemRecommendations& recs) {
    return core::ListOf(recs, kind);
  };

  int64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto shard = hot_.find(retailer);
    if (shard == hot_.end()) {
      return NotFoundError(StrFormat("retailer %d not loaded", retailer));
    }
    if (item < 0 || item >= shard->second.total_items) {
      return NotFoundError(StrFormat("no recommendations for item %d", item));
    }
    version = shard->second.version;
    // Tier 1: pinned memory.
    auto pinned = shard->second.pinned.find(item);
    if (pinned != shard->second.pinned.end()) {
      ++stats_.memory_hits;
      return pick(pinned->second);
    }
    // Tier 2: LRU cache over flash.
    CacheKey key{retailer, item};
    auto cached = cache_index_.find(key);
    if (cached != cache_index_.end()) {
      // Move to front.
      lru_.splice(lru_.begin(), lru_, cached->second);
      ++stats_.cache_hits;
      return pick(lru_.front().second);
    }
  }

  // Tier 3: flash read (outside the lock; reads are the slow path).
  StatusOr<std::string> bytes = fs_->Read(FlashPath(retailer, version, item));
  if (!bytes.ok()) return bytes.status();
  StatusOr<core::ItemRecommendations> recs = core::DecodeItemRecord(*bytes);
  if (!recs.ok()) return recs.status();

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.flash_reads;
  stats_.simulated_flash_micros += options_.flash_read_micros;
  std::vector<core::ScoredItem> result = pick(*recs);
  CacheInsert(CacheKey{retailer, item}, std::move(recs).value());
  return result;
}

TieredStore::Stats TieredStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

StatusOr<TieredStore::Footprint> TieredStore::RetailerFootprint(
    data::RetailerId retailer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto shard = hot_.find(retailer);
  if (shard == hot_.end()) {
    return NotFoundError(StrFormat("retailer %d not loaded", retailer));
  }
  Footprint footprint;
  footprint.hot_items = static_cast<int64_t>(shard->second.pinned.size());
  footprint.flash_items = shard->second.total_items;
  return footprint;
}

}  // namespace sigmund::serving
