#ifndef SIGMUND_SERVING_TIERED_STORE_H_
#define SIGMUND_SERVING_TIERED_STORE_H_

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/inference.h"
#include "serving/store.h"
#include "sfs/shared_filesystem.h"

namespace sigmund::serving {

// Two-tier serving store: the paper's serving system "leverages
// main-memory and flash to serve low-latency requests" (§II-A). Head
// items — the bulk of traffic — are pinned in memory; the long tail lives
// on flash (modeled by the shared filesystem) behind a small LRU cache.
//
// Batch-updated per retailer like RecommendationStore; thread-safe.
class TieredStore {
 public:
  struct Options {
    // Fraction of each retailer's items (by popularity) pinned in memory.
    double hot_fraction = 0.10;
    // LRU entries shared across retailers for flash-read results.
    int cache_capacity = 4096;
    // Accounted (not slept) flash read latency, for capacity planning.
    int64_t flash_read_micros = 120;
  };

  struct Stats {
    int64_t memory_hits = 0;
    int64_t cache_hits = 0;
    int64_t flash_reads = 0;
    int64_t simulated_flash_micros = 0;

    double FlashReadFraction() const {
      int64_t total = memory_hits + cache_hits + flash_reads;
      return total > 0 ? static_cast<double>(flash_reads) / total : 0.0;
    }
  };

  // `fs` is the flash tier; borrowed.
  TieredStore(sfs::SharedFileSystem* fs, const Options& options)
      : fs_(fs), options_(options) {}

  // Batch-loads one retailer: writes every item's recommendations to the
  // flash tier as a per-item binary record (core::EncodeItemRecord),
  // under a fresh per-retailer version directory, and pins
  // the top hot_fraction items by `popularity` (same length as the
  // catalog) in memory. Replaces any previous version and garbage-
  // collects the previous version's flash files, so repeated reloads keep
  // the flash-tier file count bounded by the catalog size. Files whose
  // delete hit a transient error are retried on the next load.
  Status LoadRetailer(data::RetailerId retailer,
                      const std::vector<core::ItemRecommendations>& recs,
                      const std::vector<int64_t>& popularity);

  // Serving lookup: memory -> LRU cache -> flash.
  StatusOr<std::vector<core::ScoredItem>> Lookup(data::RetailerId retailer,
                                                 data::ItemIndex item,
                                                 RecommendationKind kind);

  Stats stats() const;

  // Bytes pinned in memory vs. resident on flash for one retailer.
  struct Footprint {
    int64_t hot_items = 0;
    int64_t flash_items = 0;
  };
  StatusOr<Footprint> RetailerFootprint(data::RetailerId retailer) const;

  // Flash files are laid out per batch version —
  // flash/r<retailer>/v<version>/i<item> — so a reload writes into a
  // fresh directory and the stale one can be GC'd wholesale.
  static std::string FlashPath(data::RetailerId retailer, int64_t version,
                               data::ItemIndex item);
  static std::string FlashRoot(data::RetailerId retailer);

 private:
  struct HotShard {
    // item -> recommendations, for pinned items only.
    std::unordered_map<data::ItemIndex, core::ItemRecommendations> pinned;
    int total_items = 0;
    // Flash version this shard's tier-3 files live under.
    int64_t version = 0;
  };

  using CacheKey = std::pair<data::RetailerId, data::ItemIndex>;
  struct CacheKeyHash {
    size_t operator()(const CacheKey& key) const {
      return std::hash<int64_t>()((static_cast<int64_t>(key.first) << 32) ^
                                  static_cast<uint32_t>(key.second));
    }
  };

  // Inserts into the LRU (caller holds mu_).
  void CacheInsert(const CacheKey& key, core::ItemRecommendations recs);

  // Deletes every flash file of `retailer` not under `keep_version`;
  // failed deletes land in pending_gc_ for the next load to retry.
  void CollectStaleFlash(data::RetailerId retailer, int64_t keep_version);

  sfs::SharedFileSystem* fs_;
  Options options_;
  mutable std::mutex mu_;
  std::map<data::RetailerId, HotShard> hot_;
  // Stale flash paths whose delete failed transiently; retried on the
  // next LoadRetailer (any retailer). Guarded by mu_.
  std::vector<std::string> pending_gc_;
  // LRU: most-recent at front.
  std::list<std::pair<CacheKey, core::ItemRecommendations>> lru_;
  std::unordered_map<CacheKey, decltype(lru_)::iterator, CacheKeyHash>
      cache_index_;
  Stats stats_;
};

}  // namespace sigmund::serving

#endif  // SIGMUND_SERVING_TIERED_STORE_H_
