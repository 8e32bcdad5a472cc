#ifndef SIGMUND_SERVING_VERSION_CHAIN_H_
#define SIGMUND_SERVING_VERSION_CHAIN_H_

#include <stdint.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "data/types.h"

namespace sigmund::serving {

// One retailer's version chain as a single consistent read: what a
// snapshot records so a fresh process can re-stage it exactly.
struct VersionChainState {
  int64_t active = 0;
  int64_t next_version = 1;
  std::vector<int64_t> retained;  // resident versions, ascending

  bool operator==(const VersionChainState&) const = default;
};

// The per-retailer version chain behind both serving planes (the
// materialized RecommendationStore and the ANN OnlineRetrievalReader):
// resident immutable payloads keyed by version, the active pointer, and
// the auto-assignment counter. Activation and rollback are pointer flips;
// a staged version stays resident but not serving until activated.
//
// Retention: a retailer keeps at most `retained_versions` (minimum 1)
// resident versions. Whenever a version is staged or activated, the
// oldest versions beyond the window are evicted, skipping the active
// version and the version just staged or activated — so rolling back to
// an old version and staging new ones evicts past it.
//
// Thread-safe: reads take a shared lock and copy out a shared_ptr to an
// immutable payload, so a concurrent activation can never expose a torn
// or mixed-version payload; writes take the lock exclusively.
template <typename Payload>
class VersionChain {
 public:
  // `plane` names the chain in error messages ("batch", "retrieval
  // index"); borrowed, normally a string literal.
  VersionChain(const char* plane, int retained_versions)
      : plane_(plane),
        retained_(static_cast<size_t>(std::max(1, retained_versions))) {}

  // Makes `payload` a resident, not-yet-serving version. `version` 0
  // auto-assigns the next number in the retailer's sequence; a positive
  // `version` pins it. Returns the version number.
  int64_t Stage(data::RetailerId retailer,
                std::shared_ptr<const Payload> payload, int64_t version) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Entry& entry = entries_[retailer];
    if (version <= 0) version = entry.next_version;
    entry.next_version = std::max(entry.next_version, version + 1);
    entry.versions[version] = std::move(payload);
    // A staged-but-never-activated pile must not grow unboundedly either;
    // the staged version itself is always kept.
    Retire(&entry, version);
    return version;
  }

  // Flips the active pointer to a resident version (no I/O), then evicts
  // beyond the retention window. kNotFound if `version` is not resident.
  Status Activate(data::RetailerId retailer, int64_t version) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Entry* entry = Resident(retailer, version);
    if (entry == nullptr) return NotResident(retailer, version);
    entry->active = version;
    Retire(entry, version);
    return OkStatus();
  }

  // Drops a resident non-active version. kNotFound if not resident,
  // kFailedPrecondition if it is the active one.
  Status Discard(data::RetailerId retailer, int64_t version) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Entry* entry = Resident(retailer, version);
    if (entry == nullptr) return NotResident(retailer, version);
    if (entry->active == version) {
      return FailedPreconditionError(StrFormat(
          "%s version %lld is active for retailer %d; activate another "
          "version before discarding it",
          plane_, static_cast<long long>(version), retailer));
    }
    entry->versions.erase(version);
    return OkStatus();
  }

  // Payload of (retailer, version); version <= 0 = the active one. Null
  // when not resident. The serving hot path: one shared lock, one
  // retailer lookup, one shared_ptr copy.
  std::shared_ptr<const Payload> Find(data::RetailerId retailer,
                                      int64_t version) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(retailer);
    if (it == entries_.end()) return nullptr;
    const Entry& entry = it->second;
    const int64_t wanted = version <= 0 ? entry.active : version;
    if (wanted == 0) return nullptr;
    auto payload = entry.versions.find(wanted);
    return payload == entry.versions.end() ? nullptr : payload->second;
  }

  // The active payload of every retailer that has one.
  std::vector<std::shared_ptr<const Payload>> ActivePayloads() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::vector<std::shared_ptr<const Payload>> active;
    for (const auto& [retailer, entry] : entries_) {
      auto payload = entry.versions.find(entry.active);
      if (payload != entry.versions.end()) active.push_back(payload->second);
    }
    return active;
  }

  // Active version (0 = never activated).
  int64_t Active(data::RetailerId retailer) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(retailer);
    return it == entries_.end() ? 0 : it->second.active;
  }

  // Highest resident (staged or active) version; 0 when none.
  int64_t Latest(data::RetailerId retailer) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(retailer);
    if (it == entries_.end() || it->second.versions.empty()) return 0;
    return it->second.versions.rbegin()->first;
  }

  // Active version, auto-assignment counter and resident versions, read
  // under one lock.
  VersionChainState State(data::RetailerId retailer) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    VersionChainState state;
    auto it = entries_.find(retailer);
    if (it == entries_.end()) return state;
    state.active = it->second.active;
    state.next_version = it->second.next_version;
    state.retained.reserve(it->second.versions.size());
    for (const auto& [version, payload] : it->second.versions) {
      state.retained.push_back(version);
    }
    return state;
  }

  // Raises the auto-assignment counter to at least `next_version`; never
  // lowers it.
  void EnsureNext(data::RetailerId retailer, int64_t next_version) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Entry& entry = entries_[retailer];
    entry.next_version = std::max(entry.next_version, next_version);
  }

 private:
  struct Entry {
    std::map<int64_t, std::shared_ptr<const Payload>> versions;
    int64_t active = 0;
    int64_t next_version = 1;
  };

  // The retailer's entry if `version` is resident in it, else null
  // (caller holds mu_).
  Entry* Resident(data::RetailerId retailer, int64_t version) {
    auto it = entries_.find(retailer);
    if (it == entries_.end() || it->second.versions.count(version) == 0) {
      return nullptr;
    }
    return &it->second;
  }

  Status NotResident(data::RetailerId retailer, int64_t version) const {
    return NotFoundError(
        StrFormat("retailer %d has no resident %s version %lld", retailer,
                  plane_, static_cast<long long>(version)));
  }

  // Evicts the oldest versions beyond the retention window, skipping the
  // active version and `keep` (caller holds mu_ exclusively).
  void Retire(Entry* entry, int64_t keep) const {
    auto it = entry->versions.begin();
    while (entry->versions.size() > retained_ && it != entry->versions.end()) {
      if (it->first == entry->active || it->first == keep) {
        ++it;
        continue;
      }
      it = entry->versions.erase(it);
    }
  }

  const char* plane_;
  size_t retained_;
  mutable std::shared_mutex mu_;
  std::map<data::RetailerId, Entry> entries_;
};

}  // namespace sigmund::serving

#endif  // SIGMUND_SERVING_VERSION_CHAIN_H_
