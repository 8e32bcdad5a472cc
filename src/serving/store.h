#ifndef SIGMUND_SERVING_STORE_H_
#define SIGMUND_SERVING_STORE_H_

#include <memory>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/inference.h"
#include "core/recommendation_batch.h"
#include "serving/version_chain.h"
#include "sfs/reliable_io.h"
#include "sfs/shared_filesystem.h"

namespace sigmund::serving {

// Which materialized list a request wants (Fig. 1: substitutes before the
// purchase decision, accessories/complements after). The same enum as the
// batch's list slots, so lookups pass it straight through.
using RecommendationKind = core::RecommendationList;

// Read-side interface of the serving plane: everything a request path
// needs from a store, whether it is a single RecommendationStore or a
// replicated group fronting several. Lets the Frontend (and tests) stay
// agnostic to the replication topology.
class ServingReader {
 public:
  virtual ~ServingReader() = default;

  // Serves a user context from the currently active batch.
  virtual StatusOr<std::vector<core::ScoredItem>> ServeContext(
      data::RetailerId retailer, const core::Context& context) const = 0;

  // Trace-aware variant: implementations that make routing decisions
  // (replica choice, failover, hedging) annotate them onto `trace`. The
  // default forwards to the untraced overload, so plain stores need not
  // care; an inactive context is always a no-op.
  virtual StatusOr<std::vector<core::ScoredItem>> ServeContext(
      data::RetailerId retailer, const core::Context& context,
      obs::TraceContext trace) const {
    (void)trace;
    return ServeContext(retailer, context);
  }

  // Active batch version for `retailer` (0 = never loaded).
  virtual int64_t RetailerVersion(data::RetailerId retailer) const = 0;
};

// The serving store (§II-A, §V): an in-memory map from (retailer, item) to
// pre-materialized recommendation lists, refreshed by whole-retailer batch
// updates whenever the inference job completes. Serving does no model
// computation — the paper's "very lightweight computation at serving
// time".
//
// Safe rollout: each batch load is a *version* in the retailer's
// VersionChain (serving/version_chain.h, shared with the retrieval
// plane); the last `retained_versions` stay resident, so activation and
// rollback are pure pointer flips — no SFS I/O, no rebuild. A new batch
// can be staged (resident but not serving) for canary evaluation, then
// activated or discarded.
//
// Thread-safe: lookups copy out a shared_ptr to an immutable shard under
// the chain's shared lock, so a concurrent activation/rollback can never
// expose a torn or mixed-version list.
class RecommendationStore : public ServingReader {
 public:
  struct Options {
    // Batch versions retained per retailer (including the active one);
    // older versions are evicted on activation. Minimum 1.
    int retained_versions = 3;
  };

  RecommendationStore() : RecommendationStore(Options{}) {}
  explicit RecommendationStore(const Options& options)
      : chain_("batch", options.retained_versions) {}

  // Atomically replaces all recommendations for `retailer`: stages the
  // batch as the next version and activates it immediately (the
  // non-canary path). Query items must be non-negative (SIGCHECKed); any
  // order is fine.
  void LoadRetailer(
      data::RetailerId retailer,
      const std::vector<core::ItemRecommendations>& recommendations);

  // Stages a batch as a resident but *not yet serving* version and
  // returns its version number. The lists become the same columnar shard
  // a batch file decodes into (core::RecommendationBatch). `version` 0
  // auto-assigns the next number in the retailer's sequence; a positive
  // `version` pins it (used to keep replica version numbering aligned
  // during cutover).
  int64_t StageRetailer(
      data::RetailerId retailer,
      const std::vector<core::ItemRecommendations>& recommendations,
      int64_t version = 0);

  // Batch-loads a retailer from the inference job's SFS output file (a
  // core::RecommendationBatch payload in a CRC frame), staging the
  // decoded columns as the shard. Transient read errors are retried per
  // `policy`. A corrupt batch (no frame, bad CRC, or a payload that fails
  // RecommendationBatch::Decode's checks) is rejected with kDataLoss
  // and the retailer's previously loaded recommendations stay live — a
  // bad refresh must never take down serving. `io`, if given, counts
  // retries, corruptions and batch loads into its registry. Stages +
  // activates in one step.
  Status LoadRetailerFromFile(data::RetailerId retailer,
                              const sfs::SharedFileSystem& fs,
                              const std::string& path,
                              const RetryPolicy& policy = {},
                              sfs::ReliableIoCounters* io = nullptr,
                              int64_t version = 0);

  // Like LoadRetailerFromFile but only stages the batch (canary path):
  // the previously active version keeps serving until ActivateVersion.
  // Returns the staged version number.
  StatusOr<int64_t> StageRetailerFromFile(data::RetailerId retailer,
                                          const sfs::SharedFileSystem& fs,
                                          const std::string& path,
                                          const RetryPolicy& policy = {},
                                          sfs::ReliableIoCounters* io = nullptr,
                                          int64_t version = 0);

  // Flips the active pointer to a resident version (O(1), no SFS I/O).
  // Evicts versions beyond the retention window. kNotFound if the
  // version is not resident.
  Status ActivateVersion(data::RetailerId retailer, int64_t version) {
    return chain_.Activate(retailer, version);
  }

  // Instant rollback to a retained previous version — a pure pointer
  // flip, by design doing no SFS I/O and no batch reload.
  Status RollbackRetailer(data::RetailerId retailer, int64_t version) {
    return chain_.Activate(retailer, version);
  }

  // Drops a resident non-active version (e.g. a canary that failed).
  // kFailedPrecondition if `version` is currently active.
  Status DiscardVersion(data::RetailerId retailer, int64_t version) {
    return chain_.Discard(retailer, version);
  }

  // Recommendations for one query item. kNotFound when the retailer or
  // item has no materialized list. kViewBasedLate falls back to the
  // view-based list when no late variant was materialized.
  StatusOr<std::vector<core::ScoredItem>> Lookup(
      data::RetailerId retailer, data::ItemIndex item,
      RecommendationKind kind) const;

  // Like Lookup, but against a specific resident version (<= 0 = the
  // active one). Canary traffic reads the staged version through this.
  StatusOr<std::vector<core::ScoredItem>> LookupAtVersion(
      data::RetailerId retailer, data::ItemIndex item,
      RecommendationKind kind, int64_t version) const;

  // Serves a user context: uses the most recent context entry; a
  // conversion/cart context gets purchase-based (accessory)
  // recommendations, otherwise view-based (substitutes). Late-funnel
  // contexts (classified catalog-free, §III-D1) get the facet-constrained
  // substitute variant when the inference job materialized one.
  StatusOr<std::vector<core::ScoredItem>> ServeContext(
      data::RetailerId retailer, const core::Context& context) const override;

  // ServeContext against a specific resident version (<= 0 = active).
  StatusOr<std::vector<core::ScoredItem>> ServeContextAtVersion(
      data::RetailerId retailer, const core::Context& context,
      int64_t version) const;

  // Late-funnel substitute list for one item; falls back to the regular
  // view-based list when no late variant was materialized.
  StatusOr<std::vector<core::ScoredItem>> LookupLateFunnel(
      data::RetailerId retailer, data::ItemIndex item) const;

  // Number of retailers currently active / query items with at least one
  // recommendation in the active batches.
  int num_retailers() const;
  int64_t num_items() const;

  // Active batch version for `retailer` (0 = never activated).
  int64_t RetailerVersion(data::RetailerId retailer) const override {
    return chain_.Active(retailer);
  }

  // Highest resident (staged or active) version; 0 when none.
  int64_t LatestVersion(data::RetailerId retailer) const {
    return chain_.Latest(retailer);
  }

  // All resident versions, ascending.
  std::vector<int64_t> RetainedVersions(data::RetailerId retailer) const {
    return chain_.State(retailer).retained;
  }

  // The version number the next auto-assigned stage would receive. The
  // run ledger logs it in the StageIntent before staging, so recovery
  // knows which versioned batch file an uncommitted intent refers to.
  int64_t NextVersion(data::RetailerId retailer) const {
    return chain_.State(retailer).next_version;
  }

  // Raises the auto-assignment counter to at least `next_version`
  // (never lowers it). Crash rehydration restores the counter through
  // this: re-staging only the *retained* versions would under-count when
  // the crashed process had also assigned (and discarded) higher ones.
  void EnsureNextVersion(data::RetailerId retailer, int64_t next_version) {
    chain_.EnsureNext(retailer, next_version);
  }

  // Active version, next version and resident versions under one lock
  // (what a service snapshot records).
  VersionChainState State(data::RetailerId retailer) const {
    return chain_.State(retailer);
  }

 private:
  // Immutable columns of one batch version; row = query item.
  using Shard = core::RecommendationBatch;

  // `list` from `shard` (null = retailer not loaded). kViewBasedLate
  // falls back to kViewBased when the item has no late-funnel list.
  StatusOr<std::vector<core::ScoredItem>> LookupInShard(
      const Shard* shard, data::RetailerId retailer, data::ItemIndex item,
      core::RecommendationList list) const;

  VersionChain<Shard> chain_;
};

}  // namespace sigmund::serving

#endif  // SIGMUND_SERVING_STORE_H_
