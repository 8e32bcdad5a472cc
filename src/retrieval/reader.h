#ifndef SIGMUND_RETRIEVAL_READER_H_
#define SIGMUND_RETRIEVAL_READER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/inference.h"
#include "retrieval/artifact.h"
#include "serving/store.h"
#include "serving/version_chain.h"
#include "sfs/reliable_io.h"
#include "sfs/shared_filesystem.h"

namespace sigmund::retrieval {

// The online retrieval plane's serving endpoint: a serving::ServingReader
// over versioned, immutable IndexArtifacts — so everything built for the
// materialized plane (Frontend degradation ladder, admission control,
// tracing, canary gating) applies to the ANN path unchanged.
//
// Versioning is RecommendationStore's: each staged artifact is a version
// in the same serving::VersionChain; Stage leaves the previous version
// serving, Activate/Rollback are O(1) pointer flips, and the last
// `retained_versions` stay resident for instant rollback. A corrupt
// artifact (bad CRC, torn frame, incoherent encoding) is rejected at
// stage time with kDataLoss and the previous version keeps serving.
//
// Thread-safe: queries copy out a shared_ptr to an immutable artifact
// under the chain's shared lock.
class OnlineRetrievalReader : public serving::ServingReader {
 public:
  struct Options {
    // Results per query.
    int top_k = 10;
    // Coarse lists probed per query (the recall/latency knob).
    int nprobe = 8;
    // Artifact versions retained per retailer (including active).
    int retained_versions = 3;
  };

  // `metrics` (borrowed) is required: queries land in
  // retrieval_queries_total{outcome} and scanned-candidate counts in the
  // retrieval_candidates_scanned histogram.
  OnlineRetrievalReader(const Options& options, obs::MetricRegistry* metrics);

  // Stages `artifact` as a resident, not-yet-serving version and returns
  // its version number (0 auto-assigns; positive pins).
  int64_t StageArtifact(data::RetailerId retailer, IndexArtifact artifact,
                        int64_t version = 0);

  // Reads a CRC-framed artifact from the shared filesystem and stages
  // it. kDataLoss (corrupt frame or incoherent payload) leaves the
  // retailer's existing versions untouched.
  StatusOr<int64_t> StageFromFile(data::RetailerId retailer,
                                  const sfs::SharedFileSystem& fs,
                                  const std::string& path,
                                  const RetryPolicy& policy = {},
                                  sfs::ReliableIoCounters* io = nullptr,
                                  int64_t version = 0);

  // Pointer flips, with RecommendationStore's semantics (see store.h).
  Status ActivateVersion(data::RetailerId retailer, int64_t version) {
    return chain_.Activate(retailer, version);
  }
  Status RollbackRetailer(data::RetailerId retailer, int64_t version) {
    return chain_.Activate(retailer, version);
  }
  Status DiscardVersion(data::RetailerId retailer, int64_t version) {
    return chain_.Discard(retailer, version);
  }

  // ServingReader: answers from the active artifact. kNotFound when the
  // retailer has no active index.
  StatusOr<std::vector<core::ScoredItem>> ServeContext(
      data::RetailerId retailer, const core::Context& context) const override;
  StatusOr<std::vector<core::ScoredItem>> ServeContext(
      data::RetailerId retailer, const core::Context& context,
      obs::TraceContext trace) const override;

  // Canary traffic reads a staged version through this (<= 0 = active).
  StatusOr<std::vector<core::ScoredItem>> ServeContextAtVersion(
      data::RetailerId retailer, const core::Context& context,
      int64_t version, obs::TraceContext trace = {}) const;

  int64_t RetailerVersion(data::RetailerId retailer) const override {
    return chain_.Active(retailer);
  }
  int64_t LatestVersion(data::RetailerId retailer) const {
    return chain_.Latest(retailer);
  }
  std::vector<int64_t> RetainedVersions(data::RetailerId retailer) const {
    return chain_.State(retailer).retained;
  }
  // As on RecommendationStore (see store.h): the next auto-assigned
  // version, the counter restore for crash rehydration, and the
  // one-lock read of the whole chain.
  int64_t NextVersion(data::RetailerId retailer) const {
    return chain_.State(retailer).next_version;
  }
  void EnsureNextVersion(data::RetailerId retailer, int64_t next_version) {
    chain_.EnsureNext(retailer, next_version);
  }
  serving::VersionChainState State(data::RetailerId retailer) const {
    return chain_.State(retailer);
  }

  const Options& options() const { return options_; }

 private:
  Options options_;
  obs::Counter* queries_ok_;
  obs::Counter* queries_error_;
  obs::Histogram* candidates_scanned_;

  serving::VersionChain<IndexArtifact> chain_;
};

}  // namespace sigmund::retrieval

#endif  // SIGMUND_RETRIEVAL_READER_H_
