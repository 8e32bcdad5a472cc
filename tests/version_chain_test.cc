// One version-chain contract for both serving planes: the materialized
// RecommendationStore and the ANN OnlineRetrievalReader stage, activate,
// roll back, discard and retain versions identically, because both run on
// serving::VersionChain.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/inference.h"
#include "retrieval/artifact.h"
#include "retrieval/reader.h"
#include "serving/store.h"
#include "serving/version_chain.h"

namespace sigmund {
namespace {

using serving::VersionChainState;

// How the contract stages one payload on each plane, and what the plane
// calls itself in error messages.
template <typename Plane>
struct PlaneTraits;

template <>
struct PlaneTraits<serving::RecommendationStore> {
  static constexpr const char* kName = "batch";
  static std::unique_ptr<serving::RecommendationStore> Make(
      int retained, obs::MetricRegistry*) {
    serving::RecommendationStore::Options options;
    options.retained_versions = retained;
    return std::make_unique<serving::RecommendationStore>(options);
  }
  static int64_t Stage(serving::RecommendationStore* plane,
                       data::RetailerId retailer, int64_t version) {
    core::ItemRecommendations recs;
    recs.query = 0;
    recs.view_based = {{1, 0.5}};
    return plane->StageRetailer(retailer, {recs}, version);
  }
};

template <>
struct PlaneTraits<retrieval::OnlineRetrievalReader> {
  static constexpr const char* kName = "retrieval index";
  static std::unique_ptr<retrieval::OnlineRetrievalReader> Make(
      int retained, obs::MetricRegistry* metrics) {
    retrieval::OnlineRetrievalReader::Options options;
    options.retained_versions = retained;
    return std::make_unique<retrieval::OnlineRetrievalReader>(options,
                                                              metrics);
  }
  static int64_t Stage(retrieval::OnlineRetrievalReader* plane,
                       data::RetailerId retailer, int64_t version) {
    const std::vector<float> vectors = {1, 1, 2, 1, 3, 1, 4, 1};
    retrieval::AnnIndex::Options options;
    options.num_lists = 2;
    return plane->StageArtifact(
        retailer,
        retrieval::BuildArtifactFromFactors(retailer, vectors, vectors,
                                            /*dim=*/2, /*context_window=*/25,
                                            /*context_decay=*/0.85, options),
        version);
  }
};

template <typename Plane>
class VersionChainContractTest : public ::testing::Test {
 protected:
  using Traits = PlaneTraits<Plane>;
  static constexpr data::RetailerId kRetailer = 7;

  obs::MetricRegistry metrics_;
  std::unique_ptr<Plane> plane_ = Traits::Make(/*retained=*/2, &metrics_);

  int64_t Stage(int64_t version = 0) {
    return Traits::Stage(plane_.get(), kRetailer, version);
  }
  int64_t StageAndActivate() {
    const int64_t version = Stage();
    EXPECT_TRUE(plane_->ActivateVersion(kRetailer, version).ok());
    return version;
  }
  std::vector<int64_t> Retained() const {
    return plane_->RetainedVersions(kRetailer);
  }
};

using Planes = ::testing::Types<serving::RecommendationStore,
                                retrieval::OnlineRetrievalReader>;
TYPED_TEST_SUITE(VersionChainContractTest, Planes);

TYPED_TEST(VersionChainContractTest, StagesWithoutActivating) {
  const int64_t v1 = this->Stage();
  EXPECT_EQ(v1, 1);
  // Resident but not serving.
  EXPECT_EQ(this->plane_->RetailerVersion(this->kRetailer), 0);
  EXPECT_EQ(this->plane_->LatestVersion(this->kRetailer), v1);
  ASSERT_TRUE(this->plane_->ActivateVersion(this->kRetailer, v1).ok());
  EXPECT_EQ(this->plane_->RetailerVersion(this->kRetailer), v1);

  // A second stage leaves v1 serving.
  const int64_t v2 = this->Stage();
  EXPECT_EQ(v2, 2);
  EXPECT_EQ(this->plane_->RetailerVersion(this->kRetailer), v1);
  EXPECT_EQ(this->plane_->LatestVersion(this->kRetailer), v2);
}

TYPED_TEST(VersionChainContractTest, StagesAPinnedVersionNumber) {
  EXPECT_EQ(this->Stage(/*version=*/5), 5);
  EXPECT_EQ(this->plane_->NextVersion(this->kRetailer), 6);
  // Auto-assignment continues above the pinned number.
  EXPECT_EQ(this->Stage(), 6);
  EXPECT_EQ(this->Retained(), (std::vector<int64_t>{5, 6}));
}

TYPED_TEST(VersionChainContractTest,
           RollbackToOldestThenStagingEvictsPastTheActiveVersion) {
  const int64_t v1 = this->StageAndActivate();
  this->StageAndActivate();
  ASSERT_TRUE(this->plane_->RollbackRetailer(this->kRetailer, v1).ok());
  EXPECT_EQ(this->plane_->RetailerVersion(this->kRetailer), v1);

  // retained_versions = 2: every stage keeps the active v1 and the version
  // just staged, and evicts the others — the pinned oldest version does
  // not shield newer ones from eviction.
  constexpr int kStages = 4;
  int64_t last = 0;
  for (int i = 0; i < kStages; ++i) last = this->Stage();
  EXPECT_EQ(last, 2 + kStages);
  EXPECT_EQ(this->Retained(), (std::vector<int64_t>{v1, last}));
  EXPECT_EQ(this->plane_->RetailerVersion(this->kRetailer), v1);
}

TYPED_TEST(VersionChainContractTest, RefusesToDiscardTheActiveVersion) {
  const int64_t v1 = this->StageAndActivate();
  const int64_t v2 = this->Stage();
  const Status active = this->plane_->DiscardVersion(this->kRetailer, v1);
  EXPECT_EQ(active.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(active.message().find(TestFixture::Traits::kName),
            std::string::npos)
      << active.message();

  ASSERT_TRUE(this->plane_->DiscardVersion(this->kRetailer, v2).ok());
  const Status gone = this->plane_->DiscardVersion(this->kRetailer, v2);
  EXPECT_EQ(gone.code(), StatusCode::kNotFound);
  EXPECT_NE(gone.message().find(TestFixture::Traits::kName),
            std::string::npos)
      << gone.message();
  EXPECT_EQ(this->plane_->ActivateVersion(this->kRetailer, 99).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(this->plane_->RollbackRetailer(this->kRetailer, 99).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(this->plane_->RetailerVersion(this->kRetailer), v1);
  EXPECT_EQ(this->Retained(), (std::vector<int64_t>{v1}));
}

TYPED_TEST(VersionChainContractTest, EnsureNextVersionNeverLowersTheCounter) {
  EXPECT_EQ(this->plane_->NextVersion(this->kRetailer), 1);
  this->Stage();
  this->Stage();
  this->Stage();
  EXPECT_EQ(this->plane_->NextVersion(this->kRetailer), 4);
  this->plane_->EnsureNextVersion(this->kRetailer, 2);
  EXPECT_EQ(this->plane_->NextVersion(this->kRetailer), 4);
  this->plane_->EnsureNextVersion(this->kRetailer, 10);
  EXPECT_EQ(this->plane_->NextVersion(this->kRetailer), 10);
  EXPECT_EQ(this->Stage(), 10);
}

TYPED_TEST(VersionChainContractTest, StateMatchesTheSeparateAccessors) {
  EXPECT_EQ(this->plane_->State(this->kRetailer), VersionChainState{});
  const int64_t v1 = this->StageAndActivate();
  this->Stage();
  this->Stage();
  this->plane_->EnsureNextVersion(this->kRetailer, 8);

  const VersionChainState state = this->plane_->State(this->kRetailer);
  EXPECT_EQ(state.active, this->plane_->RetailerVersion(this->kRetailer));
  EXPECT_EQ(state.next_version, this->plane_->NextVersion(this->kRetailer));
  EXPECT_EQ(state.retained, this->Retained());
  EXPECT_EQ(state, (VersionChainState{.active = v1,
                                      .next_version = 8,
                                      .retained = {v1, 3}}));
}

}  // namespace
}  // namespace sigmund
