#ifndef SIGMUND_TESTS_FAKE_READER_H_
#define SIGMUND_TESTS_FAKE_READER_H_

// A ServingReader whose lookups run a test's lambda, so a Frontend can be
// driven through injected errors, simulated latency (a SimClock advanced
// inside the lambda) or canned lists without a real store. Header-only.

#include <functional>
#include <utility>
#include <vector>

#include "serving/store.h"

namespace sigmund::testutil {

class FakeReader : public serving::ServingReader {
 public:
  using Lookup = std::function<StatusOr<std::vector<core::ScoredItem>>(
      data::RetailerId, const core::Context&)>;

  // `versions` (borrowed, may be null) answers RetailerVersion, for tests
  // that fake a real store's lookups but keep its batch versions; without
  // it every retailer reads as never loaded (version 0).
  explicit FakeReader(Lookup lookup,
                      const serving::ServingReader* versions = nullptr)
      : lookup_(std::move(lookup)), versions_(versions) {}

  // Replaces the lambda; not safe while another thread is serving.
  void set_lookup(Lookup lookup) { lookup_ = std::move(lookup); }

  StatusOr<std::vector<core::ScoredItem>> ServeContext(
      data::RetailerId retailer,
      const core::Context& context) const override {
    return lookup_(retailer, context);
  }
  int64_t RetailerVersion(data::RetailerId retailer) const override {
    return versions_ != nullptr ? versions_->RetailerVersion(retailer) : 0;
  }

 private:
  Lookup lookup_;
  const serving::ServingReader* versions_;
};

}  // namespace sigmund::testutil

#endif  // SIGMUND_TESTS_FAKE_READER_H_
