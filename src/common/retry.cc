#include "common/retry.h"

#include <algorithm>

#include "common/metrics.h"

namespace sigmund {

bool IsRetryableError(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

Status RetryWithPolicy(const RetryPolicy& policy, const RetryStats* stats,
                       const std::function<Status()>& op) {
  const int max_attempts = std::max(1, policy.max_attempts);
  Status last;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0 && stats != nullptr) stats->retries->Add(1);
    last = op();
    if (last.ok() || !IsRetryableError(last)) return last;
  }
  if (stats != nullptr) stats->exhaustions->Add(1);
  return last;
}

}  // namespace sigmund
