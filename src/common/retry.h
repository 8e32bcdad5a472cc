#ifndef SIGMUND_COMMON_RETRY_H_
#define SIGMUND_COMMON_RETRY_H_

#include <functional>

#include "common/status.h"

namespace sigmund {

namespace obs {
class Counter;
}  // namespace obs

// Retry policy for operations against shared infrastructure (the SFS
// stand-in for GFS). The paper's pipeline lives almost entirely on
// pre-emptible resources (§IV-B3), so every layer must treat transient
// kUnavailable errors as routine: retry at once, give up only after
// max_attempts, and never retry errors that won't heal (kNotFound,
// kDataLoss, ...). The pipeline runs against in-process fakes with no
// real latency, so there is no delay between attempts.
struct RetryPolicy {
  int max_attempts = 5;
};

// Where retry events are counted: two borrowed metrics-registry counters
// (sfs::ReliableIoCounters points them at sfs_retries_total and
// sfs_retry_exhaustions_total). Both must be non-null.
struct RetryStats {
  obs::Counter* retries = nullptr;      // attempts beyond the first
  obs::Counter* exhaustions = nullptr;  // gave up after max_attempts
};

// True for errors a retry can plausibly heal (transient unavailability,
// e.g. an injected fault or a preempted storage server).
bool IsRetryableError(const Status& status);

// Runs `op` until it returns OK, a non-retryable error, or max_attempts
// is reached (the last error is returned, after counting an exhaustion).
// `stats` may be nullptr: nothing is counted.
Status RetryWithPolicy(const RetryPolicy& policy, const RetryStats* stats,
                       const std::function<Status()>& op);

// StatusOr flavor: same loop, returns the last attempt's result.
template <typename T>
StatusOr<T> RetryWithPolicy(const RetryPolicy& policy,
                            const RetryStats* stats,
                            const std::function<StatusOr<T>()>& op) {
  StatusOr<T> result = InternalError("retry loop never ran");
  (void)RetryWithPolicy(policy, stats, [&]() -> Status {
    result = op();
    return result.status();
  });
  return result;
}

}  // namespace sigmund

#endif  // SIGMUND_COMMON_RETRY_H_
