#ifndef SIGMUND_SFS_FAULT_INJECTION_H_
#define SIGMUND_SFS_FAULT_INJECTION_H_

#include <stdint.h>

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "sfs/shared_filesystem.h"

namespace sigmund::sfs {

// Probabilities for each fault class, all in [0, 1]. The default profile
// injects nothing, so a FaultInjectingFileSystem with a default profile
// behaves exactly like its base filesystem.
struct FaultProfile {
  // Transient kUnavailable errors: the operation fails without touching
  // state, and retrying the identical call can succeed.
  double read_error_prob = 0.0;
  double write_error_prob = 0.0;
  double rename_error_prob = 0.0;
  double delete_error_prob = 0.0;
  double list_error_prob = 0.0;

  // Torn writes: Write() returns OK but the stored blob is silently
  // truncated at a random point or has a garbage tail appended. Models a
  // writer crashing mid-stream or a replica going bad; only a checksum
  // at read time can catch it.
  double torn_write_prob = 0.0;

  // Seed for the deterministic fault schedule. Two runs with the same
  // profile and the same per-path access sequence inject identical faults.
  uint64_t seed = 1;
};

// Counters for each fault actually injected: the test double's own
// ground truth, which chaos tests compare the registry's
// sfs_faults_injected_total{op=...} series against. Operators read the
// registry (SetMetrics), not these. Readable while the filesystem is in
// use.
struct FaultCounters {
  std::atomic<int64_t> read_errors{0};
  std::atomic<int64_t> write_errors{0};
  std::atomic<int64_t> rename_errors{0};
  std::atomic<int64_t> delete_errors{0};
  std::atomic<int64_t> list_errors{0};
  std::atomic<int64_t> torn_writes{0};

  int64_t total() const {
    return read_errors.load() + write_errors.load() + rename_errors.load() +
           delete_errors.load() + list_errors.load() + torn_writes.load();
  }
};

// Decorator that wraps any SharedFileSystem and injects faults per the
// profile. The base filesystem is borrowed, not owned.
//
// Fault decisions are deterministic per (operation, path, n-th access of
// that path by that operation): the draw is seeded from a hash of those
// three values plus the profile seed, so the fault schedule does not
// depend on thread interleaving — only on how many times each caller
// touches each path. This is what lets the chaos test compare a faulty
// run against a fault-free run.
class FaultInjectingFileSystem : public SharedFileSystem {
 public:
  FaultInjectingFileSystem(SharedFileSystem* base, FaultProfile profile);

  Status Write(const std::string& path, const std::string& data) override;
  StatusOr<std::string> Read(const std::string& path) const override;
  Status Delete(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  bool Exists(const std::string& path) const override;
  StatusOr<std::vector<std::string>> List(
      const std::string& prefix) const override;
  StatusOr<int64_t> FileSize(const std::string& path) const override;

  const FaultCounters& counters() const { return counters_; }

  // Also count every injected fault into sfs_faults_injected_total{op=...}
  // of `registry` (borrowed; null disconnects), live as it is injected.
  // This is the only way the faults reach a SigmundService's DailyReport.
  // Purely additive — the fault schedule is unchanged.
  void SetMetrics(obs::MetricRegistry* registry);

  // Master switch; when disabled every call passes straight through.
  // Lets tests stage data cleanly before turning chaos on.
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }

 private:
  enum class Op { kRead, kWrite, kRename, kDelete, kList, kTornWrite };

  // True if the n-th `op` access to `path` should fault with probability
  // `prob`. Bumps the access counter as a side effect.
  bool ShouldFault(Op op, const std::string& path, double prob) const;

  // Produces the corrupted blob for a torn write of `data`.
  std::string TearBlob(const std::string& path, const std::string& data) const;

  // Bumps the per-op ground-truth counter and, when wired, the registry
  // series.
  void CountFault(std::atomic<int64_t>* counter, const char* op) const;

  SharedFileSystem* const base_;
  const FaultProfile profile_;
  std::atomic<obs::MetricRegistry*> metrics_{nullptr};
  std::atomic<bool> enabled_{true};
  mutable FaultCounters counters_;  // Read/List are const but do count

  mutable std::mutex mu_;
  // (op, path) -> number of accesses so far.
  mutable std::map<std::pair<int, std::string>, uint64_t> access_counts_;
};

}  // namespace sigmund::sfs

#endif  // SIGMUND_SFS_FAULT_INJECTION_H_
