#ifndef SIGMUND_PIPELINE_CHECKPOINT_H_
#define SIGMUND_PIPELINE_CHECKPOINT_H_

#include <stdint.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "core/model.h"
#include "sfs/reliable_io.h"
#include "sfs/shared_filesystem.h"

namespace sigmund::pipeline {

// Time-interval-based checkpointing of a training run to the shared
// filesystem (§IV-B3): checkpoints are scheduled on a fixed *time*
// interval (not an iteration count, because time-per-iteration varies
// wildly across retailer sizes), only the latest checkpoint is kept (the
// previous one is garbage-collected as soon as a new one commits), and
// commits are atomic (write to a temp path, then rename).
//
// The checkpoint payload carries the epoch number so a restarted task
// resumes with the remaining epochs only.
//
// Robustness: checkpoints are CRC-framed (sfs/reliable_io.h), transient
// SFS errors are retried per the policy, garbage collection is
// best-effort (a Delete that keeps failing leaves a stale checkpoint
// behind, which is harmless — Restore always takes the newest), and a
// corrupt latest checkpoint is reported as kNotFound so training restarts
// from scratch instead of crashing or silently training on garbage.
class CheckpointManager {
 public:
  // `fs`, `clock`, `io` and `corrupt_skipped` are borrowed. `dir` is the
  // SFS directory for this (retailer, model) pair's checkpoints. `io`, if
  // given, counts retries and failed CRC checks into its registry;
  // `corrupt_skipped`, if given, counts every corrupt checkpoint Restore
  // skips, at the moment it skips it.
  CheckpointManager(sfs::SharedFileSystem* fs, const Clock* clock,
                    std::string dir, double interval_seconds,
                    RetryPolicy retry_policy = {},
                    sfs::ReliableIoCounters* io = nullptr,
                    obs::Counter* corrupt_skipped = nullptr);

  // Writes a checkpoint if at least interval_seconds elapsed since the
  // last one (or since construction). Returns true if one was written.
  StatusOr<bool> MaybeCheckpoint(const core::BprModel& model, int epoch);

  // Unconditionally writes a checkpoint.
  Status ForceCheckpoint(const core::BprModel& model, int epoch);

  // True if a committed checkpoint exists for this directory.
  bool HasCheckpoint() const;

  // Restores the latest committed checkpoint. Returns the model and the
  // epoch it was taken at (training resumes at epoch+1). A corrupt latest
  // checkpoint (bad CRC, truncated or undecodable payload) is counted in
  // `corrupt_skipped` and reported as kNotFound — to the
  // caller it looks like no checkpoint exists, so the task restarts
  // cleanly from scratch. Only a bad CRC is also an SFS corruption
  // (counted by ReadChecksummedFile through `io`).
  struct Restored {
    core::BprModel model;
    int epoch = -1;
  };
  StatusOr<Restored> Restore(const data::Catalog* catalog) const;

  // Deletes all checkpoints for this directory (after a successful final
  // model write). Idempotent: clearing an already-empty directory is OK,
  // and concurrent deletion (kNotFound) is tolerated.
  Status Clear();

 private:
  // Counts and logs a corrupt latest checkpoint, and reports it as absent.
  Status SkipCorrupt(const std::string& path, const char* why) const;

  std::string VersionPath(int64_t version) const;

  // List with transient-error retry.
  StatusOr<std::vector<std::string>> ListRetrying(
      const std::string& prefix) const;

  sfs::SharedFileSystem* fs_;
  const Clock* clock_;
  std::string dir_;
  double interval_seconds_;
  RetryPolicy retry_policy_;
  sfs::ReliableIoCounters* io_;      // may be null
  obs::Counter* corrupt_skipped_;  // may be null
  double last_checkpoint_time_;
  int64_t next_version_ = 0;
};

}  // namespace sigmund::pipeline

#endif  // SIGMUND_PIPELINE_CHECKPOINT_H_
