#ifndef SIGMUND_CLUSTER_EXECUTOR_H_
#define SIGMUND_CLUSTER_EXECUTOR_H_

#include <stdint.h>

#include <map>
#include <mutex>
#include <string>

#include "cluster/lease.h"

namespace sigmund::cluster {

// The preemptible-cell execution runtime (§IV-B): hands out revocable
// machine leases to logical tasks, tracks per-task eviction counts, and
// escalates a task that has been evicted too often from preemptible to
// regular priority so it can still finish by the daily deadline.
//
// Protocol, from the task holder's point of view:
//
//   MachineLease lease = executor->Acquire(key, clock.NowSeconds());
//   ... do work, advancing the clock ...
//   switch (lease.Check(clock.NowSeconds())) {
//     case kHeld:            keep working
//     case kEvictionNotice:  flush a final checkpoint, then
//                            executor->OnEviction(key)
//     case kRevoked:         machine already gone: executor->OnEviction(key)
//   }
//   lease = executor->Acquire(key, clock.NowSeconds());   // fresh machine
//
// Deterministic: eviction times depend only on (seed, task key,
// incarnation), never on thread scheduling. Thread-safe: map tasks on
// pool threads share one executor. The executor keeps no counters: the
// holder counts evictions, grace checkpoints and escalations into its
// metrics registry (training_evictions_total and siblings).
class PreemptibleExecutor {
 public:
  struct Options {
    ChurnConfig churn;
    // Priority a task starts at (escalation can only raise it).
    LeasePriority initial_priority = LeasePriority::kPreemptible;
  };

  explicit PreemptibleExecutor(const Options& options) : options_(options) {}

  // True when leases can actually be revoked (churn configured and the
  // initial priority is preemptible). When false, Acquire still works but
  // every lease is a stable regular machine.
  bool churn_enabled() const {
    return options_.churn.preemption_rate_per_hour > 0.0 &&
           options_.initial_priority == LeasePriority::kPreemptible;
  }

  // Grants a lease for the next incarnation of `task_key`, starting at
  // `now_seconds` on the holder's clock.
  MachineLease Acquire(const std::string& task_key, double now_seconds);

  // The holder reports that its lease was revoked, whether or not it
  // caught the eviction notice inside the grace window. Returns true if
  // this eviction escalated the task to regular priority.
  bool OnEviction(const std::string& task_key);

  // Current priority of `task_key` (initial priority if never seen).
  LeasePriority TaskPriority(const std::string& task_key) const;

  // Evictions suffered by `task_key` so far.
  int EvictionCount(const std::string& task_key) const;

  const Options& options() const { return options_; }

 private:
  struct TaskState {
    int64_t incarnations = 0;
    int evictions = 0;
    LeasePriority priority = LeasePriority::kPreemptible;
  };

  Options options_;
  mutable std::mutex mu_;
  std::map<std::string, TaskState> tasks_;
};

}  // namespace sigmund::cluster

#endif  // SIGMUND_CLUSTER_EXECUTOR_H_
