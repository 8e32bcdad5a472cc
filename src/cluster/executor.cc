#include "cluster/executor.h"

#include <cmath>

#include "common/random.h"

namespace sigmund::cluster {

MachineLease PreemptibleExecutor::Acquire(const std::string& task_key,
                                          double now_seconds) {
  int64_t incarnation = 0;
  LeasePriority priority;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] =
        tasks_.emplace(task_key, TaskState{0, 0, options_.initial_priority});
    incarnation = it->second.incarnations++;
    priority = it->second.priority;
  }

  MachineLease lease;
  lease.task_key_ = task_key;
  lease.priority_ = priority;
  lease.incarnation_ = incarnation;

  const double rate = options_.churn.preemption_rate_per_hour;
  if (priority == LeasePriority::kPreemptible && rate > 0.0) {
    // Exponential inter-preemption time, drawn from a stream keyed by
    // (seed, task, incarnation) so the schedule is independent of which
    // worker thread runs the task and of other tasks' progress.
    Rng rng(SplitMix64(options_.churn.seed) ^
            SplitMix64(StableHash64(task_key)) ^
            SplitMix64(static_cast<uint64_t>(incarnation) * 0x9e3779b9ULL +
                       1));
    const double lambda = rate / 3600.0;
    const double u = std::max(rng.UniformDouble(), 1e-300);
    const double inter_preemption = -std::log(u) / lambda;
    lease.eviction_at_seconds_ = now_seconds + inter_preemption;
    lease.grace_deadline_seconds_ =
        lease.eviction_at_seconds_ +
        std::max(0.0, options_.churn.eviction_grace_seconds);
  }
  return lease;
}

bool PreemptibleExecutor::OnEviction(const std::string& task_key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      tasks_.emplace(task_key, TaskState{0, 0, options_.initial_priority});
  TaskState& task = it->second;
  ++task.evictions;
  const int threshold = options_.churn.escalate_after_evictions;
  if (threshold > 0 && task.evictions >= threshold &&
      task.priority == LeasePriority::kPreemptible) {
    task.priority = LeasePriority::kRegular;
    return true;
  }
  return false;
}

LeasePriority PreemptibleExecutor::TaskPriority(
    const std::string& task_key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tasks_.find(task_key);
  return it != tasks_.end() ? it->second.priority
                            : options_.initial_priority;
}

int PreemptibleExecutor::EvictionCount(const std::string& task_key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tasks_.find(task_key);
  return it != tasks_.end() ? it->second.evictions : 0;
}

}  // namespace sigmund::cluster
