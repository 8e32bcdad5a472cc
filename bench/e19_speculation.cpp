// E19: Speculative backup attempts vs stragglers — the classic MapReduce
// tail-latency mitigation (Dean & Ghemawat §3.6) applied to the daily
// pipeline's map phases. One simulated machine is slow: the first attempt
// of the straggler task processes every record `skew`x slower than its
// peers. Retry-only has to ride the slow attempt to completion; with
// speculative backups the engine clones the slowest in-flight task once
// the phase is ~75% committed, and the (fast) backup commits first.
//
// Prints map-phase makespan for both modes across skew factors, plus the
// backup bookkeeping, and the makespan reduction speculation buys.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "mapreduce/mapreduce.h"
#include "tests/counter_total.h"

using namespace sigmund;
using mapreduce::Emitter;
using mapreduce::MapReduceJob;
using mapreduce::MapReduceSpec;
using mapreduce::Mapper;
using mapreduce::Record;

namespace {

constexpr int kNumTasks = 8;
constexpr int kRecordsPerTask = 8;
constexpr double kBaseMillisPerRecord = 2.0;

// Every record costs kBaseMillisPerRecord of wall time — except on the
// straggler machine: the *first* attempt of task 0 runs `skew`x slower.
// Any later attempt of task 0 (a retry or a speculative backup) lands on
// a healthy machine and runs at full speed.
class SlowMachineMapper : public Mapper {
 public:
  SlowMachineMapper(std::atomic<int>* task0_attempts, double skew)
      : task0_attempts_(task0_attempts), skew_(skew) {}

  Status Start(int task_id) override {
    if (task_id == 0) {
      straggling_ = task0_attempts_->fetch_add(1) == 0;
    }
    return OkStatus();
  }

  Status Map(const Record& input, const Emitter& emit) override {
    const double millis =
        kBaseMillisPerRecord * (straggling_ ? skew_ : 1.0);
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(millis * 1000.0)));
    emit(input);
    return OkStatus();
  }

 private:
  std::atomic<int>* task0_attempts_;
  const double skew_;
  bool straggling_ = false;
};

struct RunResult {
  double makespan_ms = 0.0;
  int64_t backup_attempts = 0;
  int64_t backups_won = 0;
  int64_t attempts_cancelled = 0;
};

RunResult RunOnce(bool speculate, double skew) {
  obs::MetricRegistry metrics;
  MapReduceSpec spec;
  spec.num_map_tasks = kNumTasks;
  spec.num_reduce_tasks = 0;  // map-only: isolate the map-phase makespan
  spec.max_parallel_tasks = kNumTasks;
  spec.speculative_backups = speculate;
  spec.speculation_commit_fraction = 0.75;
  spec.metrics = &metrics;
  std::atomic<int> task0_attempts{0};
  MapReduceJob job(
      spec,
      [&task0_attempts, skew] {
        return std::make_unique<SlowMachineMapper>(&task0_attempts, skew);
      },
      [] { return mapreduce::IdentityReducer(); });
  std::vector<Record> input;
  for (int i = 0; i < kNumTasks * kRecordsPerTask; ++i) {
    input.push_back({std::to_string(i), "v"});
  }
  auto start = std::chrono::steady_clock::now();
  auto out = job.Run(input);
  auto end = std::chrono::steady_clock::now();
  if (!out.ok() || out->size() != input.size()) {
    std::fprintf(stderr, "run failed or lost records\n");
    std::exit(1);
  }
  RunResult result;
  result.makespan_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  result.backup_attempts = testutil::CounterTotal(
      metrics, "mapreduce_backup_attempts_total");
  result.backups_won =
      testutil::CounterTotal(metrics, "mapreduce_backups_won_total");
  result.attempts_cancelled =
      testutil::CounterTotal(metrics, "mapreduce_attempts_cancelled_total");
  return result;
}

}  // namespace

int main() {
  std::printf(
      "E19 speculative backups | %d map tasks x %d records, "
      "%.0fms/record, straggler = first attempt of task 0\n",
      kNumTasks, kRecordsPerTask, kBaseMillisPerRecord);
  std::printf("\n%-6s %-16s %-16s %-10s %-9s %-8s %-10s\n", "skew",
              "retry-only(ms)", "speculative(ms)", "reduction", "backups",
              "won", "cancelled");
  for (double skew : {5.0, 10.0, 20.0}) {
    RunResult retry_only = RunOnce(/*speculate=*/false, skew);
    RunResult speculative = RunOnce(/*speculate=*/true, skew);
    char reduction[16];
    std::snprintf(reduction, sizeof(reduction), "%.0f%%",
                  100.0 * (1.0 - speculative.makespan_ms /
                                     retry_only.makespan_ms));
    std::printf("%-6.0f %-16.1f %-16.1f %-10s %-9lld %-8lld %-10lld\n",
                skew, retry_only.makespan_ms, speculative.makespan_ms,
                reduction,
                static_cast<long long>(speculative.backup_attempts),
                static_cast<long long>(speculative.backups_won),
                static_cast<long long>(speculative.attempts_cancelled));
  }
  std::printf(
      "\nretry-only rides the slow attempt to completion; speculation "
      "clones the laggard once ~75%% of tasks commit and takes the "
      "first result (Dean & Ghemawat SS3.6)\n");
  return 0;
}
