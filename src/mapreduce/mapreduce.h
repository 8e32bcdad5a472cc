#ifndef SIGMUND_MAPREDUCE_MAPREDUCE_H_
#define SIGMUND_MAPREDUCE_MAPREDUCE_H_

#include <stdint.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"

namespace sigmund::mapreduce {

// A key/value record, the unit of data flowing through a MapReduce.
struct Record {
  std::string key;
  std::string value;
};

// Emits an output record from a map or reduce call.
using Emitter = std::function<void(Record)>;

// User map logic. One Mapper instance is constructed per map-task
// *attempt* and sees the records of its input split in order, which is
// what lets Sigmund's inference mapper keep a per-retailer model loaded
// across consecutive records and reload only at retailer boundaries
// (Section IV-C2 of the paper).
class Mapper {
 public:
  virtual ~Mapper() = default;

  // Called once before the first record of the split.
  virtual Status Start(int task_id) {
    (void)task_id;
    return OkStatus();
  }

  // Called once per input record.
  virtual Status Map(const Record& input, const Emitter& emit) = 0;

  // Called once after the last record of the split (for flushing
  // combiner-style state).
  virtual Status Finish(const Emitter& emit) {
    (void)emit;
    return OkStatus();
  }
};

// User reduce logic: one call per distinct key with all its values.
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual Status Reduce(const std::string& key,
                        const std::vector<std::string>& values,
                        const Emitter& emit) = 0;
};

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;

// Identity reducer: emits each (key, value) unchanged.
std::unique_ptr<Reducer> IdentityReducer();

struct MapReduceSpec {
  // Number of input splits (map tasks). Input records are partitioned into
  // this many contiguous chunks, preserving order.
  int num_map_tasks = 1;

  // Number of shuffle partitions (reduce tasks). 0 = map-only job: map
  // outputs are concatenated in split order with no shuffle.
  int num_reduce_tasks = 1;

  // Worker threads executing tasks concurrently (simulated machines).
  int max_parallel_tasks = 1;

  // Probability that a map-task attempt is killed before committing
  // (pre-emption injection). Failed attempts are retried from scratch with
  // their partial output discarded — standard MapReduce fault tolerance.
  double map_task_failure_prob = 0.0;

  // Same, for reduce-task attempts: a killed attempt discards its buffered
  // output and reruns its whole partition (reduce input survives in the
  // shuffle buffers, so retries are exact reruns).
  double reduce_task_failure_prob = 0.0;

  // Cap on attempts per task (map or reduce) before the whole job fails.
  // A killed attempt and one whose Start/Map/Finish/Reduce returned
  // kUnavailable (transient, e.g. an SFS call that exhausted its retry
  // policy) are both retried from scratch and counted in
  // mapreduce_task_failures_total; any other error fails the job at once.
  int max_attempts_per_task = 10;

  // Straggler mitigation (Dean & Ghemawat's backup tasks): once at least
  // speculation_commit_fraction of the map tasks have committed, every
  // still-uncommitted map task gets one speculative backup attempt
  // scheduled alongside its primary attempt chain. The first attempt to
  // commit wins; the loser notices at its next record boundary and
  // discards its buffer. Requires the mapper to be safe to run twice
  // concurrently for the same split (pure, or idempotent side effects) —
  // which is why the side-effect-heavy training job leaves this off while
  // the read-only inference job can turn it on.
  bool speculative_backups = false;
  double speculation_commit_fraction = 0.75;

  uint64_t seed = 42;

  // --- Observability (borrowed; never affects results). `metrics` is
  // required: it is the only home of the job's counters, which Run() bumps
  // as each event happens (DESIGN.md §5). Per {job=<label>, phase}:
  //   mapreduce_task_attempts_total, mapreduce_task_failures_total, and
  //   the mapreduce_task_micros latency histogram (phase=map|reduce);
  //   mapreduce_backup_attempts_total (backups launched for stragglers),
  //   mapreduce_backups_won_total (backups that committed first) and
  //   mapreduce_attempts_cancelled_total (attempts that found their task
  //   already committed and stopped mid-split), phase=map only.
  // Per {job=<label>, kind}: mapreduce_records_total, kind=input (records
  // fed in), mapped (emitted by committed map tasks) and output (returned).
  // When `tracer` is set, Run() wraps the map / shuffle / reduce phases in
  // spans (children of whatever span is open on the calling thread).
  obs::MetricRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  // Time source for task latency histograms (null = RealClock).
  const Clock* clock = nullptr;
  // Job label for metric dimensions, e.g. "training" or "inference/cell0".
  std::string label;
};

// In-process MapReduce runtime. Deterministic given the spec seed.
//
// Example (word count):
//   MapReduceJob job(spec, [] { return std::make_unique<TokenMapper>(); },
//                    [] { return std::make_unique<SumReducer>(); });
//   StatusOr<std::vector<Record>> out = job.Run(input);
class MapReduceJob {
 public:
  // Aborts unless spec.metrics is set.
  MapReduceJob(const MapReduceSpec& spec, MapperFactory mapper_factory,
               ReducerFactory reducer_factory);

  // Runs the job; returns reduce output (or concatenated map output for a
  // map-only job). Reduce output is sorted by key.
  StatusOr<std::vector<Record>> Run(const std::vector<Record>& input);

 private:
  MapReduceSpec spec_;
  MapperFactory mapper_factory_;
  ReducerFactory reducer_factory_;
};

// Splits [0, n) into `pieces` contiguous ranges as evenly as possible.
// Returns (begin, end) pairs; fewer than `pieces` if n < pieces.
std::vector<std::pair<int64_t, int64_t>> ComputeSplits(int64_t n, int pieces);

}  // namespace sigmund::mapreduce

#endif  // SIGMUND_MAPREDUCE_MAPREDUCE_H_
