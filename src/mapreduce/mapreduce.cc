#include "mapreduce/mapreduce.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace sigmund::mapreduce {

namespace {

class IdentityReducerImpl : public Reducer {
 public:
  Status Reduce(const std::string& key, const std::vector<std::string>& values,
                const Emitter& emit) override {
    for (const std::string& v : values) emit(Record{key, v});
    return OkStatus();
  }
};

}  // namespace

std::unique_ptr<Reducer> IdentityReducer() {
  return std::make_unique<IdentityReducerImpl>();
}

std::vector<std::pair<int64_t, int64_t>> ComputeSplits(int64_t n, int pieces) {
  std::vector<std::pair<int64_t, int64_t>> splits;
  if (n <= 0 || pieces <= 0) return splits;
  const int64_t p = std::min<int64_t>(pieces, n);
  const int64_t base = n / p;
  const int64_t extra = n % p;
  int64_t begin = 0;
  for (int64_t i = 0; i < p; ++i) {
    int64_t len = base + (i < extra ? 1 : 0);
    splits.emplace_back(begin, begin + len);
    begin += len;
  }
  return splits;
}

MapReduceJob::MapReduceJob(const MapReduceSpec& spec,
                           MapperFactory mapper_factory,
                           ReducerFactory reducer_factory)
    : spec_(spec),
      mapper_factory_(std::move(mapper_factory)),
      reducer_factory_(std::move(reducer_factory)) {
  SIGCHECK(spec_.metrics != nullptr) << "MapReduceSpec::metrics is required";
}

StatusOr<std::vector<Record>> MapReduceJob::Run(
    const std::vector<Record>& input) {
  if (spec_.num_map_tasks <= 0) {
    return InvalidArgumentError("num_map_tasks must be positive");
  }
  if (spec_.max_parallel_tasks <= 0) {
    return InvalidArgumentError("max_parallel_tasks must be positive");
  }
  // The job's counters and latency histograms (see MapReduceSpec),
  // looked up once and bumped where each event happens: on the worker
  // threads for task attempts, here for record totals.
  obs::MetricRegistry& metrics = *spec_.metrics;
  const obs::Labels map_labels = {{"job", spec_.label}, {"phase", "map"}};
  const obs::Labels reduce_labels = {{"job", spec_.label},
                                     {"phase", "reduce"}};
  obs::Counter* map_attempts =
      metrics.GetCounter("mapreduce_task_attempts_total", map_labels);
  obs::Counter* map_failures =
      metrics.GetCounter("mapreduce_task_failures_total", map_labels);
  obs::Counter* backup_attempts =
      metrics.GetCounter("mapreduce_backup_attempts_total", map_labels);
  obs::Counter* backups_won =
      metrics.GetCounter("mapreduce_backups_won_total", map_labels);
  obs::Counter* attempts_cancelled =
      metrics.GetCounter("mapreduce_attempts_cancelled_total", map_labels);
  obs::Counter* reduce_attempts =
      metrics.GetCounter("mapreduce_task_attempts_total", reduce_labels);
  obs::Counter* reduce_failures =
      metrics.GetCounter("mapreduce_task_failures_total", reduce_labels);
  auto records = [&](const char* kind) {
    return metrics.GetCounter("mapreduce_records_total",
                              {{"job", spec_.label}, {"kind", kind}});
  };
  obs::Counter* input_records = records("input");
  obs::Counter* mapped_records = records("mapped");
  obs::Counter* output_records = records("output");
  obs::Histogram* map_task_micros =
      metrics.GetHistogram("mapreduce_task_micros", map_labels);
  obs::Histogram* reduce_task_micros =
      metrics.GetHistogram("mapreduce_task_micros", reduce_labels);
  const Clock* clock = spec_.clock != nullptr ? spec_.clock : RealClock::Get();
  const std::string span_prefix =
      "mapreduce" + (spec_.label.empty() ? "" : "/" + spec_.label);
  input_records->Add(static_cast<int64_t>(input.size()));

  const auto splits =
      ComputeSplits(static_cast<int64_t>(input.size()), spec_.num_map_tasks);

  // --- Map phase. Each task attempt runs the whole split; on injected
  // failure or a transient (kUnavailable) error its buffered output is
  // discarded and the task retries. With speculative_backups on,
  // straggling tasks additionally get one backup attempt chain once most
  // of the phase has committed; the first chain to commit wins and the
  // loser cancels at its next record boundary.
  const size_t num_tasks = splits.size();
  std::vector<std::vector<Record>> map_outputs(num_tasks);
  std::mutex mu;
  Status first_error;
  // committed[t] is written under `mu` but read lock-free on the record
  // loop's cancellation fast path.
  std::unique_ptr<std::atomic<char>[]> committed(
      new std::atomic<char>[num_tasks]);
  for (size_t t = 0; t < num_tasks; ++t) committed[t].store(0);
  std::vector<char> backup_launched(num_tasks, 0);  // guarded by mu
  std::atomic<size_t> committed_count{0};
  const bool speculate = spec_.speculative_backups && num_tasks >= 2;
  // Backups launch once this many tasks have committed (at least 1, and
  // always before the last task so there is a straggler left to clone).
  const size_t speculation_trigger = std::min(
      num_tasks - 1,
      std::max<size_t>(
          1, static_cast<size_t>(std::ceil(spec_.speculation_commit_fraction *
                                           static_cast<double>(num_tasks)))));

  ThreadPool pool(spec_.max_parallel_tasks);
  obs::Span map_span;
  if (spec_.tracer != nullptr) {
    map_span = spec_.tracer->StartSpan(span_prefix + "/map");
  }

  // One attempt chain (primary or backup) for map task `t`. Backups draw
  // their failure injections from a distinct stream so a deterministic
  // kill of the primary does not replay on its clone.
  std::function<void(size_t, bool)> run_map_chain;
  run_map_chain = [&](size_t t, bool is_backup) {
    Rng rng(SplitMix64(spec_.seed) ^
            (is_backup ? SplitMix64(0xbacc00ULL + t) : (0x9e37u + t)));
    Status last_error;  // of the latest transiently failed attempt
    for (int attempt = 0; attempt < spec_.max_attempts_per_task; ++attempt) {
      if (speculate && committed[t].load(std::memory_order_acquire) != 0) {
        return;  // the other chain already won
      }
      map_attempts->Add(1);
      if (is_backup) backup_attempts->Add(1);
      const int64_t attempt_start = clock->NowMicros();
      // Decide upfront whether this attempt gets "preempted"; if so, at
      // which fraction of its split (output up to there is discarded).
      const bool fail = rng.Bernoulli(spec_.map_task_failure_prob);
      const double fail_frac = rng.UniformDouble();

      std::vector<Record> buffer;
      std::unique_ptr<Mapper> mapper = mapper_factory_();
      Emitter emit = [&buffer](Record r) { buffer.push_back(std::move(r)); };

      Status s = mapper->Start(static_cast<int>(t));
      const auto [begin, end] = splits[t];
      const int64_t kill_at =
          begin + static_cast<int64_t>((end - begin) * fail_frac);
      bool killed = false;
      bool cancelled = false;
      for (int64_t i = begin; s.ok() && i < end; ++i) {
        if (speculate && committed[t].load(std::memory_order_acquire) != 0) {
          cancelled = true;  // the other chain committed mid-split
          break;
        }
        if (fail && i >= kill_at) {
          killed = true;
          break;
        }
        s = mapper->Map(input[i], emit);
      }
      if (s.ok() && !killed && !cancelled) s = mapper->Finish(emit);

      map_task_micros->Observe(
          static_cast<double>(clock->NowMicros() - attempt_start));
      if (cancelled) {
        attempts_cancelled->Add(1);
        return;  // buffer dropped; the winner's output stands
      }
      if (killed || s.code() == StatusCode::kUnavailable) {
        map_failures->Add(1);
        if (!s.ok()) last_error = s;
        continue;  // transient: retry; buffer dropped
      }
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error.ok()) first_error = s;
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        if (committed[t].load(std::memory_order_relaxed) != 0) {
          return;  // lost the commit race; discard
        }
        map_outputs[t] = std::move(buffer);
        committed[t].store(1, std::memory_order_release);
      }
      committed_count.fetch_add(1);
      if (is_backup) backups_won->Add(1);
      // Straggler detection: once enough of the phase has committed,
      // clone every still-uncommitted task (once).
      if (speculate && committed_count.load() >= speculation_trigger) {
        std::lock_guard<std::mutex> lock(mu);
        for (size_t other = 0; other < num_tasks; ++other) {
          if (committed[other].load(std::memory_order_relaxed) == 0 &&
              backup_launched[other] == 0) {
            backup_launched[other] = 1;
            pool.Schedule([&run_map_chain, other] {
              run_map_chain(other, /*is_backup=*/true);
            });
          }
        }
      }
      return;
    }
    // This chain exhausted its attempts; the task as a whole failed only
    // if nobody else committed it.
    std::lock_guard<std::mutex> lock(mu);
    if (committed[t].load(std::memory_order_relaxed) == 0 &&
        first_error.ok()) {
      first_error = UnavailableError(
          StrFormat("map task %zu exceeded %d attempts", t,
                    spec_.max_attempts_per_task) +
          (last_error.ok() ? "" : "; last: " + last_error.ToString()));
    }
  };

  for (size_t t = 0; t < num_tasks; ++t) {
    pool.Schedule([&run_map_chain, t] { run_map_chain(t, false); });
  }
  pool.Wait();
  map_span.End();
  if (!first_error.ok()) return first_error;

  int64_t mapped = 0;
  for (const auto& out : map_outputs) mapped += out.size();
  mapped_records->Add(mapped);

  // --- Map-only job: concatenate split outputs in order.
  if (spec_.num_reduce_tasks <= 0) {
    std::vector<Record> result;
    result.reserve(mapped);
    for (auto& out : map_outputs) {
      for (Record& r : out) result.push_back(std::move(r));
    }
    output_records->Add(static_cast<int64_t>(result.size()));
    return result;
  }

  // --- Shuffle: partition by key hash, group values per key.
  obs::Span shuffle_span;
  if (spec_.tracer != nullptr) {
    shuffle_span = spec_.tracer->StartSpan(span_prefix + "/shuffle");
  }
  const int r_tasks = spec_.num_reduce_tasks;
  std::vector<std::map<std::string, std::vector<std::string>>> partitions(
      r_tasks);
  std::hash<std::string> hasher;
  for (auto& out : map_outputs) {
    for (Record& r : out) {
      int part = static_cast<int>(hasher(r.key) % r_tasks);
      partitions[part][r.key].push_back(std::move(r.value));
    }
  }

  shuffle_span.End();

  // --- Reduce phase. Mirrors the map phase's fault tolerance: a killed
  // or transiently failed attempt drops its buffer and reruns the whole
  // partition, which is safe because the shuffle buffers are immutable
  // once built.
  obs::Span reduce_span;
  if (spec_.tracer != nullptr) {
    reduce_span = spec_.tracer->StartSpan(span_prefix + "/reduce");
  }
  std::vector<std::vector<Record>> reduce_outputs(r_tasks);
  for (int p = 0; p < r_tasks; ++p) {
    pool.Schedule([&, p] {
      Rng rng(SplitMix64(spec_.seed) ^ (0x7ecau * static_cast<uint64_t>(p + 1)));
      const int64_t num_keys = static_cast<int64_t>(partitions[p].size());
      Status last_error;  // of the latest transiently failed attempt
      for (int attempt = 0; attempt < spec_.max_attempts_per_task; ++attempt) {
        reduce_attempts->Add(1);
        const int64_t attempt_start = clock->NowMicros();
        const bool fail = rng.Bernoulli(spec_.reduce_task_failure_prob);
        const double fail_frac = rng.UniformDouble();
        const int64_t kill_at = static_cast<int64_t>(num_keys * fail_frac);

        std::vector<Record> buffer;
        std::unique_ptr<Reducer> reducer = reducer_factory_();
        Emitter emit = [&buffer](Record r) { buffer.push_back(std::move(r)); };

        Status s = OkStatus();
        bool killed = false;
        int64_t key_index = 0;
        for (const auto& [key, values] : partitions[p]) {
          if (fail && key_index >= kill_at) {
            killed = true;
            break;
          }
          s = reducer->Reduce(key, values, emit);
          if (!s.ok()) break;
          ++key_index;
        }

        reduce_task_micros->Observe(
            static_cast<double>(clock->NowMicros() - attempt_start));
        if (killed || s.code() == StatusCode::kUnavailable) {
          reduce_failures->Add(1);
          if (!s.ok()) last_error = s;
          continue;  // transient: retry; buffer dropped
        }
        if (!s.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          if (first_error.ok()) first_error = s;
          return;
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          reduce_outputs[p] = std::move(buffer);
        }
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      if (first_error.ok()) {
        first_error = UnavailableError(
            StrFormat("reduce task %d exceeded %d attempts", p,
                      spec_.max_attempts_per_task) +
            (last_error.ok() ? "" : "; last: " + last_error.ToString()));
      }
    });
  }
  pool.Wait();
  reduce_span.End();
  if (!first_error.ok()) return first_error;

  std::vector<Record> result;
  for (auto& out : reduce_outputs) {
    for (Record& r : out) result.push_back(std::move(r));
  }
  std::stable_sort(result.begin(), result.end(),
                   [](const Record& a, const Record& b) { return a.key < b.key; });
  output_records->Add(static_cast<int64_t>(result.size()));
  return result;
}

}  // namespace sigmund::mapreduce
