#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "counter_total.h"
#include "mapreduce/mapreduce.h"

namespace sigmund::mapreduce {
namespace {

// Splits each value into whitespace-free tokens keyed by the token.
class TokenMapper : public Mapper {
 public:
  Status Map(const Record& input, const Emitter& emit) override {
    for (const std::string& token : StrSplit(input.value, ' ')) {
      if (!token.empty()) emit(Record{token, "1"});
    }
    return OkStatus();
  }
};

class SumReducer : public Reducer {
 public:
  Status Reduce(const std::string& key, const std::vector<std::string>& values,
                const Emitter& emit) override {
    emit(Record{key, std::to_string(values.size())});
    return OkStatus();
  }
};

// Mapper that records Start/Finish lifecycle and echoes records.
class LifecycleMapper : public Mapper {
 public:
  Status Start(int task_id) override {
    task_id_ = task_id;
    return OkStatus();
  }
  Status Map(const Record& input, const Emitter& emit) override {
    emit(Record{input.key, StrFormat("t%d:%s", task_id_, input.value.c_str())});
    return OkStatus();
  }
  Status Finish(const Emitter& emit) override {
    emit(Record{"__finish__", std::to_string(task_id_)});
    return OkStatus();
  }

 private:
  int task_id_ = -1;
};

class FailOnKeyMapper : public Mapper {
 public:
  Status Map(const Record& input, const Emitter& emit) override {
    if (input.key == "bad") return InternalError("poisoned record");
    emit(input);
    return OkStatus();
  }
};

std::vector<Record> WordInput() {
  return {{"1", "a b a"}, {"2", "b c"}, {"3", "a"}};
}

// Jobs count into a registry (MapReduceSpec::metrics is required); tests
// read the counters back by series name.
class MapReduceTest : public ::testing::Test {
 protected:
  MapReduceSpec Spec() {
    MapReduceSpec spec;
    spec.metrics = &metrics_;
    return spec;
  }
  int64_t Counter(std::string_view name, const obs::Labels& labels) const {
    return testutil::CounterTotal(metrics_, name, labels);
  }

  obs::MetricRegistry metrics_;
};

TEST(ComputeSplitsTest, EvenAndUneven) {
  auto splits = ComputeSplits(10, 2);
  ASSERT_EQ(splits.size(), 2u);
  EXPECT_EQ(splits[0], (std::pair<int64_t, int64_t>{0, 5}));
  EXPECT_EQ(splits[1], (std::pair<int64_t, int64_t>{5, 10}));

  splits = ComputeSplits(10, 3);
  ASSERT_EQ(splits.size(), 3u);
  int64_t total = 0;
  int64_t prev_end = 0;
  for (auto [b, e] : splits) {
    EXPECT_EQ(b, prev_end);
    prev_end = e;
    total += e - b;
  }
  EXPECT_EQ(total, 10);
}

TEST(ComputeSplitsTest, MoreTasksThanRecords) {
  auto splits = ComputeSplits(2, 5);
  EXPECT_EQ(splits.size(), 2u);
}

TEST(ComputeSplitsTest, EmptyInput) {
  EXPECT_TRUE(ComputeSplits(0, 4).empty());
}

TEST_F(MapReduceTest, WordCount) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 2;
  spec.num_reduce_tasks = 2;
  spec.max_parallel_tasks = 2;
  MapReduceJob job(
      spec, [] { return std::make_unique<TokenMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
  auto out = job.Run(WordInput());
  ASSERT_TRUE(out.ok());
  std::map<std::string, std::string> counts;
  for (const Record& r : *out) counts[r.key] = r.value;
  EXPECT_EQ(counts["a"], "3");
  EXPECT_EQ(counts["b"], "2");
  EXPECT_EQ(counts["c"], "1");
  EXPECT_EQ(Counter("mapreduce_records_total", {{"kind", "input"}}), 3);
  EXPECT_EQ(Counter("mapreduce_records_total", {{"kind", "mapped"}}), 6);
  EXPECT_EQ(Counter("mapreduce_records_total", {{"kind", "output"}}), 3);
}

TEST_F(MapReduceTest, OutputSortedByKey) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 3;
  spec.num_reduce_tasks = 4;
  spec.max_parallel_tasks = 2;
  MapReduceJob job(
      spec, [] { return std::make_unique<TokenMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
  auto out = job.Run({{"1", "z y x w v"}});
  ASSERT_TRUE(out.ok());
  for (size_t i = 1; i < out->size(); ++i) {
    EXPECT_LE((*out)[i - 1].key, (*out)[i].key);
  }
}

TEST_F(MapReduceTest, MapOnlyJobPreservesSplitOrder) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 3;
  spec.num_reduce_tasks = 0;  // map-only
  spec.max_parallel_tasks = 3;
  MapReduceJob job(
      spec, [] { return std::make_unique<LifecycleMapper>(); },
      [] { return IdentityReducer(); });
  std::vector<Record> input;
  for (int i = 0; i < 9; ++i) input.push_back({std::to_string(i), "v"});
  auto out = job.Run(input);
  ASSERT_TRUE(out.ok());
  // 9 mapped records + 3 finish markers.
  EXPECT_EQ(out->size(), 12u);
  // Record order within and across splits is preserved.
  std::vector<std::string> keys;
  for (const Record& r : *out) {
    if (r.key != "__finish__") keys.push_back(r.key);
  }
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(std::stoi(keys[i - 1]), std::stoi(keys[i]));
  }
}

TEST_F(MapReduceTest, LifecycleHooksRunPerTask) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 4;
  spec.num_reduce_tasks = 0;
  spec.max_parallel_tasks = 1;
  MapReduceJob job(
      spec, [] { return std::make_unique<LifecycleMapper>(); },
      [] { return IdentityReducer(); });
  std::vector<Record> input(8, Record{"k", "v"});
  auto out = job.Run(input);
  ASSERT_TRUE(out.ok());
  int finishes = 0;
  for (const Record& r : *out) {
    if (r.key == "__finish__") ++finishes;
  }
  EXPECT_EQ(finishes, 4);
}

TEST_F(MapReduceTest, UserErrorFailsJob) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 2;
  spec.num_reduce_tasks = 1;
  spec.max_parallel_tasks = 2;
  MapReduceJob job(
      spec, [] { return std::make_unique<FailOnKeyMapper>(); },
      [] { return IdentityReducer(); });
  auto out = job.Run({{"ok", "1"}, {"bad", "2"}});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
}

TEST_F(MapReduceTest, InjectedFailuresAreRetriedToSuccess) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 5;
  spec.num_reduce_tasks = 1;
  spec.max_parallel_tasks = 2;
  spec.map_task_failure_prob = 0.5;
  spec.max_attempts_per_task = 50;
  spec.seed = 21;
  MapReduceJob job(
      spec, [] { return std::make_unique<TokenMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
  std::vector<Record> input;
  for (int i = 0; i < 50; ++i) input.push_back({std::to_string(i), "w"});
  auto out = job.Run(input);
  ASSERT_TRUE(out.ok());
  // Exactly-once output semantics despite retries.
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].key, "w");
  EXPECT_EQ((*out)[0].value, "50");
  const int64_t failures =
      Counter("mapreduce_task_failures_total", {{"phase", "map"}});
  EXPECT_GT(failures, 0);
  EXPECT_EQ(Counter("mapreduce_task_attempts_total", {{"phase", "map"}}),
            failures + spec.num_map_tasks);
}

TEST_F(MapReduceTest, CertainFailureExhaustsAttempts) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 1;
  spec.num_reduce_tasks = 1;
  spec.max_parallel_tasks = 1;
  spec.map_task_failure_prob = 1.0;
  spec.max_attempts_per_task = 3;
  MapReduceJob job(
      spec, [] { return std::make_unique<TokenMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
  auto out = job.Run({{"1", "a"}});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(Counter("mapreduce_task_attempts_total", {{"phase", "map"}}), 3);
}

TEST_F(MapReduceTest, ReduceFailuresAreRetriedToSuccess) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 2;
  spec.num_reduce_tasks = 4;
  spec.max_parallel_tasks = 2;
  spec.reduce_task_failure_prob = 0.5;
  spec.max_attempts_per_task = 50;
  spec.seed = 17;
  MapReduceJob job(
      spec, [] { return std::make_unique<TokenMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
  std::vector<Record> input;
  for (int i = 0; i < 40; ++i) {
    input.push_back({std::to_string(i), StrFormat("w%d", i % 10)});
  }
  auto out = job.Run(input);
  ASSERT_TRUE(out.ok());
  // Exactly-once output semantics despite reduce retries.
  std::map<std::string, std::string> counts;
  for (const Record& r : *out) {
    EXPECT_TRUE(counts.emplace(r.key, r.value).second) << r.key;
  }
  ASSERT_EQ(counts.size(), 10u);
  for (const auto& [key, value] : counts) EXPECT_EQ(value, "4") << key;
  const int64_t failures =
      Counter("mapreduce_task_failures_total", {{"phase", "reduce"}});
  EXPECT_GT(failures, 0);
  EXPECT_EQ(Counter("mapreduce_task_attempts_total", {{"phase", "reduce"}}),
            failures + spec.num_reduce_tasks);
}

TEST_F(MapReduceTest, CertainReduceFailureExhaustsAttempts) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 1;
  spec.num_reduce_tasks = 1;
  spec.max_parallel_tasks = 1;
  spec.reduce_task_failure_prob = 1.0;
  spec.max_attempts_per_task = 3;
  MapReduceJob job(
      spec, [] { return std::make_unique<TokenMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
  auto out = job.Run({{"1", "a"}});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(Counter("mapreduce_task_attempts_total", {{"phase", "reduce"}}),
            3);
  EXPECT_EQ(Counter("mapreduce_task_failures_total", {{"phase", "reduce"}}),
            3);
}

// Mapper / reducer whose first attempt fails with `code` (counted across
// attempts through `attempts`) and whose later attempts succeed.
class FailFirstAttemptMapper : public Mapper {
 public:
  FailFirstAttemptMapper(std::atomic<int>* attempts, StatusCode code)
      : first_(attempts->fetch_add(1) == 0), code_(code) {}
  Status Map(const Record& input, const Emitter& emit) override {
    if (first_) return Status(code_, "first attempt fails");
    emit(input);
    return OkStatus();
  }

 private:
  bool first_;
  StatusCode code_;
};

class FailFirstAttemptReducer : public Reducer {
 public:
  explicit FailFirstAttemptReducer(std::atomic<int>* attempts)
      : first_(attempts->fetch_add(1) == 0) {}
  Status Reduce(const std::string& key, const std::vector<std::string>& values,
                const Emitter& emit) override {
    if (first_) return UnavailableError("transient");
    emit(Record{key, std::to_string(values.size())});
    return OkStatus();
  }

 private:
  bool first_;
};

TEST_F(MapReduceTest, UnavailableMapAttemptIsRetried) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 1;
  spec.num_reduce_tasks = 0;
  spec.max_attempts_per_task = 3;
  std::atomic<int> attempts{0};
  MapReduceJob job(
      spec,
      [&attempts] {
        return std::make_unique<FailFirstAttemptMapper>(
            &attempts, StatusCode::kUnavailable);
      },
      [] { return IdentityReducer(); });
  auto out = job.Run(WordInput());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), WordInput().size());
  EXPECT_EQ(Counter("mapreduce_task_attempts_total", {{"phase", "map"}}), 2);
  EXPECT_EQ(Counter("mapreduce_task_failures_total", {{"phase", "map"}}), 1);
}

TEST_F(MapReduceTest, NonTransientMapErrorFailsWithoutRetry) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 1;
  spec.num_reduce_tasks = 0;
  spec.max_attempts_per_task = 3;
  std::atomic<int> attempts{0};
  MapReduceJob job(
      spec,
      [&attempts] {
        return std::make_unique<FailFirstAttemptMapper>(
            &attempts, StatusCode::kDataLoss);
      },
      [] { return IdentityReducer(); });
  auto out = job.Run(WordInput());
  EXPECT_EQ(out.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(Counter("mapreduce_task_attempts_total", {{"phase", "map"}}), 1);
  EXPECT_EQ(Counter("mapreduce_task_failures_total", {{"phase", "map"}}), 0);
}

TEST_F(MapReduceTest, UnavailableReduceAttemptIsRetried) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 1;
  spec.num_reduce_tasks = 1;
  spec.max_attempts_per_task = 3;
  std::atomic<int> attempts{0};
  MapReduceJob job(
      spec, [] { return std::make_unique<TokenMapper>(); },
      [&attempts] {
        return std::make_unique<FailFirstAttemptReducer>(&attempts);
      });
  auto out = job.Run(WordInput());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 3u);  // a, b, c
  EXPECT_EQ(Counter("mapreduce_task_attempts_total", {{"phase", "reduce"}}),
            2);
  EXPECT_EQ(Counter("mapreduce_task_failures_total", {{"phase", "reduce"}}),
            1);
}

TEST_F(MapReduceTest, InvalidSpecRejected) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 0;
  MapReduceJob job(
      spec, [] { return std::make_unique<TokenMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
  EXPECT_EQ(job.Run({}).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MapReduceTest, RequiresAMetricsRegistry) {
  EXPECT_DEATH(
      {
        MapReduceJob job(
            MapReduceSpec{}, [] { return std::make_unique<TokenMapper>(); },
            [] { return IdentityReducer(); });
      },
      "metrics is required");
}

TEST_F(MapReduceTest, EmptyInputProducesEmptyOutput) {
  MapReduceSpec spec = Spec();
  MapReduceJob job(
      spec, [] { return std::make_unique<TokenMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
  auto out = job.Run({});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

// Regression: task-latency observation must tolerate a null spec.clock on
// both the map and the reduce path: the runtime falls back to RealClock,
// so a refactor can never null-deref mid-attempt.
TEST_F(MapReduceTest, TaskLatencyObservedWithDefaultAndSimClock) {
  for (const bool use_sim_clock : {false, true}) {
    SimClock sim;
    obs::MetricRegistry registry;
    MapReduceSpec spec;
    spec.num_map_tasks = 2;
    spec.num_reduce_tasks = 2;
    spec.max_parallel_tasks = 2;
    spec.metrics = &registry;
    spec.clock = use_sim_clock ? &sim : nullptr;  // null -> RealClock
    spec.label = "latency_test";
    MapReduceJob job(
        spec, [] { return std::make_unique<TokenMapper>(); },
        [] { return std::make_unique<SumReducer>(); });
    auto out = job.Run(WordInput());
    ASSERT_TRUE(out.ok());
    // Both phases sampled one latency observation per attempt.
    const obs::RegistrySnapshot snapshot = registry.Snapshot();
    const obs::HistogramSnapshot* map_hist =
        snapshot.FindHistogram("mapreduce_task_micros", {{"phase", "map"}});
    ASSERT_NE(map_hist, nullptr);
    EXPECT_EQ(map_hist->count,
              testutil::CounterTotal(registry, "mapreduce_task_attempts_total",
                                     {{"phase", "map"}}));
    const obs::HistogramSnapshot* reduce_hist = snapshot.FindHistogram(
        "mapreduce_task_micros", {{"phase", "reduce"}});
    ASSERT_NE(reduce_hist, nullptr);
    EXPECT_EQ(reduce_hist->count,
              testutil::CounterTotal(registry, "mapreduce_task_attempts_total",
                                     {{"phase", "reduce"}}));
  }
}

// Task 0's first attempt is a straggler that cannot finish before its
// backup has: the handshake replaces timing with ordering, so the test
// asserts the same thing on an idle and on a loaded machine.
struct StragglerHandshake {
  // Bounded, so a runtime that never launches the backup fails the test
  // instead of hanging it.
  static constexpr std::chrono::seconds kTimeout{30};

  void WaitFor(const bool& flag) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, kTimeout, [&flag] { return flag; });
  }
  void Set(bool* flag) {
    std::lock_guard<std::mutex> lock(mu);
    *flag = true;
    cv.notify_all();
  }

  std::mutex mu;
  std::condition_variable cv;
  int task0_instances = 0;       // guarded by mu
  bool primary_started = false;  // guarded by mu
  bool backup_done = false;      // guarded by mu
};

// The first task-0 instance (the primary) blocks in its first Map call
// until the second task-0 instance (the backup) has been destroyed — which
// the runtime does only after that attempt committed. Every other task
// waits in Start until the primary has started, so the backup, launched
// once the other tasks commit, is always the second task-0 instance.
class StragglerMapper : public Mapper {
 public:
  explicit StragglerMapper(StragglerHandshake* handshake)
      : handshake_(handshake) {}
  ~StragglerMapper() override {
    if (role_ == Role::kBackup) handshake_->Set(&handshake_->backup_done);
  }

  Status Start(int task_id) override {
    if (task_id != 0) {
      handshake_->WaitFor(handshake_->primary_started);
      return OkStatus();
    }
    {
      std::lock_guard<std::mutex> lock(handshake_->mu);
      role_ = handshake_->task0_instances++ == 0 ? Role::kPrimary
                                                 : Role::kBackup;
    }
    if (role_ == Role::kPrimary) {
      handshake_->Set(&handshake_->primary_started);
    }
    return OkStatus();
  }
  Status Map(const Record& input, const Emitter& emit) override {
    if (role_ == Role::kPrimary && !straggled_) {
      straggled_ = true;
      handshake_->WaitFor(handshake_->backup_done);
    }
    emit(input);
    return OkStatus();
  }

 private:
  enum class Role { kOther, kPrimary, kBackup };
  StragglerHandshake* handshake_;
  Role role_ = Role::kOther;
  bool straggled_ = false;
};

TEST_F(MapReduceTest, SpeculativeBackupOvertakesStraggler) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 4;
  spec.num_reduce_tasks = 0;
  spec.max_parallel_tasks = 4;
  spec.speculative_backups = true;
  spec.speculation_commit_fraction = 0.75;
  StragglerHandshake handshake;
  MapReduceJob job(
      spec,
      [&handshake] { return std::make_unique<StragglerMapper>(&handshake); },
      [] { return IdentityReducer(); });
  std::vector<Record> input;
  for (int i = 0; i < 32; ++i) input.push_back({std::to_string(i), "v"});
  auto out = job.Run(input);
  ASSERT_TRUE(out.ok());
  // Exactly-once output despite two attempt chains racing on task 0.
  EXPECT_EQ(out->size(), 32u);
  EXPECT_GE(Counter("mapreduce_backup_attempts_total", {}), 1);
  EXPECT_GE(Counter("mapreduce_backups_won_total", {}), 1);
  // The straggling primary noticed the backup's commit and cancelled.
  EXPECT_GE(Counter("mapreduce_attempts_cancelled_total", {}), 1);
}

TEST_F(MapReduceTest, SpeculationPreservesResultsAndExactlyOnce) {
  auto run = [this](bool speculate) {
    MapReduceSpec spec = Spec();
    spec.num_map_tasks = 6;
    spec.num_reduce_tasks = 2;
    spec.max_parallel_tasks = 4;
    spec.map_task_failure_prob = 0.3;
    spec.max_attempts_per_task = 50;
    spec.seed = 33;
    spec.speculative_backups = speculate;
    MapReduceJob job(
        spec, [] { return std::make_unique<TokenMapper>(); },
        [] { return std::make_unique<SumReducer>(); });
    std::vector<Record> input;
    for (int i = 0; i < 60; ++i) {
      input.push_back({std::to_string(i), StrFormat("w%d", i % 5)});
    }
    auto out = job.Run(input);
    EXPECT_TRUE(out.ok());
    std::map<std::string, std::string> counts;
    for (const Record& r : *out) counts[r.key] = r.value;
    return counts;
  };
  // Speculation can change which attempt commits, never what it commits.
  EXPECT_EQ(run(false), run(true));
}

TEST_F(MapReduceTest, SpeculationOffLaunchesNoBackups) {
  MapReduceSpec spec = Spec();
  spec.num_map_tasks = 4;
  spec.num_reduce_tasks = 0;
  spec.max_parallel_tasks = 4;
  MapReduceJob job(
      spec, [] { return std::make_unique<TokenMapper>(); },
      [] { return IdentityReducer(); });
  std::vector<Record> input(16, Record{"k", "v"});
  ASSERT_TRUE(job.Run(input).ok());
  EXPECT_EQ(Counter("mapreduce_backup_attempts_total", {}), 0);
  EXPECT_EQ(Counter("mapreduce_backups_won_total", {}), 0);
  EXPECT_EQ(Counter("mapreduce_attempts_cancelled_total", {}), 0);
}

// Property: results identical regardless of task/parallelism configuration.
class MapReduceConfigTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  obs::MetricRegistry metrics_;
};

TEST_P(MapReduceConfigTest, WordCountInvariantToPartitioning) {
  auto [map_tasks, reduce_tasks, parallel] = GetParam();
  MapReduceSpec spec;
  spec.metrics = &metrics_;
  spec.num_map_tasks = map_tasks;
  spec.num_reduce_tasks = reduce_tasks;
  spec.max_parallel_tasks = parallel;
  MapReduceJob job(
      spec, [] { return std::make_unique<TokenMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
  std::vector<Record> input;
  for (int i = 0; i < 30; ++i) {
    input.push_back({std::to_string(i),
                     StrFormat("w%d w%d w0", i % 3, i % 7)});
  }
  auto out = job.Run(input);
  ASSERT_TRUE(out.ok());
  std::map<std::string, std::string> counts;
  for (const Record& r : *out) counts[r.key] = r.value;
  EXPECT_EQ(counts["w0"], "45");  // 30 from "w0" + 10 from i%3==0 + 5 from i%7==0
}

INSTANTIATE_TEST_SUITE_P(
    Partitionings, MapReduceConfigTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(4, 1, 2),
                      std::make_tuple(4, 3, 4), std::make_tuple(16, 8, 3),
                      std::make_tuple(64, 2, 2)));

}  // namespace
}  // namespace sigmund::mapreduce
