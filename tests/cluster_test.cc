#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "cluster/executor.h"
#include "cluster/lease.h"
#include "cluster/simulation.h"

namespace sigmund::cluster {
namespace {

TEST(CostModelTest, PreemptibleDiscountApplied) {
  CostModel model(0.04, 0.70);
  EXPECT_DOUBLE_EQ(model.PricePerCpuHour(VmPriority::kRegular), 0.04);
  EXPECT_NEAR(model.PricePerCpuHour(VmPriority::kPreemptible), 0.012, 1e-12);
}

TEST(CostModelTest, PriceScalesWithCpusAndTime) {
  CostModel model(1.0, 0.0);
  VmSpec vm{4.0, 32.0, VmPriority::kRegular};
  EXPECT_DOUBLE_EQ(model.Price(vm, 3600.0), 4.0);
  EXPECT_DOUBLE_EQ(model.Price(vm, 1800.0), 2.0);
}

TEST(CellTest, UniformBuildsMachines) {
  Cell cell = Cell::Uniform("cell-a", 5, 4.0, 32.0);
  EXPECT_EQ(cell.machines.size(), 5u);
  EXPECT_EQ(cell.machines[3].id, 3);
  EXPECT_DOUBLE_EQ(cell.machines[0].cpus, 4.0);
}

TEST(ClusterTest, TotalMachinesSumsCells) {
  Cluster cluster;
  cluster.cells.push_back(Cell::Uniform("a", 3, 1, 1));
  cluster.cells.push_back(Cell::Uniform("b", 7, 1, 1));
  EXPECT_EQ(cluster.TotalMachines(), 10);
}

SimJobConfig RegularConfig() {
  SimJobConfig config;
  config.vm.priority = VmPriority::kRegular;
  config.checkpoint_interval_seconds = 0.0;
  return config;
}

TEST(SimJobRunnerTest, SingleTaskSingleMachine) {
  Cell cell = Cell::Uniform("a", 1, 1, 1);
  SimJobRunner runner(cell, CostModel());
  SimJobStats stats = runner.Run({{0, 100.0}}, RegularConfig());
  EXPECT_DOUBLE_EQ(stats.makespan_seconds, 100.0);
  EXPECT_DOUBLE_EQ(stats.busy_vm_seconds, 100.0);
  EXPECT_EQ(stats.num_preemptions, 0);
  EXPECT_DOUBLE_EQ(stats.lost_work_seconds, 0.0);
}

TEST(SimJobRunnerTest, ListSchedulingSpreadsAcrossMachines) {
  Cell cell = Cell::Uniform("a", 2, 1, 1);
  SimJobRunner runner(cell, CostModel());
  // Four equal tasks on two machines: makespan = 2 tasks deep.
  std::vector<SimTask> tasks = {{0, 10}, {1, 10}, {2, 10}, {3, 10}};
  SimJobStats stats = runner.Run(tasks, RegularConfig());
  EXPECT_DOUBLE_EQ(stats.makespan_seconds, 20.0);
  EXPECT_DOUBLE_EQ(stats.busy_vm_seconds, 40.0);
}

TEST(SimJobRunnerTest, SkewedTaskDominatesMakespan) {
  Cell cell = Cell::Uniform("a", 4, 1, 1);
  SimJobRunner runner(cell, CostModel());
  std::vector<SimTask> tasks = {{0, 100}, {1, 1}, {2, 1}, {3, 1}};
  SimJobStats stats = runner.Run(tasks, RegularConfig());
  EXPECT_DOUBLE_EQ(stats.makespan_seconds, 100.0);
}

TEST(SimJobRunnerTest, RegularVmsNeverPreempted) {
  Cell cell = Cell::Uniform("a", 1, 1, 1);
  SimJobRunner runner(cell, CostModel());
  SimJobConfig config = RegularConfig();
  config.preemption_rate_per_hour = 100.0;  // ignored for regular priority
  SimJobStats stats = runner.Run({{0, 10000.0}}, config);
  EXPECT_EQ(stats.num_preemptions, 0);
}

TEST(SimJobRunnerTest, PreemptionsCauseLostWorkWithoutCheckpoints) {
  Cell cell = Cell::Uniform("a", 2, 1, 1);
  SimJobRunner runner(cell, CostModel());
  SimJobConfig config;
  config.vm.priority = VmPriority::kPreemptible;
  config.preemption_rate_per_hour = 6.0;  // every ~10 min on average
  config.checkpoint_interval_seconds = 0.0;
  config.restart_overhead_seconds = 10.0;
  std::vector<SimTask> tasks;
  for (int i = 0; i < 10; ++i) tasks.push_back({i, 900.0});
  SimJobStats stats = runner.Run(tasks, config);
  EXPECT_GT(stats.num_preemptions, 0);
  EXPECT_GT(stats.lost_work_seconds, 0.0);
  // Billable time = useful work + lost work + restart overheads.
  EXPECT_GT(stats.busy_vm_seconds, 9000.0);
}

TEST(SimJobRunnerTest, CheckpointingBoundsLostWorkPerPreemption) {
  Cell cell = Cell::Uniform("a", 1, 1, 1);
  CostModel cost;
  SimJobRunner runner(cell, cost);
  SimJobConfig base;
  base.vm.priority = VmPriority::kPreemptible;
  base.preemption_rate_per_hour = 4.0;
  base.restart_overhead_seconds = 5.0;
  base.checkpoint_write_seconds = 1.0;
  base.seed = 99;

  std::vector<SimTask> tasks;
  for (int i = 0; i < 20; ++i) tasks.push_back({i, 1800.0});

  SimJobConfig no_ckpt = base;
  no_ckpt.checkpoint_interval_seconds = 0.0;
  SimJobConfig fine_ckpt = base;
  fine_ckpt.checkpoint_interval_seconds = 60.0;

  SimJobStats without = runner.Run(tasks, no_ckpt);
  SimJobStats with = runner.Run(tasks, fine_ckpt);
  EXPECT_GT(without.lost_work_seconds, with.lost_work_seconds);
  // With 60s checkpoints, no preemption may lose much more than ~60s + write.
  EXPECT_LE(with.lost_work_seconds,
            with.num_preemptions * (fine_ckpt.checkpoint_interval_seconds +
                                    fine_ckpt.checkpoint_write_seconds + 1.0));
}

TEST(SimJobRunnerTest, DeterministicForSeed) {
  Cell cell = Cell::Uniform("a", 3, 1, 1);
  SimJobRunner runner(cell, CostModel());
  SimJobConfig config;
  config.vm.priority = VmPriority::kPreemptible;
  config.preemption_rate_per_hour = 2.0;
  config.seed = 7;
  std::vector<SimTask> tasks;
  for (int i = 0; i < 12; ++i) tasks.push_back({i, 500.0 + 37.0 * i});
  SimJobStats a = runner.Run(tasks, config);
  SimJobStats b = runner.Run(tasks, config);
  EXPECT_DOUBLE_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.num_preemptions, b.num_preemptions);
  EXPECT_DOUBLE_EQ(a.cost_dollars, b.cost_dollars);
}

TEST(SimJobRunnerTest, PreemptibleCheaperDespitePreemptions) {
  // The headline claim (§II-B): ~70% discount leaves preemptible training
  // cheaper even after paying for redone work.
  Cell cell = Cell::Uniform("a", 4, 1, 1);
  SimJobRunner runner(cell, CostModel(0.04, 0.70));
  std::vector<SimTask> tasks;
  for (int i = 0; i < 16; ++i) tasks.push_back({i, 3600.0});

  SimJobConfig regular = RegularConfig();
  SimJobConfig preemptible;
  preemptible.vm.priority = VmPriority::kPreemptible;
  preemptible.preemption_rate_per_hour = 1.0;
  preemptible.checkpoint_interval_seconds = 300.0;

  SimJobStats reg = runner.Run(tasks, regular);
  SimJobStats pre = runner.Run(tasks, preemptible);
  EXPECT_LT(pre.cost_dollars, reg.cost_dollars);
  EXPECT_LT(pre.cost_dollars, 0.5 * reg.cost_dollars);
}

TEST(MakespanLowerBoundTest, MaxOfLongestAndAverage) {
  std::vector<SimTask> tasks = {{0, 10}, {1, 2}, {2, 2}};
  EXPECT_DOUBLE_EQ(MakespanLowerBound(tasks, 2), 10.0);
  EXPECT_DOUBLE_EQ(MakespanLowerBound(tasks, 1), 14.0);
  std::vector<SimTask> even = {{0, 4}, {1, 4}, {2, 4}, {3, 4}};
  EXPECT_DOUBLE_EQ(MakespanLowerBound(even, 2), 8.0);
}

// Property sweep: for any preemption rate, billable time >= total work and
// lost work is consistent with busy = work + lost + overheads.
class SimRunnerPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(SimRunnerPropertyTest, AccountingInvariants) {
  const double rate = GetParam();
  Cell cell = Cell::Uniform("a", 3, 1, 1);
  SimJobRunner runner(cell, CostModel());
  SimJobConfig config;
  config.vm.priority = VmPriority::kPreemptible;
  config.preemption_rate_per_hour = rate;
  config.checkpoint_interval_seconds = 120.0;
  config.restart_overhead_seconds = 7.0;
  config.seed = 1234;
  std::vector<SimTask> tasks;
  double total_work = 0;
  for (int i = 0; i < 9; ++i) {
    tasks.push_back({i, 300.0 + 100.0 * i});
    total_work += tasks.back().work_seconds;
  }
  SimJobStats stats = runner.Run(tasks, config);
  EXPECT_GE(stats.busy_vm_seconds, total_work - 1e-6);
  EXPECT_GE(stats.makespan_seconds,
            MakespanLowerBound(tasks, 3) - 1e-6);
  EXPECT_GE(stats.lost_work_seconds, 0.0);
  // busy time is bounded by work + lost + per-attempt overhead.
  EXPECT_LE(stats.busy_vm_seconds,
            total_work + stats.lost_work_seconds +
                (stats.num_preemptions + 1) * config.restart_overhead_seconds +
                1e-6);
}

INSTANTIATE_TEST_SUITE_P(Rates, SimRunnerPropertyTest,
                         ::testing::Values(0.0, 0.5, 2.0, 8.0, 30.0));

// --- Lease-based preemptible execution runtime.

PreemptibleExecutor::Options ChurnyOptions(double rate_per_hour,
                                           uint64_t seed = 7) {
  PreemptibleExecutor::Options options;
  options.churn.preemption_rate_per_hour = rate_per_hour;
  options.churn.eviction_grace_seconds = 5.0;
  options.churn.escalate_after_evictions = 3;
  options.churn.seed = seed;
  return options;
}

TEST(MachineLeaseTest, DefaultLeaseIsNeverEvicted) {
  MachineLease lease;
  EXPECT_EQ(lease.Check(0.0), MachineLease::State::kHeld);
  EXPECT_EQ(lease.Check(1e12), MachineLease::State::kHeld);
  EXPECT_FALSE(lease.preemptible());
}

TEST(MachineLeaseTest, StateMachineWalksHeldNoticeRevoked) {
  PreemptibleExecutor executor(ChurnyOptions(1.0));
  MachineLease lease = executor.Acquire("r1/m000", 0.0);
  ASSERT_TRUE(lease.preemptible());
  const double eviction = lease.eviction_at_seconds();
  ASSERT_GT(eviction, 0.0);
  ASSERT_TRUE(std::isfinite(eviction));
  EXPECT_EQ(lease.grace_deadline_seconds(), eviction + 5.0);
  EXPECT_EQ(lease.Check(eviction - 1e-9), MachineLease::State::kHeld);
  EXPECT_EQ(lease.Check(eviction), MachineLease::State::kEvictionNotice);
  EXPECT_EQ(lease.Check(eviction + 4.999),
            MachineLease::State::kEvictionNotice);
  EXPECT_EQ(lease.Check(eviction + 5.0), MachineLease::State::kRevoked);
}

TEST(MachineLeaseTest, NoChurnMeansStableMachines) {
  PreemptibleExecutor executor(ChurnyOptions(0.0));
  EXPECT_FALSE(executor.churn_enabled());
  MachineLease lease = executor.Acquire("r1/m000", 0.0);
  EXPECT_EQ(lease.Check(1e12), MachineLease::State::kHeld);
}

TEST(PreemptibleExecutorTest, EvictionScheduleIsDeterministic) {
  PreemptibleExecutor a(ChurnyOptions(2.0, 99));
  PreemptibleExecutor b(ChurnyOptions(2.0, 99));
  // Same (seed, key, incarnation) -> identical eviction time, regardless
  // of executor instance or acquisition order.
  MachineLease a0 = a.Acquire("r7/m002", 0.0);
  b.Acquire("unrelated", 0.0);
  MachineLease b0 = b.Acquire("r7/m002", 0.0);
  EXPECT_EQ(a0.eviction_at_seconds(), b0.eviction_at_seconds());
  // Different incarnations draw fresh times.
  MachineLease a1 = a.Acquire("r7/m002", 10.0);
  EXPECT_EQ(a1.incarnation(), 1);
  EXPECT_NE(a1.eviction_at_seconds() - 10.0, a0.eviction_at_seconds());
  // Different seeds give different schedules.
  PreemptibleExecutor c(ChurnyOptions(2.0, 100));
  MachineLease c0 = c.Acquire("r7/m002", 0.0);
  EXPECT_NE(c0.eviction_at_seconds(), a0.eviction_at_seconds());
}

TEST(PreemptibleExecutorTest, EvictionTimesAreRelativeToAcquisition) {
  PreemptibleExecutor executor(ChurnyOptions(1.0));
  MachineLease at_zero = executor.Acquire("k", 0.0);
  PreemptibleExecutor executor2(ChurnyOptions(1.0));
  MachineLease at_hundred = executor2.Acquire("k", 100.0);
  EXPECT_NEAR(at_hundred.eviction_at_seconds(),
              at_zero.eviction_at_seconds() + 100.0, 1e-9);
}

TEST(PreemptibleExecutorTest, EscalatesToRegularAfterThreshold) {
  PreemptibleExecutor executor(ChurnyOptions(5.0));
  const std::string key = "r3/m001";
  EXPECT_EQ(executor.TaskPriority(key), LeasePriority::kPreemptible);
  EXPECT_FALSE(executor.OnEviction(key));
  EXPECT_FALSE(executor.OnEviction(key));
  // Third eviction crosses escalate_after_evictions = 3.
  EXPECT_TRUE(executor.OnEviction(key));
  EXPECT_EQ(executor.TaskPriority(key), LeasePriority::kRegular);
  EXPECT_EQ(executor.EvictionCount(key), 3);
  // Escalated tasks come back on stable machines.
  MachineLease lease = executor.Acquire(key, 123.0);
  EXPECT_FALSE(lease.preemptible());
  EXPECT_EQ(lease.Check(1e12), MachineLease::State::kHeld);
  // Other tasks are unaffected by this task's escalation.
  EXPECT_EQ(executor.TaskPriority("r3/m002"), LeasePriority::kPreemptible);
}

TEST(PreemptibleExecutorTest, MeanInterEvictionTimeTracksRate) {
  // rate = 4/hour -> mean inter-preemption = 900s. Average many draws.
  PreemptibleExecutor executor(ChurnyOptions(4.0, 31));
  double sum = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    MachineLease lease =
        executor.Acquire("task" + std::to_string(i), 0.0);
    sum += lease.eviction_at_seconds();
  }
  const double mean = sum / n;
  EXPECT_GT(mean, 900.0 * 0.9);
  EXPECT_LT(mean, 900.0 * 1.1);
}

TEST(StableHashTest, GoldenValuesPinnedAcrossPlatforms) {
  // FNV-1a reference values; a platform where these differ would break
  // byte-identical churn reruns.
  EXPECT_EQ(StableHash64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(StableHash64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(StableHash64("r1/m000"), StableHash64("r1/m000"));
  EXPECT_NE(StableHash64("r1/m000"), StableHash64("r1/m001"));
}

}  // namespace
}  // namespace sigmund::cluster
