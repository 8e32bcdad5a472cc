// E24: Crash recovery (DESIGN.md §13). Three questions about the durable
// run ledger that lets the daily coordinator die anywhere mid-day and
// resume:
//
//  1. RTO — after a late-day crash (inference committed, rollout not yet
//     run), how long does ledger replay + finishing the day take versus
//     re-running the whole day cold from the day-start state? Gated as a
//     speedup ratio with a generous band (two wall-clocks on the same
//     machine, so the ratio is far more stable than either term).
//  2. Skip fraction — what share of the day's replayable stage units does
//     the resumed run skip? Pure function of seeds; gated tight.
//  3. Ledger cost — wall-clock of the day's ledger appends as a fraction
//     of the day itself. SIGCHECKed under 1% in-binary; reported (never
//     banded: CI hardware jitter on a microsecond-scale numerator).
//
// The recovered day must also be byte-identical (control-state snapshots
// included, journal excluded) to the uninterrupted run — the same
// invariant tests/recovery_chaos_test.cc sweeps across every kill-point,
// SIGCHECKed here on the two points this bench exercises. Results land in
// BENCH_recovery.json; bench/baselines/recovery_quick.json gates the
// speedup and skip fraction in CI via check_trajectory.

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/crash_point.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "data/world_generator.h"
#include "pipeline/ledger.h"
#include "pipeline/service.h"
#include "sfs/mem_filesystem.h"

using namespace sigmund;

namespace {

using FileDump = std::map<std::string, std::string>;

FileDump DumpFiles(const sfs::MemFileSystem& fs,
                   const std::string& exclude_prefix) {
  FileDump dump;
  StatusOr<std::vector<std::string>> paths = fs.List("");
  SIGCHECK(paths.ok());
  for (const std::string& path : *paths) {
    if (path.compare(0, exclude_prefix.size(), exclude_prefix) == 0) continue;
    StatusOr<std::string> bytes = fs.Read(path);
    SIGCHECK(bytes.ok());
    dump[path] = *std::move(bytes);
  }
  return dump;
}

void RestoreFiles(const FileDump& dump, sfs::MemFileSystem* fs) {
  for (const auto& [path, bytes] : dump) {
    SIGCHECK(fs->Write(path, bytes).ok());
  }
}

struct BenchWorld {
  data::WorldGenerator generator;
  std::vector<data::RetailerWorld> worlds;

  explicit BenchWorld(const std::vector<int>& sizes)
      : generator([] {
          data::WorldConfig config;
          config.seed = 29;
          return config;
        }()) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      worlds.push_back(generator.GenerateRetailer(
          static_cast<data::RetailerId>(i), sizes[i]));
    }
  }

  void Advance(int day) {
    for (data::RetailerWorld& world : worlds) {
      data::AdvanceOneDay(generator, &world, /*new_items=*/2,
                          /*seed=*/500 + day);
    }
  }
};

pipeline::SigmundService::Options MakeOptions(BenchWorld* bench, Clock* clock,
                                              CrashInjector* crash) {
  pipeline::SigmundService::Options options;
  options.sweep.grid.factors = {4, 8};
  options.sweep.grid.lambdas_v = {0.1, 0.01};
  options.sweep.grid.lambdas_vc = {0.01};
  options.sweep.grid.sweep_taxonomy = false;
  options.sweep.grid.sweep_brand = false;
  options.sweep.grid.num_epochs = 3;
  options.sweep.incremental_top_k = 2;
  options.training.num_map_tasks = 4;
  options.training.max_parallel_tasks = 2;
  options.training.checkpoint_interval_seconds = 0.0;
  options.inference.inference.top_k = 5;
  options.dataqual.enabled = true;
  options.retrieval.enabled = true;
  options.retrieval.ann.num_lists = 8;
  options.retrieval.reader.top_k = 5;
  options.retrieval.reader.nprobe = 4;
  options.canary.enabled = true;
  options.canary.canary_fraction = 0.5;
  options.canary.seed = 11;
  options.canary.max_impressions = 1200;
  options.canary.oracle = [bench](data::RetailerId id) {
    return &bench->worlds[id].truth;
  };
  options.clock = clock;
  options.crash = crash;
  return options;
}

std::unique_ptr<pipeline::SigmundService> Boot(sfs::SharedFileSystem* fs,
                                               BenchWorld* bench, Clock* clock,
                                               CrashInjector* crash) {
  auto service = std::make_unique<pipeline::SigmundService>(
      fs, MakeOptions(bench, clock, crash));
  StatusOr<pipeline::SigmundService::RecoveryReport> recovered =
      service->RecoverDay();
  SIGCHECK(recovered.ok());
  for (data::RetailerWorld& world : bench->worlds) {
    service->UpsertRetailer(&world.data);
  }
  return service;
}

// Crash the measured day at `crash_point`, then boot a fresh service and
// let it finish the day. Returns the resumed run's wall micros, report,
// and the final file bytes.
struct CrashRunResult {
  double recovery_wall_micros = 0.0;
  pipeline::DailyReport report;
  FileDump files;
};

CrashRunResult RunCrashAndRecover(const FileDump& day_start, BenchWorld* bench,
                                  Clock* clock, const std::string& crash_point,
                                  const std::string& ledger_prefix) {
  sfs::MemFileSystem fs;
  RestoreFiles(day_start, &fs);
  CrashInjector injector;
  injector.ArmAt(crash_point);
  std::unique_ptr<pipeline::SigmundService> service =
      Boot(&fs, bench, clock, &injector);
  bool crashed = false;
  try {
    StatusOr<pipeline::DailyReport> report = service->RunDaily();
    SIGCHECK(report.ok());
  } catch (const CrashException&) {
    crashed = true;
  }
  SIGCHECK(crashed);  // the armed point must exist in the day

  CrashRunResult result;
  RealClock* wall = RealClock::Get();
  const int64_t t0 = wall->NowMicros();
  service = Boot(&fs, bench, clock, nullptr);
  StatusOr<pipeline::DailyReport> resumed = service->RunDaily();
  result.recovery_wall_micros =
      static_cast<double>(wall->NowMicros() - t0);
  SIGCHECK(resumed.ok());
  result.report = *std::move(resumed);
  result.files = DumpFiles(fs, ledger_prefix);
  return result;
}

void CheckSameFiles(const FileDump& expected, const FileDump& actual,
                    const char* label) {
  for (const auto& [path, bytes] : expected) {
    auto it = actual.find(path);
    if (it == actual.end() || it->second != bytes) {
      std::fprintf(stderr, "e24_recovery: %s: divergent file %s\n", label,
                   path.c_str());
      SIGCHECK(false);
    }
  }
  SIGCHECK(expected.size() == actual.size());
}

// Wall micros for `count` appends of representative control entries on a
// fresh in-memory ledger (same rewrite-the-day-file discipline the
// service pays).
double MeasureAppendWall(int count) {
  sfs::MemFileSystem fs;
  RetryPolicy retry;
  pipeline::RunLedger ledger(&fs, pipeline::RunLedger::Options(), retry,
                             /*io=*/nullptr, /*metrics=*/nullptr);
  ledger.StartDay(0);
  RealClock* wall = RealClock::Get();
  const int64_t t0 = wall->NowMicros();
  for (int i = 0; i < count; ++i) {
    pipeline::RunLedger::Entry entry;
    entry.op = pipeline::RunLedger::Op::kBatchStageIntent;
    entry.day = 0;
    entry.retailer = i % 3;
    entry.version = i;
    entry.tag = "promoted";
    entry.payload = StrFormat("recommendations/r%d.v%06d", i % 3, i);
    SIGCHECK(ledger.Append(entry).ok());
  }
  return static_cast<double>(wall->NowMicros() - t0);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::vector<int> sizes =
      quick ? std::vector<int>{60, 90} : std::vector<int>{120, 160, 200};

  std::printf("e24_recovery: ledger replay RTO / skip fraction / append "
              "cost (%s run)\n",
              quick ? "quick" : "full");

  BenchWorld bench(sizes);
  SimClock clock;
  const std::string ledger_prefix =
      pipeline::RunLedger::Options().dir + "/";

  // Day 0 establishes models, versions, baselines, and the day-boundary
  // snapshot; the measured day is day 1.
  sfs::MemFileSystem fs;
  std::unique_ptr<pipeline::SigmundService> service =
      Boot(&fs, &bench, &clock, nullptr);
  StatusOr<pipeline::DailyReport> day0 = service->RunDaily();
  SIGCHECK(day0.ok());
  const FileDump day_start = DumpFiles(fs, /*exclude_prefix=*/"\x01");
  bench.Advance(1);

  // Uninterrupted day 1: the reference bytes and the cold-run numerator.
  RealClock* wall = RealClock::Get();
  const int64_t clean_t0 = wall->NowMicros();
  StatusOr<pipeline::DailyReport> clean = service->RunDaily();
  const double clean_wall = static_cast<double>(wall->NowMicros() - clean_t0);
  SIGCHECK(clean.ok());
  const FileDump clean_files = DumpFiles(fs, ledger_prefix);
  const int64_t appends_per_day = clean->ledger_appends;

  // Cold re-run: same day-start state, fresh process, no prior attempt —
  // boot cost included, exactly what "no ledger resume" would pay.
  double cold_wall = 0.0;
  {
    sfs::MemFileSystem cold_fs;
    RestoreFiles(day_start, &cold_fs);
    const int64_t t0 = wall->NowMicros();
    std::unique_ptr<pipeline::SigmundService> cold_service =
        Boot(&cold_fs, &bench, &clock, nullptr);
    StatusOr<pipeline::DailyReport> cold = cold_service->RunDaily();
    cold_wall = static_cast<double>(wall->NowMicros() - t0);
    SIGCHECK(cold.ok());
    CheckSameFiles(clean_files, DumpFiles(cold_fs, ledger_prefix),
                   "cold re-run");
  }

  // Late-day crash: training, selection and inference committed; the
  // rollout and day boundary still ahead. The resumed run must skip the
  // committed stages and converge to the reference bytes.
  const CrashRunResult late = RunCrashAndRecover(
      day_start, &bench, &clock, "inference.done", ledger_prefix);
  CheckSameFiles(clean_files, late.files, "late-crash recovery");
  SIGCHECK(late.report.recovered_day);

  // Crash just before the day-boundary snapshot commits: everything
  // replayable was committed, so this recovery's skip count is the
  // day's total replayable units — the skip-fraction denominator.
  const CrashRunResult full = RunCrashAndRecover(
      day_start, &bench, &clock, "day.snapshot_tmp", ledger_prefix);
  CheckSameFiles(clean_files, full.files, "day-boundary recovery");
  const int64_t max_units = full.report.replay_units_skipped;
  SIGCHECK(max_units > 0);

  const double skip_fraction =
      static_cast<double>(late.report.replay_units_skipped) /
      static_cast<double>(max_units);
  const double speedup = cold_wall / late.recovery_wall_micros;

  // Ledger cost: the measured day's append count at measured per-append
  // cost, as a fraction of the measured day.
  const double append_wall =
      MeasureAppendWall(static_cast<int>(appends_per_day));
  const double append_overhead = append_wall / clean_wall;

  std::printf("day wall: clean=%.0fus cold=%.0fus recovery=%.0fus "
              "(speedup %.2fx)\n",
              clean_wall, cold_wall, late.recovery_wall_micros, speedup);
  std::printf("stage units skipped on resume: %lld/%lld (%.3f)\n",
              static_cast<long long>(late.report.replay_units_skipped),
              static_cast<long long>(max_units), skip_fraction);
  std::printf("ledger: %lld appends in %.0fus — %.4f%% of day wall\n",
              static_cast<long long>(appends_per_day), append_wall,
              append_overhead * 100.0);

  // Acceptance bars enforced in-binary: the resumed day re-ran strictly
  // less than everything, and the journal costs under 1% of the day.
  SIGCHECK(skip_fraction > 0.0 && skip_fraction <= 1.0);
  SIGCHECK(append_overhead < 0.01);

  std::string json = "{\n  \"bench\": \"e24_recovery\",\n";
  json += StrFormat("  \"quick\": %s,\n", quick ? "true" : "false");
  json += StrFormat(
      "  \"recovery\": {\"byte_identical\": 1, \"speedup_vs_cold\": %.4f, "
      "\"skip_fraction\": %.6f, \"units_skipped\": %lld, "
      "\"units_total\": %lld},\n",
      speedup, skip_fraction,
      static_cast<long long>(late.report.replay_units_skipped),
      static_cast<long long>(max_units));
  json += StrFormat(
      "  \"wall_micros_informational\": {\"clean_day\": %.0f, "
      "\"cold_rerun\": %.0f, \"recovery\": %.0f},\n",
      clean_wall, cold_wall, late.recovery_wall_micros);
  json += StrFormat(
      "  \"ledger\": {\"appends_per_day\": %lld, \"append_wall_micros\": "
      "%.0f, \"append_overhead_fraction\": %.6f}\n}\n",
      static_cast<long long>(appends_per_day), append_wall, append_overhead);

  std::FILE* out = std::fopen("BENCH_recovery.json", "w");
  SIGCHECK(out != nullptr);
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("wrote BENCH_recovery.json\n");
  return 0;
}
