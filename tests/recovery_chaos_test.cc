// Kill-anywhere crash harness (DESIGN.md §13): a clean 3-retailer,
// 3-day run is recorded once — including a poisoned batch and a poisoned
// retrieval index so both canary-rollback seams are live — and then the
// whole scenario is replayed once per instrumented kill-point, with the
// simulated coordinator process dying at exactly that point, a fresh
// process recovering from the surviving filesystem, and the run carrying
// on to the end. Every replay must converge to the clean run's bytes:
// identical durable files (snapshots included), identical version
// chains, identical post-crash daily reports, zero failed serves from
// already-active versions, and no leaked staged versions or partials.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "common/crash_point.h"
#include "common/metrics.h"
#include "core/recommendation_batch.h"
#include "data/world_generator.h"
#include "pipeline/config_record.h"
#include "pipeline/service.h"
#include "retrieval/artifact.h"
#include "sfs/mem_filesystem.h"

namespace sigmund::pipeline {
namespace {

constexpr int kRetailers = 3;
constexpr int kDays = 3;

// Items ranked by mean true affinity over the retailer's users, worst
// first: the head of this ranking is what a poisoned batch serves.
std::vector<core::ScoredItem> WorstItems(const data::RetailerWorld& world,
                                         int count) {
  std::vector<std::pair<double, data::ItemIndex>> scored;
  for (int item = 0; item < world.data.num_items(); ++item) {
    double sum = 0.0;
    for (int user = 0; user < world.data.num_users(); ++user) {
      sum += world.truth.Affinity(user, item);
    }
    scored.emplace_back(sum, static_cast<data::ItemIndex>(item));
  }
  std::sort(scored.begin(), scored.end());
  std::vector<core::ScoredItem> list;
  double score = 1.0;
  for (int i = 0; i < count && i < static_cast<int>(scored.size()); ++i) {
    list.push_back({scored[i].second, score});
    score -= 0.05;
  }
  return list;
}

// SFS decorator that poisons reads of exactly one path (the versioned
// batch copy the rollout stages), replacing every recommendation list
// with the globally least-liked items and re-framing the checksums.
// Stateless by design: unlike a write-verify-aware poisoner, its
// behavior cannot depend on how far a crashed process got, so reference
// and crash-replay runs read identical bytes.
class PoisonTargetFileSystem : public sfs::SharedFileSystem {
 public:
  PoisonTargetFileSystem(sfs::SharedFileSystem* base, std::string target,
                         std::vector<core::ScoredItem> poison)
      : base_(base), target_(std::move(target)), poison_(std::move(poison)) {}

  Status Write(const std::string& path, const std::string& data) override {
    return base_->Write(path, data);
  }
  StatusOr<std::string> Read(const std::string& path) const override {
    StatusOr<std::string> blob = base_->Read(path);
    if (!blob.ok() || path != target_) return blob;
    return PoisonBlob(*blob);
  }
  Status Delete(const std::string& path) override {
    return base_->Delete(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }
  StatusOr<std::vector<std::string>> List(
      const std::string& prefix) const override {
    return base_->List(prefix);
  }
  StatusOr<int64_t> FileSize(const std::string& path) const override {
    return base_->FileSize(path);
  }

 private:
  std::string PoisonBlob(const std::string& stored) const {
    StatusOr<std::string> payload = ReadChecksummedFrame(stored);
    if (!payload.ok()) return stored;
    StatusOr<core::RecommendationBatch> batch =
        core::RecommendationBatch::Decode(*payload);
    if (!batch.ok()) return stored;
    std::vector<core::ItemRecommendations> poisoned(batch->num_items());
    for (data::ItemIndex q = 0; q < batch->num_items(); ++q) {
      poisoned[q].query = q;
      poisoned[q].view_based = poison_;
      poisoned[q].purchase_based = poison_;
      poisoned[q].view_based_late = poison_;
    }
    return WriteChecksummedFrame(
        core::RecommendationBatch::FromLists(poisoned).Encode());
  }

  sfs::SharedFileSystem* base_;
  std::string target_;
  std::vector<core::ScoredItem> poison_;
};

struct Outcome {
  // Per-day report strings; "" when the day's report was lost to a crash
  // after the day had durably committed (the one artifact a post-commit
  // crash legitimately loses).
  std::vector<std::string> reports;
  std::vector<DailyReport> report_structs;
  // Per-day active-version trails per plane.
  std::vector<std::map<data::RetailerId, int64_t>> store_versions;
  std::vector<std::map<data::RetailerId, int64_t>> index_versions;
  // Final durable bytes, ledger day-logs excluded (the journal records
  // *how* the day ran — a recovered day legitimately appends a different
  // trail; everything else, control-state snapshots included, must
  // match).
  std::map<std::string, std::string> files;
  std::vector<std::string> sequence;  // kill-points hit, in order
  int crashes = 0;
  int crash_day = -1;
  int64_t failed_serves = 0;
  int64_t units_skipped = 0;
};

// Runs the whole scenario, crashing at the `crash_at`-th kill-point hit
// (1-based; 0 = never). The crash abandons the service object mid-stage
// — in-memory state dies, the shared filesystem survives — and a fresh
// service recovers and resumes. `placement` turns on data placement
// across two cells, so the placement stage runs every day.
Outcome RunScenario(int64_t crash_at, bool placement = false) {
  Outcome outcome;
  data::WorldConfig config;
  config.seed = 29;
  data::WorldGenerator generator(config);
  std::vector<data::RetailerWorld> worlds;
  worlds.push_back(generator.GenerateRetailer(0, 60));
  worlds.push_back(generator.GenerateRetailer(1, 50));
  worlds.push_back(generator.GenerateRetailer(2, 70));

  sfs::MemFileSystem base;
  // Retailer 1's day-1 staged copy (its second version) is poisoned:
  // intact checksums, catastrophic content — only the live canary can
  // catch it, and the rollback/discard seams go under crash test.
  PoisonTargetFileSystem fs(&base, RecommendationVersionPath(1, 2),
                            WorstItems(worlds[1], 5));
  SimClock clock;
  CrashInjector injector;
  if (crash_at > 0) injector.ArmGlobal(crash_at);

  int current_day = 0;
  auto make_options = [&] {
    SigmundService::Options options;
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
    // Small worlds need a dense index for the degraded-build canary to
    // see the damage: probe every list and serve enough neighbors that
    // the negated vectors actually surface the worst items.
    options.retrieval.ann.num_lists = 8;
    options.retrieval.reader.top_k = 5;
    options.retrieval.reader.nprobe = 4;
    options.canary.enabled = true;
    options.canary.canary_fraction = 0.5;
    options.canary.min_relative_ctr = 0.8;
    // The day-1 degraded index serves mediocre rather than catastrophic
    // lists (z ~ -3.2 over the full canary run on these small worlds), so
    // the sequential test needs a slightly lower boundary than the 4.0
    // default to call it; the poisoned batch fails by a mile either way.
    options.canary.early_stop_z = 3.0;
    options.canary.seed = 11;
    // Enough simulated traffic that even the small retailers' arms clear
    // the canary's noise floor.
    options.canary.max_impressions = 2400;
    options.canary.oracle = [&worlds](data::RetailerId id) {
      return &worlds[id].truth;
    };
    // Degrade retailer 2's day-1 index build: the ANN plane ranks the
    // model's worst items first, the retrieval canary rolls it back, and
    // the index discard seams go under crash test too.
    options.retrieval.build_hook_for_testing =
        [&current_day](data::RetailerId id,
                       retrieval::IndexArtifact* artifact) {
          if (current_day == 1 && id == 2) {
            for (float& v : artifact->context_vectors) v = -v;
          }
        };
    if (placement) options.placement.cells = {"cell-a", "cell-b"};
    options.clock = &clock;
    options.crash = &injector;
    return options;
  };

  auto boot = [&] {
    auto service = std::make_unique<SigmundService>(&fs, make_options());
    StatusOr<SigmundService::RecoveryReport> recovered =
        service->RecoverDay();
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    for (data::RetailerWorld& world : worlds) {
      service->UpsertRetailer(&world.data);
    }
    return service;
  };

  std::unique_ptr<SigmundService> service = boot();
  for (int day = 0; day < kDays; ++day) {
    if (day > 0) {
      for (data::RetailerWorld& world : worlds) {
        data::AdvanceOneDay(generator, &world, /*new_items=*/2,
                            /*seed=*/500 + day);
      }
    }
    current_day = day;
    for (data::RetailerWorld& world : worlds) {
      service->UpsertRetailer(&world.data);
    }
    bool day_done = false;
    while (!day_done) {
      try {
        StatusOr<DailyReport> report = service->RunDaily();
        EXPECT_TRUE(report.ok())
            << "day " << day << ": " << report.status().ToString();
        if (!report.ok()) return outcome;
        outcome.units_skipped += report->replay_units_skipped;
        outcome.reports.push_back(report->ToString());
        outcome.report_structs.push_back(*std::move(report));
        day_done = true;
      } catch (const CrashException& e) {
        ++outcome.crashes;
        outcome.crash_day = day;
        // The process died at e.point. A fresh process recovers from the
        // surviving filesystem.
        service = boot();
        // Availability through the crash: every already-active version
        // must serve immediately after recovery.
        for (data::RetailerId id = 0; id < kRetailers; ++id) {
          if (service->store().RetailerVersion(id) > 0 &&
              !service->store()
                   .Lookup(id, 0, serving::RecommendationKind::kViewBased)
                   .ok()) {
            ++outcome.failed_serves;
          }
        }
        if (service->days_run() > day) {
          // The crash landed after the day's snapshot commit: the day is
          // durably complete, only its report died with the process.
          outcome.reports.push_back("");
          outcome.report_structs.emplace_back();
          day_done = true;
        }
      }
    }
    std::map<data::RetailerId, int64_t> store_versions, index_versions;
    for (data::RetailerId id = 0; id < kRetailers; ++id) {
      store_versions[id] = service->store().RetailerVersion(id);
      index_versions[id] = service->retrieval_reader()->RetailerVersion(id);
      if (!service->store()
               .Lookup(id, 0, serving::RecommendationKind::kViewBased)
               .ok()) {
        ++outcome.failed_serves;
      }
    }
    outcome.store_versions.push_back(std::move(store_versions));
    outcome.index_versions.push_back(std::move(index_versions));
  }

  outcome.sequence = injector.Sequence();
  StatusOr<std::vector<std::string>> paths = base.List("");
  EXPECT_TRUE(paths.ok());
  if (paths.ok()) {
    const std::string ledger_prefix =
        make_options().ledger.ledger.dir + "/";
    for (const std::string& path : *paths) {
      if (path.compare(0, ledger_prefix.size(), ledger_prefix) == 0) {
        continue;
      }
      StatusOr<std::string> bytes = base.Read(path);
      outcome.files[path] = bytes.ok() ? *bytes : "<unreadable>";
    }
  }
  return outcome;
}

void ExpectSameFiles(const Outcome& clean, const Outcome& crashed,
                     const std::string& label) {
  for (const auto& [path, bytes] : clean.files) {
    auto it = crashed.files.find(path);
    if (it == crashed.files.end()) {
      ADD_FAILURE() << label << ": missing file " << path;
    } else if (it->second != bytes) {
      ADD_FAILURE() << label << ": bytes differ for " << path << " ("
                    << bytes.size() << " vs " << it->second.size() << ")";
    }
  }
  for (const auto& [path, bytes] : crashed.files) {
    if (clean.files.find(path) == clean.files.end()) {
      ADD_FAILURE() << label << ": leaked file " << path << " ("
                    << bytes.size() << " bytes)";
    }
  }
}

// Replays the scenario killed at the `i`-th kill-point hit of the clean
// run and checks that it converges to the clean run.
void ExpectKillConverges(const Outcome& clean, size_t i, bool placement) {
  const std::string label =
      StrFormat("kill %zu/%zu at %s", i, clean.sequence.size(),
                clean.sequence[i - 1].c_str());
  SCOPED_TRACE(label);
  const Outcome crashed = RunScenario(static_cast<int64_t>(i), placement);
  ASSERT_EQ(crashed.crashes, 1);
  EXPECT_EQ(crashed.failed_serves, 0);
  ExpectSameFiles(clean, crashed, label);
  EXPECT_EQ(crashed.store_versions, clean.store_versions);
  EXPECT_EQ(crashed.index_versions, clean.index_versions);
  ASSERT_EQ(crashed.reports.size(), static_cast<size_t>(kDays));
  for (int day = 0; day < kDays; ++day) {
    if (day == crashed.crash_day) continue;  // recovered=1 / lost report
    EXPECT_EQ(crashed.reports[day], clean.reports[day])
        << "day " << day << " report diverged";
  }
}

// Checks the clean run the sweeps replay. Every committed stage it ran
// must have hit its "<tag>.ran" and "<tag>.done" kill-points once per
// run, and `daily_stages` committed stages must have run on every day.
void ExpectCleanRun(const Outcome& clean, int daily_stages) {
  ASSERT_EQ(clean.crashes, 0);
  ASSERT_EQ(clean.reports.size(), static_cast<size_t>(kDays));
  ASSERT_EQ(clean.failed_serves, 0);
  ASSERT_FALSE(clean.files.empty());
  ASSERT_FALSE(clean.sequence.empty());
  int ran_daily = 0;
  for (const DailyStage& stage : kDailyStages) {
    if (stage.tag == nullptr) continue;
    int64_t runs = 0;
    for (const DailyReport& report : clean.report_structs) {
      for (const auto& [name, micros] : report.stage_wall_micros) {
        runs += name == stage.name ? 1 : 0;
      }
    }
    if (runs == kDays) ++ran_daily;
    for (const char* seam : {"ran", "done"}) {
      const std::string point = StrFormat("%s.%s", stage.tag, seam);
      EXPECT_EQ(std::count(clean.sequence.begin(), clean.sequence.end(),
                           point),
                runs)
          << point;
    }
  }
  EXPECT_EQ(ran_daily, daily_stages);
}

TEST(RecoveryChaosTest, KillAnywhereConvergesToCleanRunBytes) {
  const Outcome clean = RunScenario(/*crash_at=*/0);
  ExpectCleanRun(clean, /*daily_stages=*/7);  // all but placement
  std::printf("[chaos] kill sweep: %zu scenarios\n", clean.sequence.size());

  // The scenario must actually exercise both rollback planes, or the
  // discard seams would silently drop out of the kill sweep.
  EXPECT_EQ(clean.report_structs[1].canary_rollbacks, 1);
  EXPECT_EQ(clean.report_structs[1].retrieval_rollbacks, 1);
  auto hit = [&](const char* point) {
    return std::count(clean.sequence.begin(), clean.sequence.end(),
                      std::string(point));
  };
  EXPECT_GT(hit("day.start"), 0);
  EXPECT_EQ(hit("train.undo_logged"), kDays);
  EXPECT_EQ(hit("train.undo_cleared"), kDays);
  // Every seam of the shared rollout unit, on both planes.
  for (const char* plane : {"batch", "index"}) {
    for (const char* seam : {"intent", "tmp_written", "staged",
                             "canary_logged", "discarded", "activated"}) {
      const std::string point = StrFormat("%s.%s", plane, seam);
      EXPECT_GT(hit(point.c_str()), 0) << point;
    }
  }
  EXPECT_GT(hit("day.snapshot_committed"), 0);
  EXPECT_GT(hit("day.complete"), 0);

  // Kill the run at every instrumented point, once per point.
  for (size_t i = 1; i <= clean.sequence.size(); ++i) {
    ExpectKillConverges(clean, i, /*placement=*/false);
  }
}

// The same scenario with data placement on: killing at each placement
// seam exercises its skip-and-restore-shard-homes replay, and killing
// after the train commit exercises multi-cell training's restore.
TEST(RecoveryChaosTest, PlacementKillPointsConverge) {
  const Outcome clean = RunScenario(/*crash_at=*/0, /*placement=*/true);
  ExpectCleanRun(clean, /*daily_stages=*/8);
  EXPECT_GT(clean.report_structs[0].shard_bytes_moved, 0);
  int scenarios = 0;
  for (size_t i = 1; i <= clean.sequence.size(); ++i) {
    const std::string& point = clean.sequence[i - 1];
    if (point.rfind("placement.", 0) != 0 && point != "train.done") continue;
    ExpectKillConverges(clean, i, /*placement=*/true);
    ++scenarios;
  }
  EXPECT_EQ(scenarios, 3 * kDays);  // placement.{ran,done}, train.done
}

// A cold start sweeps `*.tmp` partials and leaves committed files alone.
TEST(RecoveryChaosTest, StartupGcSweepsPartials) {
  sfs::MemFileSystem fs;
  ASSERT_TRUE(fs.Write("recommendations/r0.v000002.tmp", "partial").ok());
  ASSERT_TRUE(fs.Write("retrieval/r1.v000001.tmp", "partial").ok());
  ASSERT_TRUE(fs.Write("recommendations/r0", "committed").ok());

  SigmundService::Options options;
  SigmundService service(&fs, options);
  StatusOr<SigmundService::RecoveryReport> recovered = service.RecoverDay();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->resumed);
  EXPECT_EQ(recovered->tmp_files_swept, 2);
  EXPECT_FALSE(fs.Exists("recommendations/r0.v000002.tmp"));
  EXPECT_FALSE(fs.Exists("retrieval/r1.v000001.tmp"));
  EXPECT_TRUE(fs.Exists("recommendations/r0"));
  EXPECT_EQ(service.metrics()->Snapshot().CounterValue(
                "pipeline_orphans_gc_total", {{"kind", "tmp"}}),
            2);
}

// A cold start on an empty filesystem is a no-op
// recovery: nothing swept, nothing resumed, day counter at zero.
TEST(RecoveryChaosTest, ColdStartRecoveryIsNoop) {
  sfs::MemFileSystem fs;
  SigmundService::Options options;
  SigmundService service(&fs, options);
  StatusOr<SigmundService::RecoveryReport> recovered = service.RecoverDay();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->resumed);
  EXPECT_EQ(recovered->day, 0);
  EXPECT_EQ(recovered->snapshot_day, -1);
  EXPECT_EQ(recovered->tmp_files_swept, 0);
  EXPECT_EQ(recovered->versions_rehydrated, 0);
  EXPECT_EQ(service.days_run(), 0);
}

}  // namespace
}  // namespace sigmund::pipeline
