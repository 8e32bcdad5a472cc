// Daily multi-tenant service: the whole Sigmund pipeline over three days.
//
// Day 1: first start — full hyper-parameter sweep for every retailer,
//        training MapReduce on (simulated) pre-emptible machines with
//        time-interval checkpointing, model selection by MAP@10,
//        inference MapReduce with bin-packed cells, serving-store load.
// Day 2: new interaction data + catalog churn arrive, one retailer signs
//        up — incremental sweep (top-3 warm-started per old retailer,
//        full grid for the new one).
// Day 3: heavy preemption weather; the pipeline still completes thanks to
//        checkpoints and MapReduce retries.
// Day 4: chaos storm — the shared filesystem itself starts failing
//        (transient errors, torn writes) on top of task kills; retries,
//        checksummed I/O, and corruption-tolerant recovery absorb it all.
// Day 5: churn storm — training machines run under revocable leases with
//        aggressive eviction schedules and a per-model deadline; grace-
//        window checkpoints, priority escalation, and the degradation
//        ladder keep every retailer servable.
// Day 6/7: safe rollout — the serving plane becomes three replicated
//        store copies with staggered cutover, and each new batch must
//        pass a CTR canary against live simulated traffic before it owns
//        100% of a retailer (rollback is a pointer flip).
// Day 8/9/10: poisoned feed — the data-plane sentry watches every feed.
//        Day 8 establishes per-retailer baselines; day 9 one retailer's
//        feed arrives bot-flooded and is quarantined (no retrain, no
//        index rebuild, serving continues from last-known-good); day 10's
//        clean feed releases the quarantine and training resumes
//        warm-started.
// Day 11/12: crash and resume — every day above already ran through the
//        run ledger, which journals every durable transition and
//        snapshots control state at each day boundary. Day 11 boots a
//        fresh coordinator from day 10's snapshot and runs an
//        incremental day; on day 12 the coordinator is killed
//        mid-rollout, a fresh process replays the journal, skips the
//        committed stages, and finishes the day.

#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "common/crash_point.h"
#include "data/world_generator.h"
#include "dataqual/corruptor.h"
#include "pipeline/service.h"
#include "sfs/fault_injection.h"
#include "sfs/mem_filesystem.h"

using namespace sigmund;  // example code; library code never does this

namespace {

void ShowSample(const pipeline::SigmundService& service,
                data::RetailerId retailer) {
  auto recs = service.store().ServeContext(
      retailer, {{/*item=*/1, data::ActionType::kView}});
  if (!recs.ok()) {
    std::printf("  retailer %d: %s\n", retailer,
                recs.status().ToString().c_str());
    return;
  }
  std::printf("  retailer %d, context [view item 1] ->", retailer);
  for (const core::ScoredItem& item : *recs) {
    std::printf(" %d", item.item);
  }
  std::printf("\n");
}

// Prints the day's latency digest (p50/p95/p99 per histogram) and writes
// the machine-readable run profile next to the report.
void EmitObservability(const pipeline::SigmundService& service,
                       const pipeline::DailyReport& report, int day) {
  std::printf("%s", service.metrics()->Snapshot().SummaryText().c_str());
  const std::string path =
      "run_profile_day" + std::to_string(day) + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << report.profile_json;
  if (out.good()) {
    std::printf("  profile -> %s (%zu bytes)\n", path.c_str(),
                report.profile_json.size());
  }
}

}  // namespace

int main() {
  data::WorldConfig world_config;
  world_config.seed = 7;
  data::WorldGenerator generator(world_config);
  data::RetailerWorld small = generator.GenerateRetailer(0, 80);
  data::RetailerWorld medium = generator.GenerateRetailer(1, 300);
  data::RetailerWorld large = generator.GenerateRetailer(2, 900);

  sfs::MemFileSystem fs;
  pipeline::SigmundService::Options options;
  options.sweep.grid.factors = {8, 16};
  options.sweep.grid.lambdas_v = {0.1, 0.01};
  options.sweep.grid.lambdas_vc = {0.01};
  options.sweep.grid.num_epochs = 8;
  options.sweep.incremental_top_k = 3;
  options.training.num_map_tasks = 8;
  options.training.max_parallel_tasks = 2;
  options.training.checkpoint_interval_seconds = 120.0;
  options.training.simulated_seconds_per_step = 1e-2;
  options.inference.num_cells = 2;
  options.inference.inference.top_k = 5;

  pipeline::SigmundService service(&fs, options);
  service.UpsertRetailer(&small.data);
  service.UpsertRetailer(&medium.data);
  service.UpsertRetailer(&large.data);

  // --- Day 1: full sweep.
  StatusOr<pipeline::DailyReport> day1 = service.RunDaily();
  if (!day1.ok()) {
    std::printf("day 1 failed: %s\n", day1.status().ToString().c_str());
    return 1;
  }
  std::printf("day 1: %s\n", day1->ToString().c_str());
  EmitObservability(service, *day1, 1);
  ShowSample(service, 0);
  ShowSample(service, 2);

  // --- Day 2: data arrives, catalogs churn, a new retailer signs up.
  data::AdvanceOneDay(generator, &small, /*new_items=*/4, 101);
  data::AdvanceOneDay(generator, &medium, 10, 102);
  data::AdvanceOneDay(generator, &large, 25, 103);
  data::RetailerWorld newcomer = generator.GenerateRetailer(3, 60);
  service.UpsertRetailer(&small.data);
  service.UpsertRetailer(&medium.data);
  service.UpsertRetailer(&large.data);
  service.UpsertRetailer(&newcomer.data);

  StatusOr<pipeline::DailyReport> day2 = service.RunDaily();
  if (!day2.ok()) {
    std::printf("day 2 failed: %s\n", day2.status().ToString().c_str());
    return 1;
  }
  std::printf("day 2: %s\n", day2->ToString().c_str());
  EmitObservability(service, *day2, 2);
  ShowSample(service, 3);

  // --- Day 3: preemption storm.
  pipeline::SigmundService::Options stormy = options;
  // (options are fixed at construction; model the storm via the same
  // service by noting day-3 numbers below come from a service configured
  // with preemption injection.)
  stormy.training.preemption_prob_per_epoch = 0.25;
  stormy.training.map_task_failure_prob = 0.2;
  stormy.training.max_attempts_per_task = 30;
  stormy.training.simulated_seconds_per_step = 1.0;
  stormy.training.checkpoint_interval_seconds = 30.0;
  pipeline::SigmundService stormy_service(&fs, stormy);
  stormy_service.UpsertRetailer(&small.data);
  stormy_service.UpsertRetailer(&medium.data);
  stormy_service.UpsertRetailer(&large.data);
  stormy_service.UpsertRetailer(&newcomer.data);
  StatusOr<pipeline::DailyReport> day3 = stormy_service.RunDaily();
  if (!day3.ok()) {
    std::printf("day 3 failed: %s\n", day3.status().ToString().c_str());
    return 1;
  }
  std::printf("day 3 (preemption storm): %s\n", day3->ToString().c_str());
  EmitObservability(stormy_service, *day3, 3);
  std::printf("  -> survived %lld preemptions + %lld task failures; all "
              "models delivered\n",
              static_cast<long long>(day3->preemptions),
              static_cast<long long>(day3->map_failures));

  // --- Day 4: chaos storm. The shared filesystem starts failing too:
  // 5% of every operation returns a transient error and 5% of writes are
  // torn (report success, persist garbage). Retrying the call masks the
  // former; checksummed frames with read-back verification catch and heal
  // the latter.
  sfs::FaultProfile chaos_profile;
  chaos_profile.read_error_prob = 0.05;
  chaos_profile.write_error_prob = 0.05;
  chaos_profile.rename_error_prob = 0.05;
  chaos_profile.delete_error_prob = 0.05;
  chaos_profile.list_error_prob = 0.05;
  chaos_profile.torn_write_prob = 0.05;
  sfs::FaultInjectingFileSystem chaos_fs(&fs, chaos_profile);

  pipeline::SigmundService::Options chaos = stormy;
  chaos.training.reduce_task_failure_prob = 0.2;
  RetryPolicy generous;
  generous.max_attempts = 10;
  chaos.sfs_retry = generous;
  chaos.training.sfs_retry = generous;
  chaos.inference.sfs_retry = generous;
  pipeline::SigmundService chaos_service(&chaos_fs, chaos);
  // Count each injected fault live, per operation, in the service's
  // registry: that is where the day's report reads faults_injected.
  chaos_fs.SetMetrics(chaos_service.metrics());
  chaos_service.UpsertRetailer(&small.data);
  chaos_service.UpsertRetailer(&medium.data);
  chaos_service.UpsertRetailer(&large.data);
  chaos_service.UpsertRetailer(&newcomer.data);
  StatusOr<pipeline::DailyReport> day4 = chaos_service.RunDaily();
  if (!day4.ok()) {
    std::printf("day 4 failed: %s\n", day4.status().ToString().c_str());
    return 1;
  }
  std::printf("day 4 (chaos storm): %s\n", day4->ToString().c_str());
  EmitObservability(chaos_service, *day4, 4);
  std::printf("  -> %lld injected storage faults masked by %lld retries; "
              "%lld corrupt writes healed\n",
              static_cast<long long>(day4->faults_injected),
              static_cast<long long>(day4->sfs_retries),
              static_cast<long long>(day4->corruptions_healed));
  ShowSample(chaos_service, 2);

  // --- Day 5: churn storm. Training machines are revocable leases now:
  // an exponential schedule (mean inter-eviction 2 simulated minutes)
  // revokes them mid-training, each revocation grants a grace window for
  // one final checkpoint, twice-evicted tasks escalate to regular
  // priority, and a tight per-model deadline pushes slow models onto the
  // degradation ladder instead of blowing the daily window.
  pipeline::SigmundService::Options churny = stormy;
  churny.training.preemption_prob_per_epoch = 0.0;
  churny.training.map_task_failure_prob = 0.0;
  churny.training.churn.preemption_rate_per_hour = 30.0;
  churny.training.churn.eviction_grace_seconds = 1e6;
  churny.training.churn.escalate_after_evictions = 2;
  churny.training.per_model_deadline_seconds = 4000.0;
  // (Speculative inference backups stay off here: which attempt commits
  // first is thread-timing dependent, and this example's output is meant
  // to be byte-identical run to run. chaos_test covers speculation.)
  pipeline::SigmundService churny_service(&fs, churny);
  churny_service.UpsertRetailer(&small.data);
  churny_service.UpsertRetailer(&medium.data);
  churny_service.UpsertRetailer(&large.data);
  churny_service.UpsertRetailer(&newcomer.data);
  StatusOr<pipeline::DailyReport> day5 = churny_service.RunDaily();
  if (!day5.ok()) {
    std::printf("day 5 failed: %s\n", day5.status().ToString().c_str());
    return 1;
  }
  std::printf("day 5 (churn storm): %s\n", day5->ToString().c_str());
  EmitObservability(churny_service, *day5, 5);
  std::printf("  -> %lld evictions (%lld grace checkpoints, %lld hard), "
              "%lld tasks escalated to regular priority, %lld retailers "
              "degraded but still serving\n",
              static_cast<long long>(day5->evictions),
              static_cast<long long>(day5->eviction_grace_checkpoints),
              static_cast<long long>(day5->hard_evictions),
              static_cast<long long>(day5->priority_escalations),
              static_cast<long long>(day5->degraded_retailers));
  ShowSample(churny_service, 2);

  // --- Days 6/7: safe rollout. Serving moves to a 3-replica store group
  // and every staged batch is canaried on simulated live traffic (clicks
  // from the ground-truth oracle) before promotion. Day 6 establishes the
  // first batches (nothing to canary against); day 7's batches must each
  // hold >= 80% of control CTR or they are rolled back on the spot.
  std::vector<data::RetailerWorld*> worlds = {&small, &medium, &large,
                                              &newcomer};
  pipeline::SigmundService::Options rollout = options;
  rollout.serving.num_replicas = 3;
  rollout.serving.store.retained_versions = 3;
  rollout.canary.enabled = true;
  rollout.canary.canary_fraction = 0.2;
  rollout.canary.oracle = [&worlds](data::RetailerId id) {
    return &worlds[id]->truth;
  };
  pipeline::SigmundService rollout_service(&fs, rollout);
  for (data::RetailerWorld* world : worlds) {
    rollout_service.UpsertRetailer(&world->data);
  }
  StatusOr<pipeline::DailyReport> day6 = rollout_service.RunDaily();
  if (!day6.ok()) {
    std::printf("day 6 failed: %s\n", day6.status().ToString().c_str());
    return 1;
  }
  std::printf("day 6 (replicated serving): %s\n", day6->ToString().c_str());
  StatusOr<pipeline::DailyReport> day7 = rollout_service.RunDaily();
  if (!day7.ok()) {
    std::printf("day 7 failed: %s\n", day7.status().ToString().c_str());
    return 1;
  }
  std::printf("day 7 (canaried rollout): %s\n", day7->ToString().c_str());
  std::printf("  -> canary verdicts: %lld promoted, %lld rolled back; "
              "%lld follower cutovers; rollback window: retailer 0 retains"
              " versions",
              static_cast<long long>(day7->canary_promotions),
              static_cast<long long>(day7->canary_rollbacks),
              static_cast<long long>(day7->replica_cutovers));
  for (int64_t version : rollout_service.store().RetainedVersions(0)) {
    std::printf(" v%lld", static_cast<long long>(version));
  }
  std::printf(" (active v%lld)\n",
              static_cast<long long>(
                  rollout_service.store().RetailerVersion(0)));
  ShowSample(rollout_service, 0);

  // --- Days 8/9/10: poisoned feed. The data-plane sentry (DESIGN.md §12)
  // profiles every retailer's feed before any training happens. Day 8 is
  // clean and establishes each retailer's last-good baseline. On day 9
  // the medium retailer's feed arrives bot-flooded — one scraper user
  // owning half the events — and is quarantined: no retrain, no
  // retrieval-index rebuild, the last-known-good batch keeps serving.
  // Day 10's clean feed auto-releases the quarantine and training
  // resumes warm-started from the pre-poison checkpoint.
  pipeline::SigmundService::Options guarded = options;
  guarded.dataqual.enabled = true;
  pipeline::SigmundService dq_service(&fs, guarded);
  for (data::RetailerWorld* world : worlds) {
    dq_service.UpsertRetailer(&world->data);
  }
  StatusOr<pipeline::DailyReport> day8 = dq_service.RunDaily();
  if (!day8.ok()) {
    std::printf("day 8 failed: %s\n", day8.status().ToString().c_str());
    return 1;
  }
  std::printf("day 8 (sentry baselines): %s\n", day8->ToString().c_str());

  data::AdvanceOneDay(generator, &small, 2, 901);
  data::AdvanceOneDay(generator, &medium, 5, 902);
  data::AdvanceOneDay(generator, &large, 12, 903);
  data::AdvanceOneDay(generator, &newcomer, 2, 904);
  dataqual::FeedCorruptor::Options corruptor_options;
  corruptor_options.seed = 99;
  dataqual::FeedCorruptor corruptor(corruptor_options);
  data::RetailerData poisoned = corruptor.Apply(
      medium.data, dataqual::Corruption::kBotFlood, medium.data.id, /*day=*/9);
  for (data::RetailerWorld* world : worlds) {
    dq_service.UpsertRetailer(world == &medium ? &poisoned : &world->data);
  }
  const int64_t pre_poison_version =
      dq_service.store().RetailerVersion(medium.data.id);
  StatusOr<pipeline::DailyReport> day9 = dq_service.RunDaily();
  if (!day9.ok()) {
    std::printf("day 9 failed: %s\n", day9.status().ToString().c_str());
    return 1;
  }
  std::printf("day 9 (poisoned feed): %s\n", day9->ToString().c_str());
  std::printf("  -> retailer %d quarantined (bot flood): %lld feed "
              "quarantine(s), still serving last-known-good v%lld "
              "(unchanged: %s)\n",
              medium.data.id,
              static_cast<long long>(day9->feed_quarantines),
              static_cast<long long>(
                  dq_service.store().RetailerVersion(medium.data.id)),
              dq_service.store().RetailerVersion(medium.data.id) ==
                      pre_poison_version
                  ? "yes"
                  : "NO");
  ShowSample(dq_service, medium.data.id);

  data::AdvanceOneDay(generator, &small, 2, 905);
  data::AdvanceOneDay(generator, &medium, 5, 906);
  data::AdvanceOneDay(generator, &large, 12, 907);
  data::AdvanceOneDay(generator, &newcomer, 2, 908);
  for (data::RetailerWorld* world : worlds) {
    dq_service.UpsertRetailer(&world->data);
  }
  StatusOr<pipeline::DailyReport> day10 = dq_service.RunDaily();
  if (!day10.ok()) {
    std::printf("day 10 failed: %s\n", day10.status().ToString().c_str());
    return 1;
  }
  std::printf("day 10 (quarantine released): %s\n", day10->ToString().c_str());
  std::printf("  -> %lld release(s); retailer %d retrained warm-started "
              "(%lld models this day, %lld full-grid sign-ups) and now "
              "serves v%lld\n",
              static_cast<long long>(day10->quarantine_releases),
              medium.data.id,
              static_cast<long long>(day10->models_trained),
              static_cast<long long>(day10->new_retailers),
              static_cast<long long>(
                  dq_service.store().RetailerVersion(medium.data.id)));
  ShowSample(dq_service, medium.data.id);

  // --- Days 11/12: crash and resume (DESIGN.md §13). Every RunDaily
  // journals its stage commits and per-retailer rollout intents, and each
  // day boundary snapshots control state — the services above included.
  // Day 11 boots a fresh coordinator: RecoverDay rehydrates day 10's
  // snapshot (warm-start results, quality baselines, both planes' version
  // chains), so the day runs incrementally. On day 12 the coordinator
  // "process" dies mid-rollout (a CrashInjector throws at the
  // batch.staged kill-point), its in-memory state is abandoned, and a
  // fresh service recovers from the surviving filesystem: committed
  // stages are skipped, the half-staged version is rehydrated, and the
  // day finishes as if nothing happened.
  CrashInjector injector;
  pipeline::SigmundService::Options durable = options;
  durable.crash = &injector;
  auto boot_durable = [&] {
    auto booted =
        std::make_unique<pipeline::SigmundService>(&fs, durable);
    StatusOr<pipeline::SigmundService::RecoveryReport> recovered =
        booted->RecoverDay();
    if (!recovered.ok()) {
      std::printf("recovery failed: %s\n",
                  recovered.status().ToString().c_str());
      return std::unique_ptr<pipeline::SigmundService>();
    }
    if (!recovered->resumed) {
      std::printf("  -> fresh coordinator rehydrated snapshot v%d: %lld "
                  "versions rehydrated, %lld orphaned versions removed\n",
                  recovered->snapshot_day,
                  static_cast<long long>(recovered->versions_rehydrated),
                  static_cast<long long>(recovered->orphan_versions_deleted));
    } else {
      std::printf("  -> recovered mid-flight day %d: %lld ledger entries "
                  "replayed, %lld versions rehydrated, %lld tmp partials "
                  "swept, %lld orphaned versions removed\n",
                  recovered->day,
                  static_cast<long long>(recovered->ledger_entries),
                  static_cast<long long>(recovered->versions_rehydrated),
                  static_cast<long long>(recovered->tmp_files_swept),
                  static_cast<long long>(recovered->orphan_versions_deleted));
    }
    for (data::RetailerWorld* world : worlds) {
      booted->UpsertRetailer(&world->data);
    }
    return booted;
  };
  std::unique_ptr<pipeline::SigmundService> durable_service = boot_durable();
  if (durable_service == nullptr) return 1;
  StatusOr<pipeline::DailyReport> day11 = durable_service->RunDaily();
  if (!day11.ok()) {
    std::printf("day 11 failed: %s\n", day11.status().ToString().c_str());
    return 1;
  }
  std::printf("day 11 (fresh coordinator, incremental from the snapshot): "
              "%s\n",
              day11->ToString().c_str());

  data::AdvanceOneDay(generator, &small, 2, 909);
  data::AdvanceOneDay(generator, &medium, 5, 910);
  data::AdvanceOneDay(generator, &large, 12, 911);
  data::AdvanceOneDay(generator, &newcomer, 2, 912);
  for (data::RetailerWorld* world : worlds) {
    durable_service->UpsertRetailer(&world->data);
  }
  injector.ResetCounts();  // day 11's hits don't count against the arm
  injector.ArmAt("batch.staged");
  StatusOr<pipeline::DailyReport> day12 = OkStatus();
  bool crashed = false;
  try {
    day12 = durable_service->RunDaily();
  } catch (const CrashException& e) {
    crashed = true;
    std::printf("day 12: coordinator killed at kill-point \"%s\" — "
                "training done, first batch staged but not activated\n",
                e.point.c_str());
    durable_service = boot_durable();
    if (durable_service == nullptr) return 1;
    day12 = durable_service->RunDaily();
  }
  if (!day12.ok()) {
    std::printf("day 12 failed: %s\n", day12.status().ToString().c_str());
    return 1;
  }
  std::printf("day 12 (crash + resume%s): %s\n",
              crashed ? "" : " — crash point not reached?",
              day12->ToString().c_str());
  ShowSample(*durable_service, 0);

  // Full trace of the chaos day, span by span.
  std::printf("\nday 4 trace:\n%s",
              chaos_service.tracer()->DumpTree().c_str());
  return 0;
}
