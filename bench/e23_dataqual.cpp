// E23: Data-plane sentry (DESIGN.md §12). Three questions about the feed
// validation layer that guards every retailer's daily retrain:
//
//  1. Detection — for each FeedCorruptor mode, poison day 1 of a seeded
//     world whose day 0 established the drift baseline, and count how
//     often the DataSentry quarantines. Acceptance: overall detection
//     rate >= 0.95 across modes and world sizes.
//  2. False quarantines — run clean multi-day worlds (several sizes, the
//     smallest far below the noise floor) through the sentry and count
//     quarantine verdicts. Acceptance: exactly zero.
//  3. Cost — wall-clock of BuildFeedProfile per million events, reported
//     for information (never gated: CI hardware jitter).
//
// Everything gated is a pure function of seeds, so a same-seed rerun must
// fingerprint-identical. Results land in BENCH_dataqual.json;
// bench/baselines/dataqual_quick.json gates detection and the
// zero-false-quarantine bar in CI via check_trajectory.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "data/world_generator.h"
#include "dataqual/corruptor.h"
#include "dataqual/feed_profile.h"
#include "dataqual/sentry.h"

using namespace sigmund;

namespace {

// The six real corruption modes (kNone excluded).
const dataqual::Corruption kModes[] = {
    dataqual::Corruption::kDuplicateEvents,
    dataqual::Corruption::kDropPartition,
    dataqual::Corruption::kBotFlood,
    dataqual::Corruption::kTimestampScramble,
    dataqual::Corruption::kCatalogTruncation,
    dataqual::Corruption::kActionFlip,
};
constexpr int kNumModes = 6;

struct DetectionResult {
  int64_t trials[kNumModes] = {};
  int64_t detected[kNumModes] = {};
  int64_t total_trials = 0;
  int64_t total_detected = 0;

  double Rate(int mode) const {
    return trials[mode] == 0
               ? 0.0
               : static_cast<double>(detected[mode]) /
                     static_cast<double>(trials[mode]);
  }
  double Overall() const {
    return total_trials == 0 ? 0.0
                             : static_cast<double>(total_detected) /
                                   static_cast<double>(total_trials);
  }
};

// One detection trial: day 0 of a fresh seeded world primes the sentry's
// last-good baseline, day 1 arrives poisoned by `mode`. Detected when the
// poisoned day quarantines; the clean day must never quarantine (that
// would be a false positive hiding inside the detection loop, so it
// aborts the bench).
bool RunDetectionTrial(dataqual::Corruption mode, uint64_t seed, int items) {
  data::WorldConfig config;
  config.seed = seed;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, items);

  obs::MetricRegistry metrics;
  dataqual::DataSentry sentry(dataqual::DataSentry::Options(), &metrics);
  const dataqual::DataSentry::Observation day0 =
      sentry.Observe(dataqual::BuildFeedProfile(world.data));
  SIGCHECK(day0.verdict != dataqual::DataSentry::Verdict::kQuarantine);

  data::AdvanceOneDay(generator, &world, /*new_items=*/2, seed * 31 + 1);
  dataqual::FeedCorruptor::Options corruptor_options;
  corruptor_options.seed = seed;
  dataqual::FeedCorruptor corruptor(corruptor_options);
  const data::RetailerData poisoned =
      corruptor.Apply(world.data, mode, world.data.id, /*day=*/1);
  const dataqual::DataSentry::Observation day1 =
      sentry.Observe(dataqual::BuildFeedProfile(poisoned));
  return day1.verdict == dataqual::DataSentry::Verdict::kQuarantine;
}

DetectionResult RunDetection(const std::vector<int>& sizes, int seeds) {
  DetectionResult result;
  for (int m = 0; m < kNumModes; ++m) {
    for (int s = 0; s < seeds; ++s) {
      for (int items : sizes) {
        const bool hit =
            RunDetectionTrial(kModes[m], /*seed=*/9000 + s * 17, items);
        ++result.trials[m];
        ++result.total_trials;
        if (hit) {
          ++result.detected[m];
          ++result.total_detected;
        }
      }
    }
  }
  return result;
}

struct CleanResult {
  int64_t observations = 0;
  int64_t quarantines = 0;
  int64_t warns = 0;

  double FalseRate() const {
    return observations == 0 ? 0.0
                             : static_cast<double>(quarantines) /
                                   static_cast<double>(observations);
  }
};

// Clean worlds — including one far below the noise floor — evolved for
// `days` days each. Every observation must stay out of quarantine.
CleanResult RunCleanWorlds(const std::vector<int>& sizes, int days) {
  CleanResult result;
  for (size_t w = 0; w < sizes.size(); ++w) {
    data::WorldConfig config;
    config.seed = 300 + w;
    data::WorldGenerator generator(config);
    data::RetailerWorld world = generator.GenerateRetailer(
        static_cast<data::RetailerId>(w), sizes[w]);
    obs::MetricRegistry metrics;
    dataqual::DataSentry sentry(dataqual::DataSentry::Options(), &metrics);
    for (int day = 0; day < days; ++day) {
      if (day > 0) {
        data::AdvanceOneDay(generator, &world, /*new_items=*/2,
                            /*seed=*/700 + day);
      }
      const dataqual::DataSentry::Observation obs =
          sentry.Observe(dataqual::BuildFeedProfile(world.data));
      ++result.observations;
      if (obs.verdict == dataqual::DataSentry::Verdict::kQuarantine) {
        ++result.quarantines;
      } else if (obs.verdict == dataqual::DataSentry::Verdict::kWarn) {
        ++result.warns;
      }
    }
  }
  return result;
}

struct CostResult {
  int64_t events_profiled = 0;
  double wall_micros = 0.0;
  double micros_per_million = 0.0;
  uint64_t profile_hash = 0;  // deterministic; only the timing is wall.
};

CostResult RunProfileCost(int items, int reps) {
  data::WorldConfig config;
  config.seed = 41;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, items);

  CostResult result;
  RealClock* wall = RealClock::Get();
  const int64_t t0 = wall->NowMicros();
  for (int r = 0; r < reps; ++r) {
    const dataqual::FeedProfile profile =
        dataqual::BuildFeedProfile(world.data);
    result.events_profiled += profile.events;
    result.profile_hash = Fnv1a64(profile.ToString(), result.profile_hash);
  }
  result.wall_micros = static_cast<double>(wall->NowMicros() - t0);
  result.micros_per_million =
      result.events_profiled == 0
          ? 0.0
          : result.wall_micros * 1e6 /
                static_cast<double>(result.events_profiled);
  return result;
}

// Fingerprint of everything gated: per-mode detection counts, the clean
// verdict tallies, and the profile content hash. Wall-clock excluded.
uint64_t Fingerprint(const DetectionResult& detection, const CleanResult& clean,
                     const CostResult& cost) {
  uint64_t h = kFnv64OffsetBasis;
  for (int m = 0; m < kNumModes; ++m) {
    h = Fnv1a64(StrFormat("%s|%lld|%lld", CorruptionName(kModes[m]),
                          static_cast<long long>(detection.trials[m]),
                          static_cast<long long>(detection.detected[m])),
                h);
  }
  h = Fnv1a64(StrFormat("%lld|%lld|%lld",
                        static_cast<long long>(clean.observations),
                        static_cast<long long>(clean.quarantines),
                        static_cast<long long>(clean.warns)),
              h);
  h = Fnv1a64Mix(h, cost.profile_hash);
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  // Detection worlds sit above the noise floor (a quarantine is only
  // allowed there); the clean sweep adds a deliberately tiny world below
  // it to exercise the warn-capping path.
  const std::vector<int> detect_sizes =
      quick ? std::vector<int>{120, 260} : std::vector<int>{120, 260, 600};
  const std::vector<int> clean_sizes =
      quick ? std::vector<int>{12, 120, 300}
            : std::vector<int>{12, 120, 300, 900};
  const int detect_seeds = quick ? 2 : 4;
  const int clean_days = quick ? 5 : 8;
  const int cost_items = quick ? 400 : 1500;
  const int cost_reps = quick ? 20 : 50;

  std::printf("e23_dataqual: sentry detection / false-quarantine / cost (%s "
              "run)\n",
              quick ? "quick" : "full");

  auto run_all = [&](DetectionResult* detection, CleanResult* clean,
                     CostResult* cost) {
    *detection = RunDetection(detect_sizes, detect_seeds);
    *clean = RunCleanWorlds(clean_sizes, clean_days);
    *cost = RunProfileCost(cost_items, cost_reps);
  };
  DetectionResult detection;
  CleanResult clean;
  CostResult cost;
  run_all(&detection, &clean, &cost);

  for (int m = 0; m < kNumModes; ++m) {
    std::printf("detection %-20s %lld/%lld (%.3f)\n",
                CorruptionName(kModes[m]),
                static_cast<long long>(detection.detected[m]),
                static_cast<long long>(detection.trials[m]),
                detection.Rate(m));
  }
  std::printf("detection overall: %.3f (%lld/%lld)\n", detection.Overall(),
              static_cast<long long>(detection.total_detected),
              static_cast<long long>(detection.total_trials));
  std::printf("clean worlds: %lld observations, %lld quarantines, %lld "
              "warns (false-quarantine rate %.4f)\n",
              static_cast<long long>(clean.observations),
              static_cast<long long>(clean.quarantines),
              static_cast<long long>(clean.warns), clean.FalseRate());
  std::printf("profile cost: %lld events in %.0fus — %.0fus per million "
              "events (informational)\n",
              static_cast<long long>(cost.events_profiled), cost.wall_micros,
              cost.micros_per_million);

  // The acceptance bar, enforced in the binary as well as the baseline.
  SIGCHECK(detection.Overall() >= 0.95);
  SIGCHECK(clean.quarantines == 0);

  // Same-seed rerun must be byte-identical on every gated number.
  DetectionResult rerun_detection;
  CleanResult rerun_clean;
  CostResult rerun_cost;
  run_all(&rerun_detection, &rerun_clean, &rerun_cost);
  const uint64_t hash = Fingerprint(detection, clean, cost);
  const uint64_t rerun_hash =
      Fingerprint(rerun_detection, rerun_clean, rerun_cost);
  SIGCHECK(hash == rerun_hash);
  std::printf("determinism: %016llx == %016llx\n",
              static_cast<unsigned long long>(hash),
              static_cast<unsigned long long>(rerun_hash));

  std::string json = "{\n  \"bench\": \"e23_dataqual\",\n";
  json += StrFormat("  \"quick\": %s,\n", quick ? "true" : "false");
  json += "  \"detection\": {";
  for (int m = 0; m < kNumModes; ++m) {
    json += StrFormat("\"%s\": %.6f, ", CorruptionName(kModes[m]),
                      detection.Rate(m));
  }
  json += StrFormat("\"overall\": %.6f, \"trials\": %lld},\n",
                    detection.Overall(),
                    static_cast<long long>(detection.total_trials));
  json += StrFormat(
      "  \"false_quarantine\": {\"count\": %lld, \"rate\": %.6f, "
      "\"observations\": %lld, \"warns\": %lld},\n",
      static_cast<long long>(clean.quarantines), clean.FalseRate(),
      static_cast<long long>(clean.observations),
      static_cast<long long>(clean.warns));
  json += StrFormat(
      "  \"profile_cost_informational\": {\"events\": %lld, "
      "\"wall_micros\": %.0f, \"micros_per_million_events\": %.0f},\n",
      static_cast<long long>(cost.events_profiled), cost.wall_micros,
      cost.micros_per_million);
  json += StrFormat(
      "  \"determinism\": {\"hash\": \"%016llx\", \"rerun_hash\": "
      "\"%016llx\", \"identical\": true}\n}\n",
      static_cast<unsigned long long>(hash),
      static_cast<unsigned long long>(rerun_hash));

  std::FILE* out = std::fopen("BENCH_dataqual.json", "w");
  SIGCHECK(out != nullptr);
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("wrote BENCH_dataqual.json\n");
  return 0;
}
