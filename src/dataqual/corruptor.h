#ifndef SIGMUND_DATAQUAL_CORRUPTOR_H_
#define SIGMUND_DATAQUAL_CORRUPTOR_H_

#include <stdint.h>

#include <string>
#include <vector>

#include "data/retailer_data.h"
#include "data/types.h"

namespace sigmund::dataqual {

// The feed corruption modes the chaos layer can inject. Each mimics a
// real upstream pathology (DESIGN.md §12 threat model).
enum class Corruption {
  kNone = 0,
  // A replayed ingest partition: runs of events duplicated in place.
  kDuplicateEvents,
  // A dropped ingest partition: a contiguous slice of users lose their
  // entire history.
  kDropPartition,
  // A scraper/bot session: one user flooded with a huge synthetic
  // history that dwarfs the organic feed.
  kBotFlood,
  // A mis-parsed timestamp column: event times shuffled within users.
  kTimestampScramble,
  // A catalog mishap: the item file truncated, leaving events referencing
  // items past the new end.
  kCatalogTruncation,
  // A mis-mapped action column: event types flipped toward conversions,
  // inverting the funnel.
  kActionFlip,
};

inline constexpr int kNumCorruptions = 7;  // including kNone

const char* CorruptionName(Corruption corruption);

// Seeded deterministic feed poisoner, in the style of
// sfs::FaultInjectingFileSystem: all randomness is derived from
// (seed, retailer, day), so the same schedule — and byte-identical
// corrupted feeds — come out of every same-seed rerun, independent of
// call order. The corruptor never mutates the input; it returns a
// poisoned copy.
class FeedCorruptor {
 public:
  struct Options {
    uint64_t seed = 42;
    // Probability that a given (retailer, day) is poisoned at all.
    double corruption_probability = 0.0;
    // The modes to draw from when poisoning (uniformly). Empty = all.
    std::vector<Corruption> enabled;

    // --- Severity knobs (fractions of the organic feed).
    double duplicate_fraction = 0.3;    // events duplicated in place
    double drop_fraction = 0.6;         // users whose history is dropped
    double bot_flood_multiple = 1.0;    // bot events as a multiple of feed
    double scramble_fraction = 0.5;     // users whose timestamps shuffle
    double truncate_fraction = 0.5;     // catalog tail removed
    double flip_fraction = 0.5;         // events flipped to conversions
  };

  // Running totals of injections: the test double's own ground truth,
  // like sfs::FaultCounters, for tests to compare what the sentry
  // detected against. Not a metrics series.
  struct Counters {
    int64_t total = 0;
    int64_t per_mode[kNumCorruptions] = {};
  };

  explicit FeedCorruptor(const Options& options) : options_(options) {}

  // The corruption this (retailer, day) draws — kNone when the coin says
  // healthy. Pure function of (seed, retailer, day).
  Corruption Plan(data::RetailerId retailer, int day) const;

  // Returns `data` poisoned per Plan(retailer, day); an untouched copy
  // when the plan is kNone or the corruptor is disabled.
  data::RetailerData Corrupt(const data::RetailerData& data, int day);

  // Applies one specific corruption (for targeted tests and the demo).
  data::RetailerData Apply(const data::RetailerData& data, Corruption mode,
                           data::RetailerId retailer, int day);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  const Counters& counters() const { return counters_; }

 private:
  Options options_;
  bool enabled_ = true;
  Counters counters_;
};

}  // namespace sigmund::dataqual

#endif  // SIGMUND_DATAQUAL_CORRUPTOR_H_
