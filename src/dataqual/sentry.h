#ifndef SIGMUND_DATAQUAL_SENTRY_H_
#define SIGMUND_DATAQUAL_SENTRY_H_

#include <stdint.h>

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "dataqual/feed_profile.h"

namespace sigmund::dataqual {

// The data-plane sentry (DESIGN.md §12): judges each retailer's daily
// feed before any training happens. Verdicts are severity-tiered —
//
//   kPass        feed is healthy; it becomes the retailer's last-good
//                baseline for tomorrow's drift tests.
//   kWarn        suspicious but plausible; train normally, surface the
//                findings, and still promote the baseline.
//   kQuarantine  the feed is not trustworthy; the retailer skips
//                retraining and the retrieval-index rebuild and keeps
//                serving its last-known-good batch. The last-good
//                baseline is NOT updated, so a poisoned day can never
//                become tomorrow's reference. Auto-releases as soon as a
//                later feed passes.
//
// Two layers of checks produce findings:
//
//   Absolute invariants — violated by no legitimate feed at any size:
//   duplicate/out-of-order/invalid-item-reference fractions, a single
//   user owning an outsized share of the feed (bot flood), an inverted
//   funnel (more of any stronger action than views), timestamps running
//   far ahead of the last-good feed.
//
//   Cross-day drift vs. the last-good profile — PSI over the
//   interactions-per-user histogram, two-proportion z-tests per action
//   type (the canary's sequential-test math from common/stats.h), event
//   volume collapse/spike, active-user collapse, and catalog truncation.
//
// A noise floor keeps legitimately tiny retailers out of quarantine:
// below `min_events`/`min_active_users`, statistical findings are capped
// at kWarn (hard integrity findings — invalid item references — still
// quarantine, since they crash training regardless of feed size).
class DataSentry {
 public:
  enum class Verdict { kPass = 0, kWarn = 1, kQuarantine = 2 };

  struct Options {
    // --- Noise floor. Feeds below either bound never quarantine on
    // statistical evidence (see class comment).
    int64_t min_events = 200;
    int min_active_users = 20;

    // --- Absolute invariants.
    // Fraction of events that exactly repeat their predecessor.
    double max_duplicate_fraction = 0.05;
    // Fraction of events violating ascending-timestamp order.
    double max_out_of_order_fraction = 0.01;
    // Fraction of events referencing items outside the catalog. Any
    // violation is serious (training indexes factors by item id), so the
    // default tolerance is one event in ten thousand.
    double max_invalid_item_fraction = 1e-4;
    // Max share of the feed owned by the single busiest user.
    double max_top_user_share = 0.25;
    // Funnel shape: each non-view action count must stay below
    // `max_funnel_ratio` * views. Repurchase synthesis emits conversions
    // without carts, so tiers are only compared against views, and the
    // bound is deliberately loose — legitimate mixes put views at ~60%+.
    double max_funnel_ratio = 0.9;
    // Max seconds the feed's newest timestamp may run ahead of the
    // last-good feed's newest timestamp (clock-skew detector).
    int64_t max_future_skew_seconds = 30LL * 86400;

    // --- Cross-day drift vs. the last-good profile. Histories are
    // cumulative (each day appends), so bounds tolerate healthy growth.
    // Event volume outside [min_event_ratio, max_event_ratio] x last-good
    // quarantines: a collapse means dropped partitions, a spike means
    // duplication/bot floods.
    double min_event_ratio = 0.5;
    double max_event_ratio = 3.0;
    // Active users below this ratio of last-good quarantines.
    double min_active_user_ratio = 0.5;
    // Catalog shrinking below this ratio of last-good quarantines
    // (truncation; healthy catalogs only grow in this world).
    double min_catalog_ratio = 0.75;
    // PSI of the interactions-per-user histogram vs. last-good:
    // warn above `warn_psi`, quarantine above `quarantine_psi`.
    double warn_psi = 0.25;
    double quarantine_psi = 0.8;
    // Action-mix drift: per action type, a two-proportion z-test of
    // today's mix vs. last-good. |z| above `warn_z` warns, above
    // `quarantine_z` quarantines — but only when the absolute mix shift
    // also exceeds `min_action_shift` (z alone explodes with volume).
    double warn_z = 8.0;
    double quarantine_z = 20.0;
    double min_action_shift = 0.05;
  };

  struct Finding {
    std::string check;    // e.g. "duplicate_fraction", "event_collapse"
    Verdict severity = Verdict::kWarn;
    double value = 0.0;
    double threshold = 0.0;

    std::string ToString() const;
  };

  struct Observation {
    Verdict verdict = Verdict::kPass;
    // True when this retailer had no last-good baseline yet (first feed
    // ever, or first since construction): drift checks were skipped.
    bool first_observation = false;
    // True when this feed released the retailer from quarantine.
    bool released = false;
    std::vector<Finding> findings;
  };

  // `metrics` (borrowed) is required.
  DataSentry(const Options& options, obs::MetricRegistry* metrics);

  // Judges one feed, updates quarantine state and (on pass/warn) the
  // last-good baseline, and mirrors the verdict into dataqual_* metrics.
  Observation Observe(const FeedProfile& profile);

  bool IsQuarantined(data::RetailerId retailer) const {
    return quarantined_.count(retailer) > 0;
  }
  int QuarantinedCount() const { return static_cast<int>(quarantined_.size()); }
  const std::set<data::RetailerId>& quarantined() const { return quarantined_; }

  // The retailer's last feed that passed (or warned); null before one.
  const FeedProfile* LastGoodProfile(data::RetailerId retailer) const;

  // Crash-recovery snapshot of the sentry's durable control state
  // (DESIGN.md §13): the last-good baselines and the quarantine set. A
  // restarted coordinator that forgot either would treat a poisoned feed
  // as its new baseline, or silently release a quarantined retailer.
  // Deterministic encoding; Observe() on the restored state produces
  // bit-identical verdicts.
  std::string SerializeState() const;
  Status RestoreState(std::string_view bytes);

 private:
  void CheckInvariants(const FeedProfile& profile,
                       std::vector<Finding>* findings) const;
  void CheckDrift(const FeedProfile& profile, const FeedProfile& baseline,
                  std::vector<Finding>* findings) const;

  Options options_;
  obs::MetricRegistry* metrics_;
  std::map<data::RetailerId, FeedProfile> last_good_;
  std::set<data::RetailerId> quarantined_;
};

const char* VerdictName(DataSentry::Verdict verdict);

}  // namespace sigmund::dataqual

#endif  // SIGMUND_DATAQUAL_SENTRY_H_
