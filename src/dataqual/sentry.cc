#include "dataqual/sentry.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "common/string_util.h"
#include "data/types.h"

namespace sigmund::dataqual {

namespace {

// Hard integrity checks quarantine even below the noise floor: a feed
// referencing items outside its catalog crashes training at any size.
bool IsHardCheck(const std::string& check) {
  return check == "invalid_item_fraction";
}

DataSentry::Verdict MaxVerdict(DataSentry::Verdict a, DataSentry::Verdict b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

}  // namespace

const char* VerdictName(DataSentry::Verdict verdict) {
  switch (verdict) {
    case DataSentry::Verdict::kPass:
      return "pass";
    case DataSentry::Verdict::kWarn:
      return "warn";
    case DataSentry::Verdict::kQuarantine:
      return "quarantine";
  }
  return "unknown";
}

std::string DataSentry::Finding::ToString() const {
  return StrFormat("%s[%s]: %.4f vs %.4f", check.c_str(),
                   VerdictName(severity), value, threshold);
}

DataSentry::DataSentry(const Options& options, obs::MetricRegistry* metrics)
    : options_(options),
      metrics_(obs::RequireRegistry(metrics, "DataSentry")) {}

const FeedProfile* DataSentry::LastGoodProfile(
    data::RetailerId retailer) const {
  auto it = last_good_.find(retailer);
  return it == last_good_.end() ? nullptr : &it->second;
}

std::string DataSentry::SerializeState() const {
  BinaryWriter writer;
  writer.Write<uint64_t>(last_good_.size());
  for (const auto& [retailer, profile] : last_good_) {
    writer.Write<int32_t>(retailer);
    profile.SerializeTo(&writer);
  }
  writer.Write<uint64_t>(quarantined_.size());
  for (data::RetailerId retailer : quarantined_) {
    writer.Write<int32_t>(retailer);
  }
  return writer.Take();
}

Status DataSentry::RestoreState(std::string_view bytes) {
  BinaryReader reader(bytes);
  uint64_t count = 0;
  if (!reader.Read(&count)) return DataLossError("truncated sentry state");
  std::map<data::RetailerId, FeedProfile> last_good;
  for (uint64_t i = 0; i < count; ++i) {
    int32_t retailer = 0;
    FeedProfile profile;
    if (!reader.Read(&retailer) || !profile.ReadFrom(&reader)) {
      return DataLossError("truncated sentry state (baselines)");
    }
    last_good[retailer] = profile;
  }
  if (!reader.Read(&count)) {
    return DataLossError("truncated sentry state (quarantine)");
  }
  std::set<data::RetailerId> quarantined;
  for (uint64_t i = 0; i < count; ++i) {
    int32_t retailer = 0;
    if (!reader.Read(&retailer)) {
      return DataLossError("truncated sentry state (quarantine)");
    }
    quarantined.insert(retailer);
  }
  if (!reader.Done()) return DataLossError("trailing bytes in sentry state");
  last_good_ = std::move(last_good);
  quarantined_ = std::move(quarantined);
  return OkStatus();
}

void DataSentry::CheckInvariants(const FeedProfile& profile,
                                 std::vector<Finding>* findings) const {
  if (profile.events == 0) return;
  const double events = static_cast<double>(profile.events);
  auto fail = [&](const char* check, Verdict severity, double value,
                  double threshold) {
    findings->push_back(Finding{check, severity, value, threshold});
  };

  const double duplicate_fraction =
      static_cast<double>(profile.duplicate_events) / events;
  if (duplicate_fraction > options_.max_duplicate_fraction) {
    fail("duplicate_fraction", Verdict::kQuarantine, duplicate_fraction,
         options_.max_duplicate_fraction);
  }
  const double out_of_order_fraction =
      static_cast<double>(profile.out_of_order_events) / events;
  if (out_of_order_fraction > options_.max_out_of_order_fraction) {
    fail("out_of_order_fraction", Verdict::kQuarantine, out_of_order_fraction,
         options_.max_out_of_order_fraction);
  }
  const double invalid_item_fraction =
      static_cast<double>(profile.invalid_item_events) / events;
  if (invalid_item_fraction > options_.max_invalid_item_fraction) {
    fail("invalid_item_fraction", Verdict::kQuarantine, invalid_item_fraction,
         options_.max_invalid_item_fraction);
  }
  // Bot flood: one "user" owning the feed. Only meaningful once there are
  // several active users — with one or two users the share is trivially
  // large.
  if (profile.active_users >= 4 &&
      profile.TopUserShare() > options_.max_top_user_share) {
    fail("top_user_share", Verdict::kQuarantine, profile.TopUserShare(),
         options_.max_top_user_share);
  }
  // Funnel shape: views dominate every legitimate implicit-feedback feed.
  // Each stronger tier is compared against views only (repurchase
  // synthesis legitimately emits conversions with no cart).
  const double views =
      static_cast<double>(profile.action_counts[0]);
  for (int a = 1; a < data::kNumActionTypes; ++a) {
    const double count = static_cast<double>(profile.action_counts[a]);
    if (count > options_.max_funnel_ratio * views) {
      fail("funnel_inversion", Verdict::kQuarantine,
           views > 0.0 ? count / views : count, options_.max_funnel_ratio);
      break;
    }
  }
}

void DataSentry::CheckDrift(const FeedProfile& profile,
                            const FeedProfile& baseline,
                            std::vector<Finding>* findings) const {
  auto fail = [&](const char* check, Verdict severity, double value,
                  double threshold) {
    findings->push_back(Finding{check, severity, value, threshold});
  };

  if (baseline.events > 0) {
    const double event_ratio = static_cast<double>(profile.events) /
                               static_cast<double>(baseline.events);
    if (event_ratio < options_.min_event_ratio) {
      fail("event_collapse", Verdict::kQuarantine, event_ratio,
           options_.min_event_ratio);
    } else if (event_ratio > options_.max_event_ratio) {
      fail("event_spike", Verdict::kQuarantine, event_ratio,
           options_.max_event_ratio);
    }
  }
  if (baseline.active_users > 0) {
    const double user_ratio = static_cast<double>(profile.active_users) /
                              static_cast<double>(baseline.active_users);
    if (user_ratio < options_.min_active_user_ratio) {
      fail("active_user_collapse", Verdict::kQuarantine, user_ratio,
           options_.min_active_user_ratio);
    }
  }
  if (baseline.num_items > 0) {
    const double catalog_ratio = static_cast<double>(profile.num_items) /
                                 static_cast<double>(baseline.num_items);
    if (catalog_ratio < options_.min_catalog_ratio) {
      fail("catalog_truncation", Verdict::kQuarantine, catalog_ratio,
           options_.min_catalog_ratio);
    }
  }
  // Clock skew: the feed's newest event running far ahead of the last
  // good feed's newest event.
  if (baseline.max_timestamp > 0 &&
      profile.max_timestamp >
          baseline.max_timestamp + options_.max_future_skew_seconds) {
    fail("timestamp_skew", Verdict::kQuarantine,
         static_cast<double>(profile.max_timestamp - baseline.max_timestamp),
         static_cast<double>(options_.max_future_skew_seconds));
  }
  // Engagement-shape drift: PSI over the interactions-per-user histogram.
  const double psi = PopulationStabilityIndex(baseline.UserHistDistribution(),
                                              profile.UserHistDistribution());
  if (psi > options_.quarantine_psi) {
    fail("user_hist_psi", Verdict::kQuarantine, psi, options_.quarantine_psi);
  } else if (psi > options_.warn_psi) {
    fail("user_hist_psi", Verdict::kWarn, psi, options_.warn_psi);
  }
  // Action-mix drift: one two-proportion z-test per action type, the same
  // sequential-test math the CTR canary runs (common/stats.h). |z| alone
  // grows with volume, so a finding also requires an absolute mix shift.
  for (int a = 0; a < data::kNumActionTypes; ++a) {
    const double z = std::fabs(TwoProportionZ(
        profile.action_counts[a], profile.events, baseline.action_counts[a],
        baseline.events));
    const double shift =
        std::fabs(profile.ActionFraction(static_cast<data::ActionType>(a)) -
                  baseline.ActionFraction(static_cast<data::ActionType>(a)));
    if (shift < options_.min_action_shift) continue;
    if (z > options_.quarantine_z) {
      fail("action_mix_z", Verdict::kQuarantine, z, options_.quarantine_z);
      break;
    }
    if (z > options_.warn_z) {
      fail("action_mix_z", Verdict::kWarn, z, options_.warn_z);
      break;
    }
  }
}

DataSentry::Observation DataSentry::Observe(const FeedProfile& profile) {
  Observation observation;
  const FeedProfile* baseline = LastGoodProfile(profile.retailer);
  observation.first_observation = baseline == nullptr;

  CheckInvariants(profile, &observation.findings);
  if (baseline != nullptr) {
    CheckDrift(profile, *baseline, &observation.findings);
  }

  // Noise floor: tiny feeds cap statistical findings at kWarn. Hard
  // integrity findings keep their severity at any size.
  const bool below_floor = profile.events < options_.min_events ||
                           profile.active_users < options_.min_active_users;
  for (Finding& finding : observation.findings) {
    if (below_floor && finding.severity == Verdict::kQuarantine &&
        !IsHardCheck(finding.check)) {
      finding.severity = Verdict::kWarn;
    }
    observation.verdict = MaxVerdict(observation.verdict, finding.severity);
  }

  const bool was_quarantined = quarantined_.count(profile.retailer) > 0;
  if (observation.verdict == Verdict::kQuarantine) {
    quarantined_.insert(profile.retailer);
  } else {
    if (was_quarantined) {
      quarantined_.erase(profile.retailer);
      observation.released = true;
    }
    // Pass and warn both promote the baseline; a quarantined day never
    // becomes the reference tomorrow's feed is judged against.
    last_good_[profile.retailer] = profile;
  }

  metrics_
      ->GetCounter("dataqual_verdicts_total",
                   {{"verdict", VerdictName(observation.verdict)}})
      ->Add(1);
  for (const Finding& finding : observation.findings) {
    metrics_
        ->GetCounter("dataqual_checks_failed_total",
                     {{"check", finding.check}})
        ->Add(1);
  }
  if (observation.released) {
    metrics_->GetCounter("dataqual_releases_total")->Add(1);
  }
  metrics_->GetGauge("dataqual_quarantined_retailers")
      ->Set(static_cast<double>(quarantined_.size()));
  return observation;
}

}  // namespace sigmund::dataqual
