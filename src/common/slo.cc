#include "common/slo.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace sigmund::obs {

SloEngine::SloEngine(const Options& options, MetricRegistry* metrics)
    : options_(options), metrics_(RequireRegistry(metrics, "SloEngine")) {
  trackers_.resize(options_.objectives.size());
}

SloEngine::Sample SloEngine::Measure(const SloObjective& o,
                                     const RegistrySnapshot& snapshot,
                                     int64_t now_micros) {
  Sample sample;
  sample.time_micros = now_micros;
  if (!o.latency_histogram.empty()) {
    // Latency mode: good = observations in buckets with bound <=
    // threshold; everything slower (including +Inf) is bad. Summed over
    // every matching label combination.
    for (const MetricSnapshot& m : snapshot.metrics) {
      if (m.kind != MetricKind::kHistogram) continue;
      if (m.name != o.latency_histogram) continue;
      bool match = true;
      for (const auto& want : o.latency_labels) {
        if (std::find(m.labels.begin(), m.labels.end(), want) ==
            m.labels.end()) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      int64_t good = 0;
      for (size_t i = 0; i < m.histogram.bounds.size(); ++i) {
        if (m.histogram.bounds[i] > o.threshold_micros) break;
        good += m.histogram.buckets[i];
      }
      sample.total += m.histogram.count;
      sample.bad += m.histogram.count - good;
    }
  } else {
    sample.total = snapshot.CounterValue(o.total_counter, o.total_labels);
    sample.bad = snapshot.CounterValue(o.bad_counter, o.bad_labels);
  }
  return sample;
}

double SloEngine::Burn(const SloObjective& o, const Tracker& tracker,
                       int64_t window_micros) {
  if (tracker.samples.size() < 2) return 0;
  const Sample& now = tracker.samples.back();
  // Delta anchor: the newest sample at-or-before the window start, so
  // the measured interval covers at least the requested window (falls
  // back to the oldest sample early in a run).
  const int64_t window_start = now.time_micros - window_micros;
  const Sample* anchor = &tracker.samples.front();
  for (const Sample& s : tracker.samples) {
    if (s.time_micros <= window_start) {
      anchor = &s;
    } else {
      break;
    }
  }
  const int64_t delta_total = now.total - anchor->total;
  if (delta_total <= 0) return 0;
  const int64_t delta_bad = now.bad - anchor->bad;
  const double bad_ratio =
      static_cast<double>(delta_bad) / static_cast<double>(delta_total);
  const double budget = 1.0 - o.objective;
  if (budget <= 0) return bad_ratio > 0 ? 1e9 : 0;
  return bad_ratio / budget;
}

int SloEngine::Evaluate(const RegistrySnapshot& snapshot,
                        int64_t now_micros) {
  int transitions = 0;
  for (size_t i = 0; i < options_.objectives.size(); ++i) {
    const SloObjective& o = options_.objectives[i];
    Tracker& tracker = trackers_[i];
    tracker.samples.push_back(Measure(o, snapshot, now_micros));
    // Drop history older than the long window, keeping one sample
    // at-or-before the window start as the delta anchor.
    const int64_t horizon = now_micros - options_.long_window_micros;
    while (tracker.samples.size() > 2 &&
           tracker.samples[1].time_micros <= horizon) {
      tracker.samples.pop_front();
    }

    tracker.burn_short = Burn(o, tracker, options_.short_window_micros);
    tracker.burn_long = Burn(o, tracker, options_.long_window_micros);
    metrics_
        ->GetGauge("slo_burn_rate",
                   {{"objective", o.name}, {"window", "short"}})
        ->Set(tracker.burn_short);
    metrics_
        ->GetGauge("slo_burn_rate", {{"objective", o.name}, {"window", "long"}})
        ->Set(tracker.burn_long);

    const bool should_fire = tracker.burn_short >= options_.fire_burn_rate &&
                             tracker.burn_long >= options_.fire_burn_rate;
    const bool should_resolve =
        tracker.burn_short <= options_.resolve_burn_rate &&
        tracker.burn_long <= options_.resolve_burn_rate;
    if (!tracker.firing && should_fire) {
      tracker.firing = true;
      ++fired_total_;
      ++transitions;
      alert_log_.push_back({now_micros, o.name, /*firing=*/true,
                            tracker.burn_short, tracker.burn_long});
      metrics_
          ->GetCounter("slo_alerts_total",
                       {{"event", "fire"}, {"objective", o.name}})
          ->Add(1);
    } else if (tracker.firing && should_resolve) {
      tracker.firing = false;
      ++resolved_total_;
      ++transitions;
      alert_log_.push_back({now_micros, o.name, /*firing=*/false,
                            tracker.burn_short, tracker.burn_long});
      metrics_
          ->GetCounter("slo_alerts_total",
                       {{"event", "resolve"}, {"objective", o.name}})
          ->Add(1);
    }
  }
  return transitions;
}

std::vector<SloEngine::ObjectiveState> SloEngine::States() const {
  std::vector<ObjectiveState> out;
  out.reserve(options_.objectives.size());
  for (size_t i = 0; i < options_.objectives.size(); ++i) {
    out.push_back({options_.objectives[i].name, trackers_[i].firing,
                   trackers_[i].burn_short, trackers_[i].burn_long});
  }
  return out;
}

int SloEngine::FiringCount() const {
  int firing = 0;
  for (const Tracker& tracker : trackers_) {
    if (tracker.firing) ++firing;
  }
  return firing;
}

std::string SloEngine::ToJson() const {
  std::string objectives_json;
  for (size_t i = 0; i < options_.objectives.size(); ++i) {
    if (!objectives_json.empty()) objectives_json += ",";
    objectives_json += StrFormat(
        "{\"name\":\"%s\",\"objective\":%.6f,\"firing\":%s,"
        "\"burn_short\":%.4f,\"burn_long\":%.4f}",
        JsonEscape(options_.objectives[i].name).c_str(),
        options_.objectives[i].objective,
        trackers_[i].firing ? "true" : "false", trackers_[i].burn_short,
        trackers_[i].burn_long);
  }
  std::string alerts_json;
  for (const AlertEvent& event : alert_log_) {
    if (!alerts_json.empty()) alerts_json += ",";
    alerts_json += StrFormat(
        "{\"time_micros\":%lld,\"objective\":\"%s\",\"event\":\"%s\","
        "\"burn_short\":%.4f,\"burn_long\":%.4f}",
        static_cast<long long>(event.time_micros),
        JsonEscape(event.objective).c_str(),
        event.firing ? "fire" : "resolve", event.burn_short,
        event.burn_long);
  }
  return StrFormat(
      "{\"fired_total\":%lld,\"resolved_total\":%lld,\"objectives\":[%s],"
      "\"alerts\":[%s]}",
      static_cast<long long>(fired_total_),
      static_cast<long long>(resolved_total_), objectives_json.c_str(),
      alerts_json.c_str());
}

}  // namespace sigmund::obs
