#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"

namespace sigmund::obs {

namespace {

// Relaxed atomic min/max via CAS loop (observations race benignly).
void AtomicMin(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

// Escapes a label value for the Prometheus text exposition. The format
// defines exactly three escapes inside a quoted label value — backslash,
// double quote, and line feed — and a raw carriage return would also
// split the sample line, so it is folded into the \n escape.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
      case '\r':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

// Renders a double without trailing noise ("12", "0.5", "1.25e+10").
std::string RenderNumber(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(value));
  }
  return StrFormat("%g", value);
}

// Bucket bounds implied by `options` — shared by the Histogram
// constructor and the GetHistogram layout-consistency check.
std::vector<double> BoundsFromOptions(const HistogramOptions& options) {
  const int n = std::max(1, options.num_buckets);
  const double growth = options.growth > 1.0 ? options.growth : 2.0;
  double bound = options.smallest_bucket > 0 ? options.smallest_bucket : 1.0;
  std::vector<double> bounds;
  bounds.reserve(n);
  for (int i = 0; i < n; ++i) {
    bounds.push_back(bound);
    bound *= growth;
  }
  return bounds;
}

// Estimates the value at rank `target` (1-based) from bucket counts by
// linear interpolation inside the containing bucket.
double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<int64_t>& buckets, int64_t count,
                           double min_seen, double max_seen, double q) {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const int64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative) + static_cast<double>(in_bucket) >=
        target) {
      // Bucket bounds, clamped to the actually observed range so tiny
      // samples do not report values outside [min, max].
      double lo = i == 0 ? min_seen : bounds[i - 1];
      double hi = i < bounds.size() ? bounds[i] : max_seen;
      lo = std::max(lo, min_seen);
      hi = std::min(hi, max_seen);
      if (hi < lo) return hi;
      const double into =
          (target - static_cast<double>(cumulative)) / in_bucket;
      return lo + (hi - lo) * std::clamp(into, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return max_seen;
}

}  // namespace

std::string JsonEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += labels[i].first;
    out += "=\"";
    out += EscapeLabelValue(labels[i].second);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(const HistogramOptions& options)
    : bounds_(BoundsFromOptions(options)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  buckets_ = std::vector<std::atomic<int64_t>>(bounds_.size() + 1);
  exemplar_ids_ = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
  exemplar_values_ = std::vector<std::atomic<double>>(bounds_.size() + 1);
  // Not every standard library value-initializes atomics (pre-P0883
  // behavior); zero them explicitly so "no exemplar yet" reads as 0.
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  for (auto& id : exemplar_ids_) id.store(0, std::memory_order_relaxed);
  for (auto& v : exemplar_values_) v.store(0.0, std::memory_order_relaxed);
}

void Histogram::Observe(double value) {
  // Upper-bound binary search: first bound >= value.
  const size_t index =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

void Histogram::AttachExemplar(double value, uint64_t trace_id) {
  if (trace_id == 0) return;
  const size_t index =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  // Last writer wins; the id and value race benignly (an exemplar is a
  // sample, not an invariant).
  exemplar_ids_[index].store(trace_id, std::memory_order_relaxed);
  exemplar_values_[index].store(value, std::memory_order_relaxed);
}

double Histogram::Min() const { return min_.load(std::memory_order_relaxed); }
double Histogram::Max() const { return max_.load(std::memory_order_relaxed); }

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> counts(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::vector<uint64_t> Histogram::ExemplarIds() const {
  std::vector<uint64_t> ids(exemplar_ids_.size());
  for (size_t i = 0; i < exemplar_ids_.size(); ++i) {
    ids[i] = exemplar_ids_[i].load(std::memory_order_relaxed);
  }
  return ids;
}

std::vector<double> Histogram::ExemplarValues() const {
  std::vector<double> values(exemplar_values_.size());
  for (size_t i = 0; i < exemplar_values_.size(); ++i) {
    values[i] = exemplar_values_[i].load(std::memory_order_relaxed);
  }
  return values;
}

double Histogram::Quantile(double q) const {
  return QuantileFromBuckets(bounds_, BucketCounts(), Count(), Min(), Max(),
                             q);
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  for (auto& id : exemplar_ids_) id.store(0, std::memory_order_relaxed);
  for (auto& v : exemplar_values_) v.store(0.0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

double HistogramSnapshot::Quantile(double q) const {
  return QuantileFromBuckets(bounds, buckets, count, min, max, q);
}

uint64_t HistogramSnapshot::ExemplarForQuantile(double q) const {
  if (count <= 0 || exemplar_ids.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Bucket containing the target rank.
  const double target = q * static_cast<double>(count);
  int64_t cumulative = 0;
  size_t index = buckets.size() - 1;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target && buckets[i] > 0) {
      index = i;
      break;
    }
  }
  if (exemplar_ids[index] != 0) return exemplar_ids[index];
  // Nearest exemplar-carrying bucket, lower buckets preferred (they hold
  // observations the quantile actually dominates).
  for (size_t step = 1; step < exemplar_ids.size(); ++step) {
    if (index >= step && exemplar_ids[index - step] != 0) {
      return exemplar_ids[index - step];
    }
    if (index + step < exemplar_ids.size() &&
        exemplar_ids[index + step] != 0) {
      return exemplar_ids[index + step];
    }
  }
  return 0;
}

// --- MetricRegistry --------------------------------------------------------

MetricRegistry* MetricRegistry::Default() {
  static MetricRegistry* registry = new MetricRegistry;
  return registry;
}

MetricRegistry::Entry* MetricRegistry::FindOrCreate(std::string_view name,
                                                    const Labels& labels,
                                                    MetricKind kind) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key(name);
  key += RenderLabels(sorted);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    SIGCHECK(it->second.kind == kind)
        << "metric " << key << " re-registered with a different kind";
    return &it->second;
  }
  Entry entry;
  entry.name = std::string(name);
  entry.labels = std::move(sorted);
  entry.kind = kind;
  return &entries_.emplace(std::move(key), std::move(entry)).first->second;
}

Counter* MetricRegistry::GetCounter(std::string_view name,
                                    const Labels& labels) {
  Entry* entry = FindOrCreate(name, labels, MetricKind::kCounter);
  std::lock_guard<std::mutex> lock(mu_);
  if (entry->counter == nullptr) entry->counter = std::make_unique<Counter>();
  return entry->counter.get();
}

Gauge* MetricRegistry::GetGauge(std::string_view name, const Labels& labels) {
  Entry* entry = FindOrCreate(name, labels, MetricKind::kGauge);
  std::lock_guard<std::mutex> lock(mu_);
  if (entry->gauge == nullptr) entry->gauge = std::make_unique<Gauge>();
  return entry->gauge.get();
}

Histogram* MetricRegistry::GetHistogram(std::string_view name,
                                        const Labels& labels,
                                        const HistogramOptions& options) {
  Entry* entry = FindOrCreate(name, labels, MetricKind::kHistogram);
  std::lock_guard<std::mutex> lock(mu_);
  if (entry->histogram == nullptr) {
    entry->histogram = std::make_unique<Histogram>(options);
  } else {
    // Same guarantee as the kind check in FindOrCreate: two call sites
    // must not silently share a histogram while asking for different
    // bucket layouts.
    SIGCHECK(entry->histogram->BucketBounds() == BoundsFromOptions(options))
        << "histogram " << entry->name << RenderLabels(entry->labels)
        << " re-requested with a different bucket layout";
  }
  return entry->histogram.get();
}

RegistrySnapshot MetricRegistry::Snapshot() const {
  RegistrySnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.metrics.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSnapshot m;
    m.name = entry.name;
    m.labels = entry.labels;
    m.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        m.counter = entry.counter != nullptr ? entry.counter->Value() : 0;
        break;
      case MetricKind::kGauge:
        m.gauge = entry.gauge != nullptr ? entry.gauge->Value() : 0.0;
        break;
      case MetricKind::kHistogram:
        if (entry.histogram != nullptr) {
          m.histogram.bounds = entry.histogram->BucketBounds();
          m.histogram.buckets = entry.histogram->BucketCounts();
          m.histogram.exemplar_ids = entry.histogram->ExemplarIds();
          m.histogram.exemplar_values = entry.histogram->ExemplarValues();
          m.histogram.count = entry.histogram->Count();
          m.histogram.sum = entry.histogram->Sum();
          m.histogram.min = entry.histogram->Min();
          m.histogram.max = entry.histogram->Max();
        }
        break;
    }
    snapshot.metrics.push_back(std::move(m));
  }
  return snapshot;
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Reset();
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
}

// --- RegistrySnapshot ------------------------------------------------------

namespace {

// True when `labels` contains every pair of `want`.
bool LabelsMatch(const Labels& labels, const Labels& want) {
  for (const auto& pair : want) {
    if (std::find(labels.begin(), labels.end(), pair) == labels.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

int64_t RegistrySnapshot::CounterValue(std::string_view name,
                                       const Labels& labels) const {
  int64_t total = 0;
  for (const MetricSnapshot& m : metrics) {
    if (m.kind == MetricKind::kCounter && m.name == name &&
        LabelsMatch(m.labels, labels)) {
      total += m.counter;
    }
  }
  return total;
}

double RegistrySnapshot::GaugeValue(std::string_view name,
                                    const Labels& labels) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.kind == MetricKind::kGauge && m.name == name &&
        LabelsMatch(m.labels, labels)) {
      return m.gauge;
    }
  }
  return 0.0;
}

const HistogramSnapshot* RegistrySnapshot::FindHistogram(
    std::string_view name, const Labels& labels) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.kind == MetricKind::kHistogram && m.name == name &&
        LabelsMatch(m.labels, labels)) {
      return &m.histogram;
    }
  }
  return nullptr;
}

std::string RegistrySnapshot::ToText() const {
  std::string out;
  std::string last_name;
  for (const MetricSnapshot& m : metrics) {
    if (m.name != last_name) {
      const char* type = m.kind == MetricKind::kCounter   ? "counter"
                         : m.kind == MetricKind::kGauge   ? "gauge"
                                                          : "histogram";
      out += StrFormat("# TYPE %s %s\n", m.name.c_str(), type);
      last_name = m.name;
    }
    const std::string labels = RenderLabels(m.labels);
    switch (m.kind) {
      case MetricKind::kCounter:
        out += StrFormat("%s%s %lld\n", m.name.c_str(), labels.c_str(),
                         static_cast<long long>(m.counter));
        break;
      case MetricKind::kGauge:
        out += StrFormat("%s%s %s\n", m.name.c_str(), labels.c_str(),
                         RenderNumber(m.gauge).c_str());
        break;
      case MetricKind::kHistogram: {
        int64_t cumulative = 0;
        for (size_t i = 0; i < m.histogram.buckets.size(); ++i) {
          cumulative += m.histogram.buckets[i];
          Labels with_le = m.labels;
          with_le.emplace_back(
              "le", i < m.histogram.bounds.size()
                        ? RenderNumber(m.histogram.bounds[i])
                        : "+Inf");
          out += StrFormat("%s_bucket%s %lld", m.name.c_str(),
                           RenderLabels(with_le).c_str(),
                           static_cast<long long>(cumulative));
          // OpenMetrics-style exemplar: the last kept trace observed in
          // this bucket, so a hot bucket links straight to a trace.
          if (i < m.histogram.exemplar_ids.size() &&
              m.histogram.exemplar_ids[i] != 0) {
            out += StrFormat(
                " # {trace_id=\"%llu\"} %s",
                static_cast<unsigned long long>(m.histogram.exemplar_ids[i]),
                RenderNumber(m.histogram.exemplar_values[i]).c_str());
          }
          out += "\n";
        }
        out += StrFormat("%s_sum%s %s\n", m.name.c_str(), labels.c_str(),
                         RenderNumber(m.histogram.sum).c_str());
        out += StrFormat("%s_count%s %lld\n", m.name.c_str(), labels.c_str(),
                         static_cast<long long>(m.histogram.count));
        break;
      }
    }
  }
  return out;
}

std::string RegistrySnapshot::ToJson() const {
  std::string counters, gauges, histograms;
  for (const MetricSnapshot& m : metrics) {
    const std::string key =
        JsonEscape(m.name + RenderLabels(m.labels));
    switch (m.kind) {
      case MetricKind::kCounter:
        if (!counters.empty()) counters += ",";
        counters += StrFormat("\"%s\":%lld", key.c_str(),
                              static_cast<long long>(m.counter));
        break;
      case MetricKind::kGauge:
        if (!gauges.empty()) gauges += ",";
        gauges += StrFormat("\"%s\":%s", key.c_str(),
                            RenderNumber(m.gauge).c_str());
        break;
      case MetricKind::kHistogram: {
        if (!histograms.empty()) histograms += ",";
        histograms += StrFormat(
            "\"%s\":{\"count\":%lld,\"sum\":%s,\"min\":%s,\"max\":%s,"
            "\"p50\":%s,\"p95\":%s,\"p99\":%s",
            key.c_str(), static_cast<long long>(m.histogram.count),
            RenderNumber(m.histogram.count > 0 ? m.histogram.sum : 0)
                .c_str(),
            RenderNumber(m.histogram.count > 0 ? m.histogram.min : 0)
                .c_str(),
            RenderNumber(m.histogram.count > 0 ? m.histogram.max : 0)
                .c_str(),
            RenderNumber(m.histogram.Quantile(0.5)).c_str(),
            RenderNumber(m.histogram.Quantile(0.95)).c_str(),
            RenderNumber(m.histogram.Quantile(0.99)).c_str());
        const uint64_t exemplar = m.histogram.ExemplarForQuantile(0.99);
        if (exemplar != 0) {
          histograms +=
              StrFormat(",\"p99_exemplar\":\"%llu\"",
                        static_cast<unsigned long long>(exemplar));
        }
        histograms += "}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}";
}

std::string RegistrySnapshot::SummaryText() const {
  std::string out;
  for (const MetricSnapshot& m : metrics) {
    const std::string id = m.name + RenderLabels(m.labels);
    switch (m.kind) {
      case MetricKind::kCounter:
        if (m.counter != 0) {
          out += StrFormat("  %-58s %lld\n", id.c_str(),
                           static_cast<long long>(m.counter));
        }
        break;
      case MetricKind::kGauge:
        if (m.gauge != 0.0) {
          out += StrFormat("  %-58s %s\n", id.c_str(),
                           RenderNumber(m.gauge).c_str());
        }
        break;
      case MetricKind::kHistogram:
        if (m.histogram.count > 0) {
          out += StrFormat(
              "  %-58s n=%lld p50=%s p95=%s p99=%s max=%s\n", id.c_str(),
              static_cast<long long>(m.histogram.count),
              RenderNumber(m.histogram.Quantile(0.5)).c_str(),
              RenderNumber(m.histogram.Quantile(0.95)).c_str(),
              RenderNumber(m.histogram.Quantile(0.99)).c_str(),
              RenderNumber(m.histogram.max).c_str());
        }
        break;
    }
  }
  return out;
}

MetricRegistry* RequireRegistry(MetricRegistry* registry, const char* owner) {
  SIGCHECK(registry != nullptr) << owner << " requires a metrics registry";
  return registry;
}

}  // namespace sigmund::obs
