#ifndef SIGMUND_COMMON_METRICS_H_
#define SIGMUND_COMMON_METRICS_H_

#include <stdint.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sigmund::obs {

// ---------------------------------------------------------------------------
// sigmund::obs — process-wide metrics (see also trace.h for span tracing).
//
// A MetricRegistry hands out named, labelable instruments:
//
//   obs::MetricRegistry registry;
//   obs::Counter* retries =
//       registry.GetCounter("sfs_retries_total", {{"op", "read"}});
//   retries->Add(1);
//
//   obs::Histogram* latency = registry.GetHistogram("sfs_op_micros");
//   latency->Observe(elapsed_micros);
//   double p99 = latency->Quantile(0.99);
//
// Instruments are owned by the registry, live as long as it does, and are
// safe to update concurrently from any thread without holding registry
// locks (updates are lock-free atomics). Lookup (GetCounter/...) takes a
// mutex; cache the returned pointer on hot paths.
//
// Naming conventions (see DESIGN.md "Observability"):
//   <domain>_<what>[_<unit>]   e.g. sfs_op_micros, training_preemptions_total
//   counters end in _total; durations are histograms in _micros.
// ---------------------------------------------------------------------------

// Sorted (key, value) pairs identifying one instrument of a family.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing event count. Thread-safe, lock-free.
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-written instantaneous value. Thread-safe, lock-free.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Exponential bucket layout: bucket i spans (bound[i-1], bound[i]] with
// bound[i] = smallest_bucket * growth^i, plus a final +Inf bucket.
struct HistogramOptions {
  double smallest_bucket = 1.0;  // upper bound of the first bucket
  double growth = 2.0;           // ratio between consecutive bounds
  int num_buckets = 32;          // finite buckets (an +Inf bucket is added)
};

// Distribution of observed values (typically latencies in microseconds).
// Observe() is thread-safe and lock-free; quantiles are estimated by
// linear interpolation inside the bucket containing the target rank.
//
// Exemplars: each bucket can retain the id of the last *kept* trace whose
// observation landed in it (OpenMetrics-style), so the exposition's p99
// bucket links straight to a request trace. AttachExemplar is called only
// for traces the tail sampler decided to keep — every exemplar resolves.
class Histogram {
 public:
  explicit Histogram(const HistogramOptions& options);

  void Observe(double value);

  // Records `trace_id` as the exemplar of the bucket containing `value`
  // (last writer wins). Does not count as an observation — call Observe
  // separately. trace_id 0 is ignored (reserved for "no exemplar").
  void AttachExemplar(double value, uint64_t trace_id);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Min() const;  // +inf when empty
  double Max() const;  // -inf when empty

  // Estimated value at quantile q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

  // Upper bounds of the finite buckets (the +Inf bucket is implicit at the
  // back of BucketCounts()).
  const std::vector<double>& BucketBounds() const { return bounds_; }
  std::vector<int64_t> BucketCounts() const;
  // Per-bucket exemplar trace ids (0 = none) and the values they came in
  // with; same length as BucketCounts().
  std::vector<uint64_t> ExemplarIds() const;
  std::vector<double> ExemplarValues() const;

  void Reset();

 private:
  std::vector<double> bounds_;                         // ascending
  std::vector<std::atomic<int64_t>> buckets_;          // bounds_.size() + 1
  std::vector<std::atomic<uint64_t>> exemplar_ids_;    // 0 = no exemplar
  std::vector<std::atomic<double>> exemplar_values_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

// Point-in-time copy of one histogram (value type; no atomics).
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<int64_t> buckets;  // bounds.size() + 1 (last = +Inf bucket)
  std::vector<uint64_t> exemplar_ids;  // per bucket; 0 = none
  std::vector<double> exemplar_values;
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  double Quantile(double q) const;

  // Trace id exemplifying the bucket that contains quantile q: that
  // bucket's own exemplar when set, else the nearest bucket's (lower
  // buckets preferred). 0 = no exemplar anywhere in the histogram.
  uint64_t ExemplarForQuantile(double q) const;
};

enum class MetricKind { kCounter = 0, kGauge = 1, kHistogram = 2 };

// Point-in-time copy of one instrument.
struct MetricSnapshot {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  int64_t counter = 0;
  double gauge = 0.0;
  HistogramSnapshot histogram;
};

// Point-in-time copy of a whole registry. Value semantics: later updates
// to the registry do not affect an already-taken snapshot.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;  // sorted by (name, labels)

  // Counter value summed over every label combination of `name` that
  // carries all of `labels` (empty = every combination). 0 when absent.
  int64_t CounterValue(std::string_view name, const Labels& labels = {}) const;
  double GaugeValue(std::string_view name, const Labels& labels = {}) const;
  // First histogram matching name+labels, or nullptr.
  const HistogramSnapshot* FindHistogram(std::string_view name,
                                         const Labels& labels = {}) const;

  // Prometheus-style text exposition.
  std::string ToText() const;
  // One JSON object: {"counters": {...}, "gauges": {...}, "histograms": ...}.
  std::string ToJson() const;
  // Human-oriented digest: one line per histogram with count/p50/p95/p99,
  // one per non-zero counter. What the examples print after a run.
  std::string SummaryText() const;
};

// Thread-safe owner of named instruments.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Process-wide default registry (leaked singleton). Library code that
  // is not handed an explicit registry may record here.
  static MetricRegistry* Default();

  // Get-or-create. The same (name, labels) always returns the same
  // instrument; a name must keep one kind (getting an existing name with
  // a different kind aborts — it is a programming error). Likewise, every
  // GetHistogram call for an existing (name, labels) must request the
  // same bucket layout as the call that created it.
  Counter* GetCounter(std::string_view name, const Labels& labels = {});
  Gauge* GetGauge(std::string_view name, const Labels& labels = {});
  Histogram* GetHistogram(std::string_view name, const Labels& labels = {},
                          const HistogramOptions& options = {});

  RegistrySnapshot Snapshot() const;

  // Zeroes every instrument; registrations (and handed-out pointers)
  // stay valid.
  void Reset();

  std::string TextExposition() const { return Snapshot().ToText(); }
  std::string JsonExposition() const { return Snapshot().ToJson(); }

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(std::string_view name, const Labels& labels,
                      MetricKind kind);

  mutable std::mutex mu_;
  // Key: name + rendered labels. std::map keeps exposition sorted.
  std::map<std::string, Entry> entries_;
};

// Renders labels as {k="v",...} (empty string for no labels).
std::string RenderLabels(const Labels& labels);

// Escapes a string for embedding inside a JSON string literal (quotes,
// backslashes, and all control characters). Shared by every hand-rolled
// JSON emitter in obs so span names / label values can never produce
// invalid JSON.
std::string JsonEscape(const std::string& value);

// Returns `registry`, aborting with "<owner> requires a metrics registry"
// when it is null. Every class that counts takes its registry as a
// required constructor argument (DESIGN.md §5); this is their one check.
MetricRegistry* RequireRegistry(MetricRegistry* registry, const char* owner);

}  // namespace sigmund::obs

#endif  // SIGMUND_COMMON_METRICS_H_
