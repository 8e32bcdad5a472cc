#ifndef SIGMUND_COMMON_TRACE_H_
#define SIGMUND_COMMON_TRACE_H_

#include <stdint.h>

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"

namespace sigmund::obs {

// ---------------------------------------------------------------------------
// Dapper-style span tracing for the daily pipeline.
//
//   obs::Tracer tracer;                       // RealClock by default
//   {
//     obs::Span day = tracer.StartSpan("run_daily");
//     {
//       obs::Span train = tracer.StartSpan("train");  // child of run_daily
//       ...
//     }                                       // train ends here
//   }                                         // run_daily ends here
//   std::printf("%s", tracer.DumpTree().c_str());
//
// Parenthood is tracked per thread: a span started while another span of
// the same tracer is open on the same thread becomes its child. Work
// running on pool threads passes an explicit parent id instead
// (StartSpan(name, parent_id)).
//
// Time comes from the Clock handed to the tracer, so traces are
// deterministic under SimClock and real under RealClock. Span collection
// is thread-safe.
// ---------------------------------------------------------------------------

// One finished (or still open) span.
struct SpanRecord {
  int64_t id = 0;         // ids start at 1 and increase in start order
  int64_t parent_id = 0;  // 0 = root
  std::string name;
  int64_t start_micros = 0;
  int64_t end_micros = 0;
  // Key/value notes attached while the span was open, in attach order
  // (e.g. {"shed_reason", "queue_full"}). Duplicate keys allowed.
  std::vector<std::pair<std::string, std::string>> annotations;

  int64_t DurationMicros() const { return end_micros - start_micros; }
  // First value recorded under `key`, or "" when absent.
  std::string Annotation(const std::string& key) const;
};

class Tracer;

// RAII handle: the span ends when End() is called or the handle is
// destroyed, whichever comes first. Move-only.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  void End();

  // Attaches a key/value note to the span (no-op on a no-op span or
  // after End()).
  void Annotate(const std::string& key, const std::string& value);

  // 0 for a default-constructed (or moved-from) no-op span. Stays valid
  // after End(), like DurationMicros().
  int64_t id() const { return id_; }
  // Valid after End(): how long the span lasted.
  int64_t DurationMicros() const { return duration_micros_; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, int64_t id, bool on_stack)
      : tracer_(tracer), id_(id), on_stack_(on_stack) {}

  Tracer* tracer_ = nullptr;
  int64_t id_ = 0;
  bool on_stack_ = false;
  int64_t duration_micros_ = 0;
};

class Tracer {
 public:
  // `clock` is borrowed; nullptr = RealClock.
  explicit Tracer(const Clock* clock = nullptr);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Starts a span. With kInheritParent (default) the parent is the
  // innermost open span of this tracer on the calling thread; pass an
  // explicit parent id to attach work running on another thread, or
  // kNoParent to force a root span.
  static constexpr int64_t kInheritParent = -1;
  static constexpr int64_t kNoParent = 0;
  Span StartSpan(std::string name, int64_t parent_id = kInheritParent);

  // Innermost open span of this tracer on the calling thread (0 = none).
  int64_t CurrentSpanId() const;

  // Snapshot of every span started so far, in start order. Spans still
  // open have end_micros == start time at the moment they were started
  // ... they report end_micros = 0 until ended.
  std::vector<SpanRecord> Spans() const;

  // The subtree rooted at `root_id` (root first, then descendants in
  // start order).
  std::vector<SpanRecord> Subtree(int64_t root_id) const;

  // Indented rendering of all recorded spans; a span that has not ended
  // yet shows "open" in place of a duration:
  //   run_daily                          12345us
  //     train                             9876us
  //     inference                           open
  std::string DumpTree() const;

  // Drops all recorded spans (open spans still end cleanly; they are
  // simply no longer reported).
  void Clear();

  // Attaches a key/value note to span `id` (no-op for unknown/cleared
  // ids). Prefer Span::Annotate when a handle is in scope.
  void Annotate(int64_t id, const std::string& key, const std::string& value);

  const Clock* clock() const { return clock_; }

 private:
  friend class Span;
  // Ends the span and returns its duration in microseconds.
  int64_t EndSpan(int64_t id, bool on_stack);

  const Clock* clock_;
  mutable std::mutex mu_;
  int64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;  // index by id - id_base_
  int64_t id_base_ = 1;            // id of spans_[0] (advances on Clear)
};

// ---------------------------------------------------------------------------
// Request-scoped tracing with tail-based sampling.
//
// The pipeline Tracer above records *every* span of a run; per-request
// tracing cannot afford that at serving rates. Instead each request
// builds its own small span tree in a RequestTrace (no locks — a request
// is handled on one thread) and hands it to the RequestTracer at the
// end, which decides *then* whether to keep it: 100% of traces whose
// verdict is shed / error / deadline-overrun, plus a deterministic
// hash-sampled fraction of healthy ones. Because the keep decision is a
// pure function of (trace id, seed), tracing is seed-stable under
// SimClock and provably passive: it never touches request RNG or
// control decisions.
//
//   obs::RequestTracer tracer(options, &registry, &clock);
//   obs::RequestTrace trace = tracer.StartRequest("handle");
//   { auto id = trace.StartSpan("admission");
//     trace.Annotate(id, "outcome", "shed");
//     trace.EndSpan(id); }
//   trace.SetVerdict(obs::TraceVerdict::kShed);
//   bool kept = tracer.Submit(std::move(trace));
// ---------------------------------------------------------------------------

// Terminal classification of one request; anything but kHealthy is
// always kept by the tail sampler.
enum class TraceVerdict {
  kHealthy = 0,
  kShed = 1,
  kError = 2,
  kDeadlineOverrun = 3,
};

// "healthy" / "shed" / "error" / "deadline_overrun".
const char* TraceVerdictName(TraceVerdict verdict);

class RequestTrace;

// Lightweight propagation handle threaded through the serving stack
// (Frontend -> admission -> store lookup). Copyable; inactive (default)
// contexts make every tracing call a no-op, so callers without a tracer
// pay nothing.
struct TraceContext {
  RequestTrace* trace = nullptr;  // borrowed; owned by the request
  int64_t span_id = 0;            // parent span for spans started below

  bool active() const { return trace != nullptr; }
  // Starts a child span / annotates the context's span / records the
  // request verdict. No-ops when inactive.
  int64_t StartSpan(const std::string& name) const;
  void EndSpan(int64_t id) const;
  void Annotate(const std::string& key, const std::string& value) const;
  void SetVerdict(TraceVerdict verdict) const;
};

// Finished, kept request trace: the whole span tree plus the verdict.
struct RequestTraceRecord {
  uint64_t trace_id = 0;
  std::string name;
  TraceVerdict verdict = TraceVerdict::kHealthy;
  int64_t start_micros = 0;
  int64_t end_micros = 0;
  std::vector<SpanRecord> spans;  // root (span id 1) first, start order

  // First span (in start order) carrying `key`, value returned; "" when
  // no span has it. Spans' own Annotation() for per-span lookup.
  std::string Annotation(const std::string& key) const;
  // {"trace_id": ..., "verdict": ..., "spans": [...]}.
  std::string ToJson() const;
};

// One request's in-flight span tree. Move-only, single-threaded (a
// request is handled on one thread; no locks). Inactive (default
// constructed or moved-from) instances no-op every call, so disabled
// tracing costs one branch per call site.
class RequestTrace {
 public:
  RequestTrace() = default;
  RequestTrace(RequestTrace&&) noexcept = default;
  RequestTrace& operator=(RequestTrace&&) noexcept = default;
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  bool active() const { return record_ != nullptr; }
  uint64_t trace_id() const { return record_ ? record_->trace_id : 0; }
  // The root span every trace starts with (id 1); parent for
  // request-level annotations.
  int64_t root_span_id() const { return active() ? 1 : 0; }

  // Starts a span under `parent_id` (0 = the root span) and returns its
  // id (0 when inactive).
  int64_t StartSpan(const std::string& name, int64_t parent_id = 0);
  void EndSpan(int64_t id);
  void Annotate(int64_t id, const std::string& key, const std::string& value);

  // Worst-verdict-wins: upgrades kHealthy -> anything; a shed verdict is
  // never downgraded back to healthy by a later fallback success.
  void SetVerdict(TraceVerdict verdict);
  TraceVerdict verdict() const {
    return record_ ? record_->verdict : TraceVerdict::kHealthy;
  }

  // Context rooted at `span_id` (0 = root span) for handing downstream.
  TraceContext Context(int64_t span_id = 0);

 private:
  friend class RequestTracer;
  RequestTrace(uint64_t trace_id, std::string name, const Clock* clock);

  const Clock* clock_ = nullptr;
  std::unique_ptr<RequestTraceRecord> record_;
};

// Hands out per-request traces and applies the tail-based keep policy
// on Submit. Thread-safe; kept traces live in a bounded ring buffer.
class RequestTracer {
 public:
  struct Options {
    // Fraction of *healthy* traces kept, decided by a deterministic
    // hash of (trace id, seed). Shed / error / deadline-overrun traces
    // are always kept. 0 disables healthy sampling; 1 keeps everything.
    double sample_rate = 0.01;
    // Ring-buffer bound on kept traces (oldest evicted first).
    int max_kept_traces = 4096;
    // Seed for the healthy-sampling hash; same seed => same decisions.
    uint64_t seed = 0;
  };

  // `metrics` (borrowed) is required: trace_requests_total and
  // trace_kept_total land in it. `clock` is borrowed; nullptr = RealClock.
  RequestTracer(const Options& options, MetricRegistry* metrics,
                const Clock* clock = nullptr);
  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

  // Starts a new trace (sequential trace ids from 1).
  RequestTrace StartRequest(const std::string& name);

  // Ends the trace's root span, applies the keep policy, and (when kept)
  // stores the record. Returns whether the trace was kept. Inactive
  // traces return false.
  bool Submit(RequestTrace trace);

  // Pure keep decision for a healthy trace with this id (what Submit
  // would do); exposed so tests can pre-compute sampling.
  bool WouldKeepHealthy(uint64_t trace_id) const;

  std::vector<RequestTraceRecord> KeptTraces() const;
  bool HasTrace(uint64_t trace_id) const;
  int64_t KeptCount() const;

  const Options& options() const { return options_; }

 private:
  Options options_;
  MetricRegistry* metrics_;
  const Clock* clock_;
  uint64_t sample_threshold_ = 0;  // healthy kept iff hash < threshold

  mutable std::mutex mu_;
  uint64_t next_trace_id_ = 1;
  std::vector<RequestTraceRecord> kept_;  // ring buffer
  size_t kept_head_ = 0;                  // index of oldest entry
};

// ---------------------------------------------------------------------------
// RunProfile: the machine-readable record of one pipeline run — the span
// tree under one root plus a metrics snapshot — written next to the daily
// report so every day leaves a comparable profile trail.
// ---------------------------------------------------------------------------

struct RunProfile {
  std::string name;           // e.g. "day_3"
  int64_t total_micros = 0;   // duration of the root span
  std::vector<SpanRecord> spans;  // root first
  // Per-stage wall time, in stage order (e.g. {"training", 1234}).
  std::vector<std::pair<std::string, int64_t>> stages;
  // SLO engine state as JSON ("{}" when no engine is wired in).
  std::string slo_json;
  // Data-plane sentry verdicts as JSON ("{}" when the sentry is off;
  // see DESIGN.md §12).
  std::string dataqual_json;
  RegistrySnapshot metrics;

  // {"name": ..., "total_micros": ..., "spans": [...], "stages": {...},
  //  "overload": {...}, "slo": {...}, "dataqual": {...}, "metrics": {...}}
  // Span durations nest: every span's duration is <= its parent's, and
  // the root's equals total_micros. The overload section summarises the
  // serving plane's shed/brownout/hedge/retry-budget counters from the
  // metrics snapshot.
  std::string ToJson() const;
};

// Builds the profile for the run whose root span is `root_id`.
RunProfile BuildRunProfile(std::string name, const Tracer& tracer,
                           int64_t root_id, RegistrySnapshot metrics);

}  // namespace sigmund::obs

#endif  // SIGMUND_COMMON_TRACE_H_
