#include "common/trace.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"

namespace sigmund::obs {

namespace {

// Per-thread stack of open spans, shared across tracers (each entry
// remembers which tracer it belongs to). Thread-local so parenthood needs
// no locks and never crosses threads by accident.
thread_local std::vector<std::pair<const Tracer*, int64_t>> tls_open_spans;

}  // namespace

// --- SpanRecord ------------------------------------------------------------

std::string SpanRecord::Annotation(const std::string& key) const {
  for (const auto& [k, v] : annotations) {
    if (k == key) return v;
  }
  return "";
}

// --- Span ------------------------------------------------------------------

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    id_ = other.id_;
    on_stack_ = other.on_stack_;
    duration_micros_ = other.duration_micros_;
    other.tracer_ = nullptr;
    other.id_ = 0;
    other.on_stack_ = false;
  }
  return *this;
}

void Span::End() {
  if (tracer_ == nullptr) return;
  duration_micros_ = tracer_->EndSpan(id_, on_stack_);
  // id_ is kept: like DurationMicros(), it stays readable after End() so
  // callers can still key Subtree()/BuildRunProfile on the ended span.
  tracer_ = nullptr;
}

void Span::Annotate(const std::string& key, const std::string& value) {
  if (tracer_ == nullptr) return;
  tracer_->Annotate(id_, key, value);
}

// --- Tracer ----------------------------------------------------------------

Tracer::Tracer(const Clock* clock)
    : clock_(clock != nullptr ? clock : RealClock::Get()) {}

Span Tracer::StartSpan(std::string name, int64_t parent_id) {
  if (parent_id == kInheritParent) parent_id = CurrentSpanId();
  const int64_t now = clock_->NowMicros();
  SpanRecord record;
  record.parent_id = parent_id;
  record.name = std::move(name);
  record.start_micros = now;
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    record.id = id;
    spans_.push_back(std::move(record));
  }
  tls_open_spans.emplace_back(this, id);
  return Span(this, id, /*on_stack=*/true);
}

int64_t Tracer::CurrentSpanId() const {
  for (auto it = tls_open_spans.rbegin(); it != tls_open_spans.rend(); ++it) {
    if (it->first == this) return it->second;
  }
  return 0;
}

int64_t Tracer::EndSpan(int64_t id, bool on_stack) {
  const int64_t now = clock_->NowMicros();
  int64_t duration = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t index = id - id_base_;
    if (index >= 0 && index < static_cast<int64_t>(spans_.size())) {
      spans_[index].end_micros = now;
      duration = spans_[index].DurationMicros();
    }
  }
  if (on_stack) {
    // Normally the innermost entry; a span ended out of order is removed
    // from wherever it sits.
    for (auto it = tls_open_spans.rbegin(); it != tls_open_spans.rend();
         ++it) {
      if (it->first == this && it->second == id) {
        tls_open_spans.erase(std::next(it).base());
        break;
      }
    }
  }
  return duration;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<SpanRecord> Tracer::Subtree(int64_t root_id) const {
  std::vector<SpanRecord> all = Spans();
  std::vector<SpanRecord> out;
  std::vector<int64_t> frontier = {root_id};
  // Spans are in start order and children always start after parents, so
  // one forward pass collects the whole subtree.
  for (const SpanRecord& span : all) {
    const bool is_root = span.id == root_id;
    const bool child = std::find(frontier.begin(), frontier.end(),
                                 span.parent_id) != frontier.end();
    if (is_root || child) {
      if (!is_root) frontier.push_back(span.id);
      out.push_back(span);
    }
  }
  return out;
}

std::string Tracer::DumpTree() const {
  const std::vector<SpanRecord> all = Spans();
  std::map<int64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : all) {
    children[span.parent_id].push_back(&span);
  }
  std::string out;
  // Recursive lambda over the forest in start order.
  auto render = [&](auto&& self, int64_t parent, int depth) -> void {
    auto it = children.find(parent);
    if (it == children.end()) return;
    for (const SpanRecord* span : it->second) {
      if (span->end_micros == 0) {
        // Still open: no end time yet, so render a marker instead of a
        // (negative) duration.
        out += StrFormat("%*s%-*s %12s\n", depth * 2, "", 40 - depth * 2,
                         span->name.c_str(), "open");
      } else {
        out += StrFormat("%*s%-*s %10lldus\n", depth * 2, "",
                         40 - depth * 2, span->name.c_str(),
                         static_cast<long long>(span->DurationMicros()));
      }
      self(self, span->id, depth + 1);
    }
  };
  render(render, 0, 0);
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  id_base_ = next_id_;
  spans_.clear();
}

void Tracer::Annotate(int64_t id, const std::string& key,
                      const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t index = id - id_base_;
  if (index >= 0 && index < static_cast<int64_t>(spans_.size())) {
    spans_[index].annotations.emplace_back(key, value);
  }
}

// --- Request-scoped tracing ------------------------------------------------

const char* TraceVerdictName(TraceVerdict verdict) {
  switch (verdict) {
    case TraceVerdict::kHealthy:
      return "healthy";
    case TraceVerdict::kShed:
      return "shed";
    case TraceVerdict::kError:
      return "error";
    case TraceVerdict::kDeadlineOverrun:
      return "deadline_overrun";
  }
  return "unknown";
}

int64_t TraceContext::StartSpan(const std::string& name) const {
  if (trace == nullptr) return 0;
  return trace->StartSpan(name, span_id);
}

void TraceContext::EndSpan(int64_t id) const {
  if (trace != nullptr) trace->EndSpan(id);
}

void TraceContext::Annotate(const std::string& key,
                            const std::string& value) const {
  if (trace != nullptr) trace->Annotate(span_id, key, value);
}

void TraceContext::SetVerdict(TraceVerdict verdict) const {
  if (trace != nullptr) trace->SetVerdict(verdict);
}

std::string RequestTraceRecord::Annotation(const std::string& key) const {
  for (const SpanRecord& span : spans) {
    for (const auto& [k, v] : span.annotations) {
      if (k == key) return v;
    }
  }
  return "";
}

std::string RequestTraceRecord::ToJson() const {
  std::string spans_json;
  for (const SpanRecord& span : spans) {
    if (!spans_json.empty()) spans_json += ",";
    std::string annotations_json;
    for (const auto& [k, v] : span.annotations) {
      if (!annotations_json.empty()) annotations_json += ",";
      annotations_json += StrFormat("\"%s\":\"%s\"", JsonEscape(k).c_str(),
                                    JsonEscape(v).c_str());
    }
    spans_json += StrFormat(
        "{\"id\":%lld,\"parent_id\":%lld,\"name\":\"%s\","
        "\"start_micros\":%lld,\"duration_micros\":%lld",
        static_cast<long long>(span.id),
        static_cast<long long>(span.parent_id),
        JsonEscape(span.name).c_str(),
        static_cast<long long>(span.start_micros),
        static_cast<long long>(span.DurationMicros()));
    if (!annotations_json.empty()) {
      spans_json += StrFormat(",\"annotations\":{%s}",
                              annotations_json.c_str());
    }
    spans_json += "}";
  }
  return StrFormat(
      "{\"trace_id\":%llu,\"name\":\"%s\",\"verdict\":\"%s\","
      "\"start_micros\":%lld,\"duration_micros\":%lld,\"spans\":[%s]}",
      static_cast<unsigned long long>(trace_id), JsonEscape(name).c_str(),
      TraceVerdictName(verdict), static_cast<long long>(start_micros),
      static_cast<long long>(end_micros - start_micros), spans_json.c_str());
}

RequestTrace::RequestTrace(uint64_t trace_id, std::string name,
                           const Clock* clock)
    : clock_(clock), record_(std::make_unique<RequestTraceRecord>()) {
  record_->trace_id = trace_id;
  record_->name = name;
  record_->start_micros = clock_->NowMicros();
  SpanRecord root;
  root.id = 1;
  root.parent_id = 0;
  root.name = std::move(name);
  root.start_micros = record_->start_micros;
  record_->spans.push_back(std::move(root));
}

int64_t RequestTrace::StartSpan(const std::string& name, int64_t parent_id) {
  if (!active()) return 0;
  SpanRecord span;
  span.id = static_cast<int64_t>(record_->spans.size()) + 1;
  span.parent_id = parent_id == 0 ? root_span_id() : parent_id;
  span.name = name;
  span.start_micros = clock_->NowMicros();
  record_->spans.push_back(std::move(span));
  return record_->spans.back().id;
}

void RequestTrace::EndSpan(int64_t id) {
  if (!active()) return;
  const int64_t index = id - 1;
  if (index < 0 || index >= static_cast<int64_t>(record_->spans.size())) {
    return;
  }
  record_->spans[index].end_micros = clock_->NowMicros();
}

void RequestTrace::Annotate(int64_t id, const std::string& key,
                            const std::string& value) {
  if (!active()) return;
  if (id == 0) id = root_span_id();
  const int64_t index = id - 1;
  if (index < 0 || index >= static_cast<int64_t>(record_->spans.size())) {
    return;
  }
  record_->spans[index].annotations.emplace_back(key, value);
}

void RequestTrace::SetVerdict(TraceVerdict verdict) {
  if (!active()) return;
  // Worst-verdict-wins: never downgrade back to healthy.
  if (verdict == TraceVerdict::kHealthy &&
      record_->verdict != TraceVerdict::kHealthy) {
    return;
  }
  record_->verdict = verdict;
}

TraceContext RequestTrace::Context(int64_t span_id) {
  TraceContext context;
  if (active()) {
    context.trace = this;
    context.span_id = span_id == 0 ? root_span_id() : span_id;
  }
  return context;
}

RequestTracer::RequestTracer(const Options& options, MetricRegistry* metrics,
                             const Clock* clock)
    : options_(options),
      metrics_(RequireRegistry(metrics, "RequestTracer")),
      clock_(clock != nullptr ? clock : RealClock::Get()) {
  double rate = options_.sample_rate;
  if (rate < 0.0) rate = 0.0;
  if (rate > 1.0) rate = 1.0;
  // hash < threshold keeps; threshold = rate scaled to the u64 range.
  if (rate >= 1.0) {
    sample_threshold_ = ~0ULL;
  } else {
    sample_threshold_ = static_cast<uint64_t>(
        rate * 18446744073709551616.0 /* 2^64 */);
  }
}

RequestTrace RequestTracer::StartRequest(const std::string& name) {
  uint64_t trace_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    trace_id = next_trace_id_++;
  }
  return RequestTrace(trace_id, name, clock_);
}

bool RequestTracer::WouldKeepHealthy(uint64_t trace_id) const {
  if (sample_threshold_ == ~0ULL) return true;
  // Mix64 is the healthy-sampling hash: a pure function of the input, so
  // keep decisions are reproducible across runs and platforms.
  return Mix64(trace_id ^ options_.seed) < sample_threshold_;
}

bool RequestTracer::Submit(RequestTrace trace) {
  if (!trace.active()) return false;
  RequestTraceRecord record = std::move(*trace.record_);
  trace.record_.reset();
  record.end_micros = clock_->NowMicros();
  // Close the root span (and any spans left open) at submit time.
  for (SpanRecord& span : record.spans) {
    if (span.end_micros == 0) span.end_micros = record.end_micros;
  }
  const bool keep = record.verdict != TraceVerdict::kHealthy ||
                    WouldKeepHealthy(record.trace_id);
  const Labels labels = {{"verdict", TraceVerdictName(record.verdict)}};
  metrics_->GetCounter("trace_requests_total", labels)->Add(1);
  if (keep) metrics_->GetCounter("trace_kept_total", labels)->Add(1);
  if (!keep) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const size_t capacity =
      options_.max_kept_traces > 0
          ? static_cast<size_t>(options_.max_kept_traces)
          : 1;
  if (kept_.size() < capacity) {
    kept_.push_back(std::move(record));
  } else {
    // Ring buffer: overwrite the oldest entry.
    kept_[kept_head_] = std::move(record);
    kept_head_ = (kept_head_ + 1) % capacity;
  }
  return true;
}

std::vector<RequestTraceRecord> RequestTracer::KeptTraces() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RequestTraceRecord> out;
  out.reserve(kept_.size());
  // Oldest first.
  for (size_t i = 0; i < kept_.size(); ++i) {
    out.push_back(kept_[(kept_head_ + i) % kept_.size()]);
  }
  return out;
}

bool RequestTracer::HasTrace(uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RequestTraceRecord& record : kept_) {
    if (record.trace_id == trace_id) return true;
  }
  return false;
}

int64_t RequestTracer::KeptCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(kept_.size());
}

// --- RunProfile ------------------------------------------------------------

RunProfile BuildRunProfile(std::string name, const Tracer& tracer,
                           int64_t root_id, RegistrySnapshot metrics) {
  RunProfile profile;
  profile.name = std::move(name);
  profile.spans = tracer.Subtree(root_id);
  if (!profile.spans.empty()) {
    profile.total_micros = profile.spans.front().DurationMicros();
  }
  profile.metrics = std::move(metrics);
  return profile;
}

std::string RunProfile::ToJson() const {
  std::string spans_json;
  for (const SpanRecord& span : spans) {
    if (!spans_json.empty()) spans_json += ",";
    spans_json += StrFormat(
        "{\"id\":%lld,\"parent_id\":%lld,\"name\":\"%s\","
        "\"start_micros\":%lld,\"duration_micros\":%lld",
        static_cast<long long>(span.id),
        static_cast<long long>(span.parent_id),
        JsonEscape(span.name).c_str(),
        static_cast<long long>(span.start_micros),
        static_cast<long long>(span.DurationMicros()));
    std::string annotations_json;
    for (const auto& [k, v] : span.annotations) {
      if (!annotations_json.empty()) annotations_json += ",";
      annotations_json += StrFormat("\"%s\":\"%s\"", JsonEscape(k).c_str(),
                                    JsonEscape(v).c_str());
    }
    if (!annotations_json.empty()) {
      spans_json += StrFormat(",\"annotations\":{%s}",
                              annotations_json.c_str());
    }
    spans_json += "}";
  }
  std::string stages_json;
  for (const auto& [stage, micros] : stages) {
    if (!stages_json.empty()) stages_json += ",";
    stages_json += StrFormat("\"%s\":%lld", JsonEscape(stage).c_str(),
                             static_cast<long long>(micros));
  }
  // Serving-plane overload summary, pulled from the metrics snapshot so
  // the profile answers "did this run shed / brown out?" without
  // spelunking the full registry dump.
  const std::string overload_json = StrFormat(
      "{\"shed_total\":%lld,\"brownout_total\":%lld,"
      "\"hedges_suppressed_total\":%lld,\"retry_budget_exhausted_total\":"
      "%lld}",
      static_cast<long long>(metrics.CounterValue("serving_shed_total")),
      static_cast<long long>(
          metrics.CounterValue("serving_brownout_total")),
      static_cast<long long>(
          metrics.CounterValue("serving_hedges_suppressed_total")),
      static_cast<long long>(
          metrics.CounterValue("serving_retry_budget_exhausted_total")));
  return StrFormat(
      "{\"name\":\"%s\",\"total_micros\":%lld,\"spans\":[%s],"
      "\"stages\":{%s},\"overload\":%s,\"slo\":%s,\"dataqual\":%s,"
      "\"metrics\":%s}",
      JsonEscape(name).c_str(), static_cast<long long>(total_micros),
      spans_json.c_str(), stages_json.c_str(), overload_json.c_str(),
      slo_json.empty() ? "{}" : slo_json.c_str(),
      dataqual_json.empty() ? "{}" : dataqual_json.c_str(),
      metrics.ToJson().c_str());
}

}  // namespace sigmund::obs
