#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <stdint.h>

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

// In-memory span recorder for the traced benchmark run: the benchmark
// wraps each call it makes into a library layer in a span (name, start,
// end, parent), keeps every span in memory, and writes them out as JSON
// when the run ends. Layer metrics are sums of span durations or self
// times by name.
namespace perfbench {

struct SpanRecord {
  int64_t id = 0;      // 1-based, in start order
  int64_t parent = 0;  // 0 = root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open

  int64_t duration_ns() const { return end_ns < 0 ? 0 : end_ns - start_ns; }
};

class SpanRecorder {
 public:
  // Spans beyond `max_spans` are dropped (Begin returns 0) so a long
  // traced run cannot grow without bound.
  explicit SpanRecorder(size_t max_spans = 1 << 21);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Opens a span; its parent is the innermost span this recorder has open
  // on the calling thread. Returns the id (0 = dropped).
  int64_t Begin(std::string name);
  // Closes span `id` (must be the innermost open span of the calling
  // thread) and returns its duration in nanoseconds.
  int64_t End(int64_t id);
  // Records a finished span with explicit times (nanoseconds on NowNs()).
  int64_t Add(std::string name, int64_t parent, int64_t start_ns,
              int64_t end_ns);

  // Nanoseconds since the recorder was created (steady clock).
  int64_t NowNs() const;
  std::vector<SpanRecord> Spans() const;
  size_t dropped() const;

 private:
  const int64_t origin_ns_;
  const size_t max_spans_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // index = id - 1
  size_t dropped_ = 0;
};

// RAII span; a null recorder makes it a no-op (the name is copied only
// when a span is recorded).
class Scope {
 public:
  Scope(SpanRecorder* recorder, std::string_view name);
  ~Scope() { End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Ends the span early; returns its duration in nanoseconds (0 for a
  // no-op scope or when already ended).
  int64_t End();

 private:
  SpanRecorder* recorder_;
  int64_t id_ = 0;
};

// Self time of every span (aligned with `spans`): its duration minus the
// part of its interval covered by the union of its children's intervals.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<SpanRecord>& spans);

// {"spans":[{"id":..,"parent":..,"name":"..","start_ns":..,"end_ns":..,
// "self_ns":..},...]}
std::string SpansToJson(const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
