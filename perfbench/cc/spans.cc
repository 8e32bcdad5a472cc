#include "spans.h"

#include <algorithm>

#include "bench.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace perfbench {
namespace {

// Open spans of the calling thread, for parent lookup. Belongs to one
// recorder at a time; a different recorder starts a fresh stack.
struct ThreadStack {
  const SpanRecorder* owner = nullptr;
  std::vector<int64_t> open;
};
thread_local ThreadStack t_stack;

std::vector<int64_t>& OpenSpans(const SpanRecorder* recorder) {
  if (t_stack.owner != recorder) {
    t_stack.owner = recorder;
    t_stack.open.clear();
  }
  return t_stack.open;
}

}  // namespace

SpanRecorder::SpanRecorder(size_t max_spans)
    : origin_ns_(NowNanos()), max_spans_(max_spans) {}

int64_t SpanRecorder::NowNs() const { return NowNanos() - origin_ns_; }

int64_t SpanRecorder::Begin(std::string name) {
  std::vector<int64_t>& open = OpenSpans(this);
  const int64_t parent = open.empty() ? 0 : open.back();
  const int64_t id = Add(std::move(name), parent, NowNs(), -1);
  if (id != 0) open.push_back(id);
  return id;
}

int64_t SpanRecorder::End(int64_t id) {
  if (id == 0) return 0;
  const int64_t now = NowNs();
  std::vector<int64_t>& open = OpenSpans(this);
  SIGCHECK(!open.empty() && open.back() == id);
  open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& span = spans_[static_cast<size_t>(id - 1)];
  span.end_ns = now;
  return span.duration_ns();
}

int64_t SpanRecorder::Add(std::string name, int64_t parent, int64_t start_ns,
                          int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return 0;
  }
  SpanRecord span;
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  span.parent = parent;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<SpanRecord> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

Scope::Scope(SpanRecorder* recorder, std::string_view name)
    : recorder_(recorder) {
  if (recorder_ != nullptr) id_ = recorder_->Begin(std::string(name));
}

int64_t Scope::End() {
  if (recorder_ == nullptr || id_ == 0) return 0;
  const int64_t duration = recorder_->End(id_);
  id_ = 0;
  return duration;
}

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& span : spans) {
    auto parent = index.find(span.parent);
    if (span.parent == 0 || parent == index.end() || span.end_ns < 0) continue;
    children[parent->second].emplace_back(span.start_ns, span.end_ns);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (span.end_ns < 0) continue;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t run_start = 0, run_end = -1;
    auto flush = [&] {
      if (run_end > run_start) covered += run_end - run_start;
    };
    for (auto [start, end] : kids) {
      start = std::max(start, span.start_ns);
      end = std::min(end, span.end_ns);
      if (end <= start) continue;
      if (start > run_end) {
        flush();
        run_start = start;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    flush();
    self[i] = span.duration_ns() - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<SpanRecord>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns < 0) continue;
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].duration_ns();
    t.self_ns += self[i];
  }
  return totals;
}

std::string SpansToJson(const std::vector<SpanRecord>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::string out = "{\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i > 0) out += ",\n";
    out += "{\"id\":" + std::to_string(span.id) +
           ",\"parent\":" + std::to_string(span.parent) + ",\"name\":\"" +
           sigmund::obs::JsonEscape(span.name) +
           "\",\"start_ns\":" + std::to_string(span.start_ns) +
           ",\"end_ns\":" + std::to_string(span.end_ns) +
           ",\"self_ns\":" + std::to_string(self[i]) + "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
