#include "pipeline/quality_monitor.h"

#include <algorithm>

#include "common/binary_io.h"

namespace sigmund::pipeline {

const char* VerdictName(QualityMonitor::Verdict verdict) {
  switch (verdict) {
    case QualityMonitor::Verdict::kFirstObservation:
      return "first-observation";
    case QualityMonitor::Verdict::kOk:
      return "ok";
    case QualityMonitor::Verdict::kRegressed:
      return "regressed";
  }
  return "unknown";
}

QualityMonitor::QualityMonitor(const Options& options,
                               obs::MetricRegistry* metrics)
    : options_(options),
      metrics_(obs::RequireRegistry(metrics, "QualityMonitor")) {}

QualityMonitor::Verdict QualityMonitor::Record(data::RetailerId retailer,
                                               double map_at_10) {
  std::deque<double>& history = history_[retailer];
  Verdict verdict = Verdict::kFirstObservation;
  if (!history.empty()) {
    double best = *std::max_element(history.begin(), history.end());
    if (best >= options_.min_meaningful_map &&
        map_at_10 < (1.0 - options_.max_relative_drop) * best) {
      verdict = Verdict::kRegressed;
    } else {
      verdict = Verdict::kOk;
    }
  }
  history.push_back(map_at_10);
  while (static_cast<int>(history.size()) > options_.history_days) {
    history.pop_front();
  }
  metrics_
      ->GetCounter("quality_verdicts_total",
                   {{"verdict", VerdictName(verdict)}})
      ->Add(1);
  return verdict;
}

double QualityMonitor::TrailingBest(data::RetailerId retailer) const {
  auto it = history_.find(retailer);
  if (it == history_.end() || it->second.empty()) return 0.0;
  return *std::max_element(it->second.begin(), it->second.end());
}

int QualityMonitor::days_observed(data::RetailerId retailer) const {
  auto it = history_.find(retailer);
  return it == history_.end() ? 0 : static_cast<int>(it->second.size());
}

std::string QualityMonitor::SerializeState() const {
  BinaryWriter writer;
  writer.Write<uint64_t>(history_.size());
  for (const auto& [retailer, history] : history_) {
    writer.Write<int32_t>(retailer);
    writer.WriteVector(std::vector<double>(history.begin(), history.end()));
  }
  return writer.Take();
}

Status QualityMonitor::RestoreState(std::string_view bytes) {
  BinaryReader reader(bytes);
  uint64_t count = 0;
  if (!reader.Read(&count)) {
    return DataLossError("truncated quality-monitor state");
  }
  std::map<data::RetailerId, std::deque<double>> history;
  for (uint64_t i = 0; i < count; ++i) {
    int32_t retailer = 0;
    std::vector<double> days;
    if (!reader.Read(&retailer) || !reader.ReadVector(&days)) {
      return DataLossError("truncated quality-monitor state");
    }
    history[retailer].assign(days.begin(), days.end());
  }
  if (!reader.Done()) {
    return DataLossError("trailing bytes in quality-monitor state");
  }
  history_ = std::move(history);
  return OkStatus();
}

}  // namespace sigmund::pipeline
