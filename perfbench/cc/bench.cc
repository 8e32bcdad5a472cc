#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::string Metrics::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : values_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}";
  return out;
}

Metrics MedianMetrics(const std::vector<Metrics>& samples) {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  for (const Metrics& sample : samples) {
    for (const auto& [name, metric] : sample.values()) {
      values[name].push_back(metric.value);
      units[name] = metric.unit;
    }
  }
  Metrics median;
  for (auto& [name, list] : values) {
    median.Set(name, Median(std::move(list)), units[name]);
  }
  return median;
}

void CheckP99Samples(const std::string& name, size_t samples,
                     RunResult* result) {
  std::printf("%s: p99 over %zu samples\n", name.c_str(), samples);
  if (samples < kMinP99Samples) {
    result->Fail(name + ": p99 over " + std::to_string(samples) +
                 " samples, fewer than " + std::to_string(kMinP99Samples));
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowSeconds() { return static_cast<double>(NowNanos()) * 1e-9; }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

}  // namespace perfbench
