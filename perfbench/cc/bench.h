#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <stdint.h>

#include <map>
#include <string>
#include <vector>

// Shared plumbing of the benchmark program: named metrics, the run
// verdict, and small statistics / clock helpers.
namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Named metrics of one run, kept sorted by name.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = Metric{value, unit};
  }
  const std::map<std::string, Metric>& values() const { return values_; }
  // {"name":{"value":v,"unit":"u"},...}
  std::string ToJson() const;

 private:
  std::map<std::string, Metric> values_;
};

// Per-name median over several samples of the same metric set (names
// missing from some samples take the median of the samples that have
// them).
Metrics MedianMetrics(const std::vector<Metrics>& samples);

// Verdict and counters of one benchmark run.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  Metrics metrics;  // end-to-end (untraced run) or per-layer (traced run)

  void Fail(const std::string& what) { check_failures.push_back(what); }
  bool correct() const { return check_failures.empty(); }
};

// A p99 is reported only over at least this many samples (ten beyond it).
constexpr size_t kMinP99Samples = 1000;
// Prints how many samples back p99 metric `name` and fails the run when
// they are fewer than kMinP99Samples.
void CheckP99Samples(const std::string& name, size_t samples,
                     RunResult* result);

// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Monotonic wall clock in seconds / nanoseconds.
double NowSeconds();
int64_t NowNanos();
// User + system CPU of the whole process so far, in seconds.
double ProcessCpuSeconds();
// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
