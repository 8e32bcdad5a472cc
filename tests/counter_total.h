#ifndef SIGMUND_TESTS_COUNTER_TOTAL_H_
#define SIGMUND_TESTS_COUNTER_TOTAL_H_

// Reads job counters out of a metrics registry by series name, the way an
// operator does (DESIGN.md §5). Header-only so tests and bench binaries can
// share it without linking gtest.

#include <stdint.h>

#include <algorithm>
#include <string_view>

#include "common/logging.h"
#include "common/metrics.h"

namespace sigmund::testutil {

// Sum of counter `name` over every series that carries all of `labels`
// (empty = every series of `name`). Aborts when no series matches, so a
// renamed or never-registered counter fails its caller instead of reading
// as zero.
inline int64_t CounterTotal(const obs::MetricRegistry& registry,
                            std::string_view name,
                            const obs::Labels& labels = {}) {
  int64_t total = 0;
  int matched = 0;
  for (const obs::MetricSnapshot& metric : registry.Snapshot().metrics) {
    if (metric.kind != obs::MetricKind::kCounter || metric.name != name) {
      continue;
    }
    const bool has_labels =
        std::all_of(labels.begin(), labels.end(), [&](const auto& label) {
          return std::find(metric.labels.begin(), metric.labels.end(),
                           label) != metric.labels.end();
        });
    if (!has_labels) continue;
    total += metric.counter;
    ++matched;
  }
  SIGCHECK(matched > 0) << "no counter series matches " << name
                        << obs::RenderLabels(labels);
  return total;
}

}  // namespace sigmund::testutil

#endif  // SIGMUND_TESTS_COUNTER_TOTAL_H_
