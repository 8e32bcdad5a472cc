// Benchmark entry point. Runs one workload and prints its metrics; the last
// line of standard output is the run's JSON result:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
//   perfbench --workload full_sweep|incremental_day
//             --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics and writes DIR/spans-<workload>-seed<N>.json and
// DIR/layers-<workload>-seed<N>.json (DIR defaults to .bench_out).

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace {

int Usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n",
               error);
  return 2;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc);
  out << contents;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) return Usage("unknown --workload");
  if (args.seconds <= 0) return Usage("--seconds must be positive");

  // Keep the library's own log lines (quarantine/canary notices) quiet:
  // only warnings and errors reach stderr.
  sigmund::SetMinLogSeverity(sigmund::LogSeverity::kWarning);

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  perfbench::SpanRecorder recorder;
  perfbench::SpanRecorder* spans = args.trace ? &recorder : nullptr;
  perfbench::RunResult result = perfbench::RunWorkload(*spec, args, spans);

  for (const auto& [name, metric] : result.metrics.values()) {
    std::printf("  %-40s %16.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED [%s]: %s\n", args.workload.c_str(),
                failure.c_str());
  }
  if (args.trace) {
    mkdir(args.out_dir.c_str(), 0755);
    const std::string spans_path = args.out_dir + "/spans-" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    const std::string layers_path = args.out_dir + "/layers-" + args.workload +
                                    "-seed" + std::to_string(args.seed) +
                                    ".json";
    const bool wrote =
        WriteFile(spans_path, perfbench::SpansToJson(recorder.Spans())) &&
        WriteFile(layers_path, "{\"workload\": \"" + args.workload +
                                   "\", \"seed\": " + std::to_string(args.seed) +
                                   ", \"metrics\": " +
                                   result.metrics.ToJson() + "}\n");
    if (!wrote) result.Fail("could not write trace output under " + args.out_dir);
    std::printf("trace: %zu spans (%zu dropped) -> %s; layers -> %s\n",
                recorder.Spans().size(), recorder.dropped(),
                spans_path.c_str(), layers_path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              result.correct() ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.metrics.ToJson().c_str());
  return result.correct() ? 0 : 1;
}
