// Checks of the benchmark's own instruments: span self times on a
// synthetic tree, the span JSON dump, the counting allocator and the
// counting filesystem. Exits 0 when every check passes.
//   .bench_build/perfbench_selftest

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "counting_fs.h"
#include "hooks.h"
#include "sfs/mem_filesystem.h"
#include "spans.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void ExpectEq(int64_t got, int64_t want, const std::string& what) {
  Expect(got == want, what + ": got " + std::to_string(got) + ", want " +
                          std::to_string(want));
}

// root [0,100) with children a [10,40), b [30,60) (overlapping a) and
// c [90,120) (runs past the root); a has a child a1 [15,25).
void SyntheticTree() {
  perfbench::SpanRecorder recorder;
  const int64_t root = recorder.Add("root", 0, 0, 100);
  const int64_t a = recorder.Add("a", root, 10, 40);
  recorder.Add("b", root, 30, 60);
  recorder.Add("c", root, 90, 120);
  recorder.Add("a1", a, 15, 25);
  recorder.Add("open", root, 70, -1);  // never ended: ignored
  const std::vector<perfbench::SpanRecord> spans = recorder.Spans();
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  // Children cover [10,60) and [90,100) of the root: 60 of 100.
  ExpectEq(self[0], 40, "root self time");
  ExpectEq(self[1], 20, "a self time");
  ExpectEq(self[2], 30, "b self time");
  ExpectEq(self[3], 30, "c self time");
  ExpectEq(self[4], 10, "a1 self time");
  ExpectEq(self[5], 0, "open span self time");

  const auto totals = perfbench::TotalsByName(spans);
  ExpectEq(totals.at("root").total_ns, 100, "root total");
  ExpectEq(totals.at("a").self_ns, 20, "a totals self");
  Expect(totals.count("open") == 0, "open span not totalled");

  const std::string json = perfbench::SpansToJson(spans);
  Expect(json.find("\"name\":\"a1\"") != std::string::npos, "json has a1");
  Expect(json.find("\"self_ns\":40") != std::string::npos,
         "json has root self time");
}

void NestedScopes() {
  perfbench::SpanRecorder recorder;
  {
    perfbench::Scope outer(&recorder, "outer");
    perfbench::Scope inner(&recorder, "inner");
    perfbench::Scope sibling_parent_check(nullptr, "noop");
  }
  perfbench::Scope after(&recorder, "after");
  after.End();
  const std::vector<perfbench::SpanRecord> spans = recorder.Spans();
  ExpectEq(static_cast<int64_t>(spans.size()), 3, "scope count");
  ExpectEq(spans[1].parent, spans[0].id, "inner parent is outer");
  ExpectEq(spans[2].parent, 0, "after is a root");
  Expect(spans[0].end_ns >= spans[1].end_ns, "outer ends after inner");
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  ExpectEq(self[0], spans[0].duration_ns() - spans[1].duration_ns(),
           "outer self = outer - inner");

  perfbench::SpanRecorder capped(2);
  ExpectEq(capped.Add("x", 0, 0, 1), 1, "first span kept");
  capped.Add("y", 0, 0, 1);
  ExpectEq(capped.Add("z", 0, 0, 1), 0, "span beyond cap dropped");
  ExpectEq(static_cast<int64_t>(capped.dropped()), 1, "dropped count");
}

void AllocationCounting() {
  const int64_t before = perfbench::ThreadAllocs();
  auto one = std::make_unique<int>(1);
  auto two = std::make_unique<std::vector<int>>(100, 0);
  const int64_t thread_allocs = perfbench::ThreadAllocs() - before;
  ExpectEq(thread_allocs, 3, "thread allocations");

  perfbench::SetGlobalAllocCounting(true);
  const int64_t global_before = perfbench::GlobalAllocs();
  auto three = std::make_unique<double>(3.0);
  perfbench::SetGlobalAllocCounting(false);
  auto four = std::make_unique<double>(4.0);
  const int64_t global_allocs = perfbench::GlobalAllocs() - global_before;
  ExpectEq(global_allocs, 1,
           "global allocations while counting");
}

void FileSystemCounting() {
  sigmund::sfs::MemFileSystem base;
  perfbench::CountingFileSystem fs(&base);
  Expect(fs.Write("a/x", "hello").ok(), "write");
  Expect(fs.Write("a/y", "hi").ok(), "write");
  Expect(fs.Read("a/x").ok(), "read");
  Expect(!fs.Read("a/missing").ok(), "missing read fails");
  Expect(fs.Rename("a/y", "a/z").ok(), "rename");
  const perfbench::CountingFileSystem::Counts counts = fs.counts();
  ExpectEq(counts.write_ops, 2, "write ops");
  ExpectEq(counts.bytes_written, 7, "bytes written");
  ExpectEq(counts.read_ops, 2, "read ops");
  ExpectEq(counts.bytes_read, 5, "bytes read");
  ExpectEq(counts.other_ops, 1, "other ops");

  sigmund::sfs::MemFileSystem copy;
  perfbench::RestoreFiles(perfbench::CaptureFiles(base), &copy);
  Expect(copy.Read("a/z").ok() && *copy.Read("a/z") == "hi",
         "captured image restores");
  Expect(!copy.Exists("a/y"), "renamed-away file absent");
}

}  // namespace

int main() {
  SyntheticTree();
  NestedScopes();
  AllocationCounting();
  FileSystemCounting();
  if (failures > 0) {
    std::printf("perfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: ok\n");
  return 0;
}
