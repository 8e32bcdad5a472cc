#ifndef PERFBENCH_HOOKS_H_
#define PERFBENCH_HOOKS_H_

#include <stdint.h>

// Allocation counting. hooks.cc replaces the global operator new of the
// executable it is linked into: every allocation bumps a per-thread
// counter, and, while global counting is switched on, a process-wide one
// (which also sees the pool threads a library call spawns).
namespace perfbench {

// Allocations made by the calling thread since it started.
int64_t ThreadAllocs();

// Process-wide allocations counted while global counting was on.
void SetGlobalAllocCounting(bool on);
int64_t GlobalAllocs();

}  // namespace perfbench

#endif  // PERFBENCH_HOOKS_H_
