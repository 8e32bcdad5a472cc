#ifndef SIGMUND_SFS_RELIABLE_IO_H_
#define SIGMUND_SFS_RELIABLE_IO_H_

#include <stdint.h>

#include <string>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "sfs/shared_filesystem.h"

namespace sigmund::sfs {

// Where the reliable-I/O call sites of one job (or of the service) count
// their events: borrowed handles to the sfs_* instruments of a metrics
// registry, looked up once at construction. The registry is the only home of these counts (DESIGN.md
// §5); read them there by series name. Thread-safe, as the instruments
// are. The I/O functions below take `io == nullptr` to count nothing.
struct ReliableIoCounters {
  // `registry` (required) and `clock` are borrowed; clock == nullptr means
  // RealClock. Registers sfs_retries_total, sfs_retry_exhaustions_total,
  // sfs_corruptions_detected_total, sfs_corruptions_healed_total and
  // sfs_op_micros{op=read|write}.
  explicit ReliableIoCounters(obs::MetricRegistry* registry,
                              const Clock* clock = nullptr);

  obs::MetricRegistry* metrics;
  const Clock* clock;
  // Transient-error retries and exhaustions.
  RetryStats retry;
  // Frames whose CRC (or framing) check failed at read/verify time.
  obs::Counter* corruptions_detected;
  // Corrupt frames healed by rewriting (write-side read-back verify).
  obs::Counter* corruptions_healed;
  // One latency sample per checksummed read / write call.
  obs::Histogram* read_micros;
  obs::Histogram* write_micros;
};

// `io`'s retry counters, or nullptr (count nothing) when `io` is.
inline const RetryStats* RetryStatsOf(const ReliableIoCounters* io) {
  return io != nullptr ? &io->retry : nullptr;
}

// Writes `payload` to `path` wrapped in a checksummed frame, then reads
// it back and verifies the frame round-trips. A torn write (storage
// accepted the write but persisted garbage) is detected by the read-back
// and healed by rewriting; transient kUnavailable errors are retried per
// `policy`. This is the only write path durable pipeline artifacts
// (checkpoints, models, shards, recommendation batches) should use.
Status WriteChecksummedFile(SharedFileSystem* fs, const std::string& path,
                            std::string_view payload,
                            const RetryPolicy& policy = {},
                            ReliableIoCounters* io = nullptr);

// Reads `path` (retrying transient errors per `policy`) and unwraps the
// checksummed frame. Returns kDataLoss if the stored bytes fail the CRC
// or framing check — the caller decides whether that is recoverable
// (e.g. skip a corrupt checkpoint) or fatal.
StatusOr<std::string> ReadChecksummedFile(const SharedFileSystem* fs,
                                          const std::string& path,
                                          const RetryPolicy& policy = {},
                                          ReliableIoCounters* io = nullptr);

// Deletes every "*.tmp" file under `prefix` and returns how many were
// removed. Tmp files are the write half of the write-then-rename commit
// idiom; any that survive a process death are by definition uncommitted
// and safe to drop. Transient delete errors retry per `policy`; a file
// already gone (raced away) is not an error.
StatusOr<int64_t> SweepPartialFiles(SharedFileSystem* fs,
                                    const std::string& prefix,
                                    const RetryPolicy& policy = {},
                                    ReliableIoCounters* io = nullptr);

}  // namespace sigmund::sfs

#endif  // SIGMUND_SFS_RELIABLE_IO_H_
