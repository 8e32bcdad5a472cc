#include "sfs/reliable_io.h"

#include <string_view>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace sigmund::sfs {

namespace {

// Upper bound on write→verify→rewrite rounds. Each round's torn-write
// draw is independent, so with tear probability p the chance of all
// rounds tearing is p^8 — negligible for any sane chaos profile.
constexpr int kMaxVerifyRounds = 8;

obs::MetricRegistry* Required(obs::MetricRegistry* registry) {
  SIGCHECK(registry != nullptr) << "ReliableIoCounters needs a registry";
  return registry;
}

// RAII latency sample: observes elapsed micros into `histogram` (if any)
// when it goes out of scope.
class ScopedLatency {
 public:
  ScopedLatency(obs::Histogram* histogram, const Clock* clock)
      : histogram_(histogram),
        clock_(clock),
        start_micros_(histogram != nullptr ? clock->NowMicros() : 0) {}

  ~ScopedLatency() {
    if (histogram_ != nullptr) {
      histogram_->Observe(
          static_cast<double>(clock_->NowMicros() - start_micros_));
    }
  }

 private:
  obs::Histogram* histogram_;
  const Clock* clock_;
  int64_t start_micros_;
};

}  // namespace

ReliableIoCounters::ReliableIoCounters(obs::MetricRegistry* registry,
                                       const Clock* time_source)
    : metrics(Required(registry)),
      clock(time_source != nullptr ? time_source : RealClock::Get()),
      retry{metrics->GetCounter("sfs_retries_total"),
            metrics->GetCounter("sfs_retry_exhaustions_total")},
      corruptions_detected(
          metrics->GetCounter("sfs_corruptions_detected_total")),
      corruptions_healed(metrics->GetCounter("sfs_corruptions_healed_total")),
      read_micros(metrics->GetHistogram("sfs_op_micros", {{"op", "read"}})),
      write_micros(
          metrics->GetHistogram("sfs_op_micros", {{"op", "write"}})) {}

Status WriteChecksummedFile(SharedFileSystem* fs, const std::string& path,
                            std::string_view payload,
                            const RetryPolicy& policy,
                            ReliableIoCounters* io) {
  ScopedLatency latency(io != nullptr ? io->write_micros : nullptr,
                        io != nullptr ? io->clock : nullptr);
  const std::string frame = WriteChecksummedFrame(payload);
  const RetryStats* retry_stats = RetryStatsOf(io);
  bool healed_corruption = false;
  for (int round = 0; round < kMaxVerifyRounds; ++round) {
    Status write_status = RetryWithPolicy(policy, retry_stats, [&] {
      return fs->Write(path, frame);
    });
    SIGMUND_RETURN_IF_ERROR(write_status);

    // Read-back verify: the storage layer may have acknowledged the write
    // yet persisted torn bytes. Byte-compare against the intended frame.
    StatusOr<std::string> stored =
        RetryWithPolicy<std::string>(policy, retry_stats, [&] {
          return fs->Read(path);
        });
    SIGMUND_RETURN_IF_ERROR(stored.status());
    if (*stored == frame) {
      if (healed_corruption && io != nullptr) io->corruptions_healed->Add(1);
      return OkStatus();
    }
    if (io != nullptr) io->corruptions_detected->Add(1);
    healed_corruption = true;
  }
  return DataLossError(
      StrFormat("write of %s failed verification %d times in a row",
                path.c_str(), kMaxVerifyRounds));
}

StatusOr<std::string> ReadChecksummedFile(const SharedFileSystem* fs,
                                          const std::string& path,
                                          const RetryPolicy& policy,
                                          ReliableIoCounters* io) {
  ScopedLatency latency(io != nullptr ? io->read_micros : nullptr,
                        io != nullptr ? io->clock : nullptr);
  const RetryStats* retry_stats = RetryStatsOf(io);
  StatusOr<std::string> stored =
      RetryWithPolicy<std::string>(policy, retry_stats, [&] {
        return fs->Read(path);
      });
  SIGMUND_RETURN_IF_ERROR(stored.status());
  StatusOr<std::string> payload = ReadChecksummedFrame(*stored);
  if (!payload.ok() && io != nullptr) io->corruptions_detected->Add(1);
  return payload;
}

StatusOr<int64_t> SweepPartialFiles(SharedFileSystem* fs,
                                    const std::string& prefix,
                                    const RetryPolicy& policy,
                                    ReliableIoCounters* io) {
  const RetryStats* retry_stats = RetryStatsOf(io);
  StatusOr<std::vector<std::string>> paths =
      RetryWithPolicy<std::vector<std::string>>(policy, retry_stats, [&] {
        return fs->List(prefix);
      });
  SIGMUND_RETURN_IF_ERROR(paths.status());
  int64_t deleted = 0;
  constexpr std::string_view kTmpSuffix = ".tmp";
  for (const std::string& path : *paths) {
    if (path.size() < kTmpSuffix.size() ||
        std::string_view(path).substr(path.size() - kTmpSuffix.size()) !=
            kTmpSuffix) {
      continue;
    }
    Status status = RetryWithPolicy(policy, retry_stats, [&] {
      Status s = fs->Delete(path);
      // Already gone: someone else swept it; that is success.
      return s.code() == StatusCode::kNotFound ? OkStatus() : s;
    });
    SIGMUND_RETURN_IF_ERROR(status);
    ++deleted;
  }
  return deleted;
}

}  // namespace sigmund::sfs
