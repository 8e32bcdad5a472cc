#include "pipeline/checkpoint.h"

#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"

namespace sigmund::pipeline {

namespace {

// Payload framing: 4-byte epoch, then the serialized model. The CRC frame
// around the whole payload is added by WriteChecksummedFile.
std::string EncodePayload(const core::BprModel& model, int epoch) {
  std::string payload;
  int32_t e = epoch;
  payload.append(reinterpret_cast<const char*>(&e), sizeof(e));
  payload += model.Serialize();
  return payload;
}

}  // namespace

CheckpointManager::CheckpointManager(sfs::SharedFileSystem* fs,
                                     const Clock* clock, std::string dir,
                                     double interval_seconds,
                                     RetryPolicy retry_policy,
                                     sfs::ReliableIoCounters* io,
                                     obs::Counter* corrupt_skipped)
    : fs_(fs), clock_(clock), dir_(std::move(dir)),
      interval_seconds_(interval_seconds), retry_policy_(retry_policy),
      io_(io), corrupt_skipped_(corrupt_skipped),
      last_checkpoint_time_(clock->NowSeconds()) {
  SIGCHECK(fs != nullptr);
  SIGCHECK(clock != nullptr);
  // Resume version numbering after any existing checkpoints. Best-effort:
  // if listing keeps failing we start at version 0, and ForceCheckpoint's
  // rename overwrites any same-numbered stale checkpoint.
  StatusOr<std::vector<std::string>> existing = ListRetrying(dir_ + "/ckpt.");
  if (existing.ok()) {
    for (const std::string& path : *existing) {
      int64_t version = 0;
      if (ParseInt64(path.substr(dir_.size() + 6), &version)) {
        next_version_ = std::max(next_version_, version + 1);
      }
    }
  }
}

std::string CheckpointManager::VersionPath(int64_t version) const {
  return StrFormat("%s/ckpt.%09lld", dir_.c_str(),
                   static_cast<long long>(version));
}

StatusOr<std::vector<std::string>> CheckpointManager::ListRetrying(
    const std::string& prefix) const {
  const RetryStats* retry_stats = sfs::RetryStatsOf(io_);
  return RetryWithPolicy<std::vector<std::string>>(
      retry_policy_, retry_stats, [&] { return fs_->List(prefix); });
}

StatusOr<bool> CheckpointManager::MaybeCheckpoint(const core::BprModel& model,
                                                  int epoch) {
  if (interval_seconds_ <= 0.0) return false;
  double now = clock_->NowSeconds();
  if (now - last_checkpoint_time_ < interval_seconds_) return false;
  SIGMUND_RETURN_IF_ERROR(ForceCheckpoint(model, epoch));
  return true;
}

Status CheckpointManager::ForceCheckpoint(const core::BprModel& model,
                                          int epoch) {
  const int64_t version = next_version_++;
  const std::string tmp = dir_ + "/tmp";
  const std::string committed = VersionPath(version);
  const RetryStats* retry_stats = sfs::RetryStatsOf(io_);
  // Checksummed write with read-back verify: a torn write of the temp file
  // is caught and rewritten *before* the rename commits it.
  SIGMUND_RETURN_IF_ERROR(sfs::WriteChecksummedFile(
      fs_, tmp, EncodePayload(model, epoch), retry_policy_, io_));
  SIGMUND_RETURN_IF_ERROR(RetryWithPolicy(retry_policy_, retry_stats, [&] {
    return fs_->Rename(tmp, committed);
  }));
  // Garbage-collect everything older than the checkpoint just committed
  // ("we only need to keep the latest checkpoint around"). Best-effort:
  // a List or Delete that keeps failing leaves a stale older checkpoint
  // behind, which is harmless — Restore always takes the newest — and the
  // next GC round or Clear() picks it up.
  StatusOr<std::vector<std::string>> checkpoints =
      ListRetrying(dir_ + "/ckpt.");
  if (checkpoints.ok()) {
    for (const std::string& path : *checkpoints) {
      if (path < committed) {
        Status s = RetryWithPolicy(retry_policy_, retry_stats, [&] {
          Status d = fs_->Delete(path);
          // Already gone (e.g. a concurrent Clear) is success for GC.
          if (d.code() == StatusCode::kNotFound) return OkStatus();
          return d;
        });
        if (!s.ok()) {
          SIGLOG(WARNING) << "checkpoint GC of " << path
                          << " failed (will retry next round): "
                          << s.ToString();
        }
      }
    }
  }
  last_checkpoint_time_ = clock_->NowSeconds();
  return OkStatus();
}

bool CheckpointManager::HasCheckpoint() const {
  StatusOr<std::vector<std::string>> checkpoints =
      ListRetrying(dir_ + "/ckpt.");
  return checkpoints.ok() && !checkpoints->empty();
}

StatusOr<CheckpointManager::Restored> CheckpointManager::Restore(
    const data::Catalog* catalog) const {
  StatusOr<std::vector<std::string>> checkpoints =
      ListRetrying(dir_ + "/ckpt.");
  SIGMUND_RETURN_IF_ERROR(checkpoints.status());
  if (checkpoints->empty()) {
    return NotFoundError("no checkpoint in " + dir_);
  }
  const std::string& latest = checkpoints->back();
  StatusOr<std::string> payload =
      sfs::ReadChecksummedFile(fs_, latest, retry_policy_, io_);
  if (!payload.ok()) {
    if (payload.status().code() == StatusCode::kDataLoss) {
      // Torn or bit-rotted checkpoint: treat it as absent so the caller
      // restarts training from scratch instead of crashing. The corrupt
      // file itself is overwritten or GC'd by the next checkpoint.
      return SkipCorrupt(latest, "failed CRC validation");
    }
    return payload.status();
  }
  if (payload->size() < sizeof(int32_t)) {
    return SkipCorrupt(latest, "is truncated");
  }
  int32_t epoch = 0;
  std::memcpy(&epoch, payload->data(), sizeof(epoch));
  StatusOr<core::BprModel> model =
      core::BprModel::Deserialize(payload->substr(sizeof(epoch)), catalog);
  if (!model.ok()) {
    // CRC passed but the model payload does not decode — e.g. written by
    // an incompatible version. Same recovery: restart from scratch.
    return SkipCorrupt(latest, "does not decode");
  }
  return Restored{std::move(model).value(), epoch};
}

Status CheckpointManager::SkipCorrupt(const std::string& path,
                                      const char* why) const {
  if (corrupt_skipped_ != nullptr) corrupt_skipped_->Add(1);
  SIGLOG(WARNING) << "checkpoint " << path << " " << why
                  << "; restarting from scratch";
  return NotFoundError("latest checkpoint corrupt: " + path);
}

Status CheckpointManager::Clear() {
  StatusOr<std::vector<std::string>> paths = ListRetrying(dir_ + "/");
  SIGMUND_RETURN_IF_ERROR(paths.status());
  const RetryStats* retry_stats = sfs::RetryStatsOf(io_);
  for (const std::string& path : *paths) {
    SIGMUND_RETURN_IF_ERROR(RetryWithPolicy(retry_policy_, retry_stats, [&] {
      Status s = fs_->Delete(path);
      // Idempotence: a file already deleted (concurrent Clear, GC) is fine.
      if (s.code() == StatusCode::kNotFound) return OkStatus();
      return s;
    }));
  }
  return OkStatus();
}

}  // namespace sigmund::pipeline
