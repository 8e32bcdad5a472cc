#ifndef SIGMUND_PIPELINE_LEDGER_H_
#define SIGMUND_PIPELINE_LEDGER_H_

#include <stdint.h>

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "data/types.h"
#include "serving/version_chain.h"
#include "sfs/reliable_io.h"
#include "sfs/shared_filesystem.h"

namespace sigmund::pipeline {

// Durable run ledger (DESIGN.md §13): a CRC-framed, append-only
// write-ahead intent journal over the shared filesystem. RunDaily logs a
// StageIntent before every externally visible per-retailer mutation and
// a StageCommit after it, so a coordinator that dies anywhere mid-day
// can be restarted, replay the journal, skip committed work, and
// garbage-collect the debris of uncommitted intents — finishing the day
// byte-identical to an uninterrupted same-seed run.
//
// On-disk format: one log file per day (`<dir>/day<NNNNNN>.log`), a
// concatenation of independently framed entries
//
//   magic "SGL1" (4) | crc32(body) (4) | body size (8) | body
//
// (the same framing discipline as common/binary_io's "SGF1" payload
// frames, but per entry, so a torn append invalidates only the tail).
// DecodeLog accepts the longest valid prefix and drops a torn tail
// cleanly instead of aborting recovery — the write-ahead contract means
// a lost tail entry only re-runs idempotent work.
//
// The ledger also owns the versioned control-state snapshots
// (`<state_dir>/snapshot.v<NNNNNN>`, payload CRC-framed via
// sfs::WriteChecksummedFile) that RunDaily writes at each day boundary
// and RecoverDay rehydrates from: two-phase (tmp write, then
// rename-commit) so a crash between the phases leaves only a sweepable
// `.tmp` orphan, never a half-written snapshot under the live name.
class RunLedger {
 public:
  enum class Op : uint8_t {
    kDayStart = 0,
    // Stage-level commit; `tag` names the stage ("train", "inference",
    // ...) and `payload` carries whatever the replay path needs to skip
    // or cross-check the stage (serialized sweep results, retailer id
    // lists, a plan fingerprint).
    kStageCommit = 1,
    // Per-retailer batch rollout protocol: intent (before the versioned
    // batch file is written), canary verdict (before it is acted on),
    // then exactly one of activate / discard as the commit.
    kBatchStageIntent = 2,
    kBatchCanary = 3,
    kBatchActivate = 4,
    kBatchDiscard = 5,
    // Same protocol for the online retrieval index plane.
    kIndexStageIntent = 6,
    kIndexCanary = 7,
    kIndexActivate = 8,
    kIndexDiscard = 9,
    kDayComplete = 10,
  };

  struct Entry {
    Op op = Op::kDayStart;
    int32_t day = 0;
    data::RetailerId retailer = -1;  // -1 for stage-level entries
    int64_t version = 0;
    std::string tag;      // stage name / canary verdict
    std::string payload;  // op-specific replay data (see Op comments)

    bool operator==(const Entry&) const = default;
  };

  struct Options {
    std::string dir = "ledger";
    std::string state_dir = "state";
    // Day log files retained, counting the current day (older days are
    // deleted at each day boundary; recovery needs only the current one).
    int retain_days = 2;
    // Control-state snapshots retained.
    int retain_snapshots = 2;
  };

  // `fs` and `io` borrowed; `io` may be null (no retry/corruption
  // accounting), `metrics` may be null.
  RunLedger(sfs::SharedFileSystem* fs, const Options& options,
            const RetryPolicy& retry, sfs::ReliableIoCounters* io,
            obs::MetricRegistry* metrics);

  // --- Day log -----------------------------------------------------------

  // Opens a fresh in-memory log for `day` (any previous buffer is
  // dropped; the day file is created by the first Append).
  void StartDay(int day);
  // Re-opens `day` mid-flight from the valid entries RecoverDay decoded:
  // the buffer is rebuilt from re-encoded entries, so the first resumed
  // Append also truncates any torn tail off the durable file.
  void ResumeDay(int day, const std::vector<Entry>& entries);
  // Appends one entry: frames it, extends the in-memory buffer, and
  // rewrites the day file (SFS writes are whole-file atomic; entries are
  // tiny control records, so the rewrite is O(day log), not O(data)).
  Status Append(const Entry& entry);

  int day() const { return day_; }
  int64_t bytes_written() const { return bytes_written_; }

  struct DecodeResult {
    std::vector<Entry> entries;
    // Length of the valid prefix; anything beyond it was a torn tail.
    size_t valid_bytes = 0;
    bool torn_tail = false;
  };

  static std::string EncodeEntry(const Entry& entry);
  // Never fails: returns the longest decodable prefix and flags (rather
  // than propagates) a torn or corrupt tail.
  static DecodeResult DecodeLog(std::string_view bytes);

  std::string DayPath(int day) const;
  // kNotFound when the day has no log file.
  StatusOr<DecodeResult> ReadDay(int day) const;
  // Deletes day files older than the retention window ending at
  // `current_day`. Adds the number deleted to *deleted (may be null).
  Status RetireOldDays(int current_day, int64_t* deleted = nullptr);

  // --- Control-state snapshots ------------------------------------------

  std::string SnapshotPath(int day) const;
  std::string SnapshotTmpPath() const;
  // Phase 1: CRC-framed write (with read-back verify) to the tmp path.
  Status WriteSnapshotTmp(std::string_view payload);
  // Phase 2: atomic rename of the tmp file to SnapshotPath(day).
  Status CommitSnapshot(int day);
  // Newest readable snapshot as (day, payload). A snapshot that fails
  // its CRC is skipped (counted through `io`) and the next older one is
  // tried. kNotFound when none decodes.
  StatusOr<std::pair<int, std::string>> ReadLatestSnapshot() const;
  Status RetireOldSnapshots(int current_day, int64_t* deleted = nullptr);

  const Options& options() const { return options_; }

 private:
  sfs::SharedFileSystem* fs_;
  Options options_;
  RetryPolicy retry_;
  sfs::ReliableIoCounters* io_;
  const RetryStats* retry_stats_;  // io_'s, or null with it
  obs::Counter* appends_counter_ = nullptr;

  int day_ = -1;
  std::string buffer_;  // the current day file's full contents
  int64_t bytes_written_ = 0;
};

// Per-retailer version-chain state captured in a snapshot (one
// VersionChain::State read): enough to put a freshly constructed store /
// retrieval reader back exactly where the crashed process's in-memory
// chain was, by re-staging the retained versions from their versioned
// SFS files.
using VersionChainState = serving::VersionChainState;

// Everything SigmundService must rehydrate after a crash that the SFS
// artifacts alone cannot tell it: warm-start results, quality baselines,
// sentry quarantine state, shard placement, and the serving-plane
// version chains. Written at each day boundary, before kDayComplete.
struct ServiceSnapshot {
  int32_t days_run = 0;
  // ConfigRecord::Serialize lines, in latest_results() order (ordering
  // matters: the incremental planner consumes them positionally).
  std::vector<std::string> previous_results;
  std::map<data::RetailerId, std::string> shard_homes;
  // Opaque sub-blobs produced by QualityMonitor::SerializeState and
  // DataSentry::SerializeState ("" when the sentry is disabled).
  std::string monitor_state;
  std::string sentry_state;
  std::map<data::RetailerId, VersionChainState> store_versions;
  std::map<data::RetailerId, VersionChainState> index_versions;

  bool operator==(const ServiceSnapshot&) const = default;

  std::string Serialize() const;
  static StatusOr<ServiceSnapshot> Deserialize(std::string_view bytes);
};

}  // namespace sigmund::pipeline

#endif  // SIGMUND_PIPELINE_LEDGER_H_
