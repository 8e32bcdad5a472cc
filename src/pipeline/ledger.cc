#include "pipeline/ledger.h"

#include <algorithm>

#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/string_util.h"

namespace sigmund::pipeline {
namespace {

constexpr char kEntryMagic[4] = {'S', 'G', 'L', '1'};
constexpr size_t kEntryHeaderSize = 4 + 4 + 8;

// Parses the numeric suffix of "<prefix><NNNNNN>" names; -1 on mismatch.
int ParseDaySuffix(std::string_view name, std::string_view prefix) {
  if (name.size() <= prefix.size() ||
      name.substr(0, prefix.size()) != prefix) {
    return -1;
  }
  int64_t day = 0;
  if (!ParseInt64(std::string(name.substr(prefix.size())), &day) || day < 0) {
    return -1;
  }
  return static_cast<int>(day);
}

void WriteChain(BinaryWriter* writer, const VersionChainState& chain) {
  writer->Write<int64_t>(chain.active);
  writer->Write<int64_t>(chain.next_version);
  writer->WriteVector(chain.retained);
}

bool ReadChain(BinaryReader* reader, VersionChainState* chain) {
  return reader->Read(&chain->active) && reader->Read(&chain->next_version) &&
         reader->ReadVector(&chain->retained);
}

void WriteChainMap(BinaryWriter* writer,
                   const std::map<data::RetailerId, VersionChainState>& map) {
  writer->Write<uint64_t>(map.size());
  for (const auto& [retailer, chain] : map) {
    writer->Write<int32_t>(retailer);
    WriteChain(writer, chain);
  }
}

bool ReadChainMap(BinaryReader* reader,
                  std::map<data::RetailerId, VersionChainState>* map) {
  uint64_t count = 0;
  if (!reader->Read(&count)) return false;
  for (uint64_t i = 0; i < count; ++i) {
    int32_t retailer = 0;
    VersionChainState chain;
    if (!reader->Read(&retailer) || !ReadChain(reader, &chain)) return false;
    (*map)[retailer] = std::move(chain);
  }
  return true;
}

}  // namespace

RunLedger::RunLedger(sfs::SharedFileSystem* fs, const Options& options,
                     const RetryPolicy& retry, sfs::ReliableIoCounters* io,
                     obs::MetricRegistry* metrics)
    : fs_(fs), options_(options), retry_(retry), io_(io),
      retry_stats_(sfs::RetryStatsOf(io)) {
  if (metrics != nullptr) {
    appends_counter_ = metrics->GetCounter("pipeline_ledger_appends_total");
  }
}

void RunLedger::StartDay(int day) {
  day_ = day;
  buffer_.clear();
}

void RunLedger::ResumeDay(int day, const std::vector<Entry>& entries) {
  day_ = day;
  buffer_.clear();
  for (const Entry& entry : entries) buffer_ += EncodeEntry(entry);
}

Status RunLedger::Append(const Entry& entry) {
  if (day_ < 0) return FailedPreconditionError("ledger day not started");
  buffer_ += EncodeEntry(entry);
  const std::string path = DayPath(day_);
  SIGMUND_RETURN_IF_ERROR(RetryWithPolicy(
      retry_, retry_stats_, [&] { return fs_->Write(path, buffer_); }));
  bytes_written_ += static_cast<int64_t>(buffer_.size());
  if (appends_counter_ != nullptr) appends_counter_->Add(1);
  return OkStatus();
}

std::string RunLedger::EncodeEntry(const Entry& entry) {
  BinaryWriter body;
  body.Write<uint8_t>(static_cast<uint8_t>(entry.op));
  body.Write<int32_t>(entry.day);
  body.Write<int32_t>(entry.retailer);
  body.Write<int64_t>(entry.version);
  body.WriteString(entry.tag);
  body.WriteString(entry.payload);

  std::string frame;
  frame.reserve(kEntryHeaderSize + body.buffer().size());
  frame.append(kEntryMagic, sizeof(kEntryMagic));
  const uint32_t crc = Crc32(body.buffer());
  frame.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  const uint64_t size = body.buffer().size();
  frame.append(reinterpret_cast<const char*>(&size), sizeof(size));
  frame += body.buffer();
  return frame;
}

RunLedger::DecodeResult RunLedger::DecodeLog(std::string_view bytes) {
  DecodeResult result;
  size_t offset = 0;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < kEntryHeaderSize ||
        bytes.compare(offset, sizeof(kEntryMagic),
                      std::string_view(kEntryMagic, sizeof(kEntryMagic))) !=
            0) {
      break;
    }
    uint32_t crc = 0;
    uint64_t size = 0;
    std::memcpy(&crc, bytes.data() + offset + 4, sizeof(crc));
    std::memcpy(&size, bytes.data() + offset + 8, sizeof(size));
    if (size > bytes.size() - offset - kEntryHeaderSize) break;
    const std::string_view body =
        bytes.substr(offset + kEntryHeaderSize, size);
    if (Crc32(body) != crc) break;

    BinaryReader reader(body);
    Entry entry;
    uint8_t op = 0;
    if (!reader.Read(&op) || op > static_cast<uint8_t>(Op::kDayComplete) ||
        !reader.Read(&entry.day) || !reader.Read(&entry.retailer) ||
        !reader.Read(&entry.version) || !reader.ReadString(&entry.tag) ||
        !reader.ReadString(&entry.payload) || !reader.Done()) {
      break;
    }
    entry.op = static_cast<Op>(op);
    result.entries.push_back(std::move(entry));
    offset += kEntryHeaderSize + size;
  }
  result.valid_bytes = offset;
  result.torn_tail = offset < bytes.size();
  return result;
}

std::string RunLedger::DayPath(int day) const {
  return StrFormat("%s/day%06d.log", options_.dir.c_str(), day);
}

StatusOr<RunLedger::DecodeResult> RunLedger::ReadDay(int day) const {
  StatusOr<std::string> bytes = RetryWithPolicy<std::string>(
      retry_, retry_stats_, [&] { return fs_->Read(DayPath(day)); });
  if (!bytes.ok()) return bytes.status();
  return DecodeLog(*bytes);
}

Status RunLedger::RetireOldDays(int current_day, int64_t* deleted) {
  StatusOr<std::vector<std::string>> names =
      RetryWithPolicy<std::vector<std::string>>(retry_, retry_stats_, [&] {
        return fs_->List(options_.dir + "/day");
      });
  if (!names.ok()) return names.status();
  const int keep_from = current_day - std::max(1, options_.retain_days) + 1;
  for (const std::string& name : *names) {
    std::string_view stem = name;
    if (stem.size() < 4 || stem.substr(stem.size() - 4) != ".log") continue;
    stem.remove_suffix(4);
    const int day = ParseDaySuffix(stem, options_.dir + "/day");
    if (day < 0 || day >= keep_from) continue;
    SIGMUND_RETURN_IF_ERROR(RetryWithPolicy(
        retry_, retry_stats_, [&] { return fs_->Delete(name); }));
    if (deleted != nullptr) ++*deleted;
  }
  return OkStatus();
}

std::string RunLedger::SnapshotPath(int day) const {
  return StrFormat("%s/snapshot.v%06d", options_.state_dir.c_str(), day);
}

std::string RunLedger::SnapshotTmpPath() const {
  return options_.state_dir + "/snapshot.tmp";
}

Status RunLedger::WriteSnapshotTmp(std::string_view payload) {
  return sfs::WriteChecksummedFile(fs_, SnapshotTmpPath(), payload, retry_,
                                   io_);
}

Status RunLedger::CommitSnapshot(int day) {
  return RetryWithPolicy(retry_, retry_stats_, [&] {
    return fs_->Rename(SnapshotTmpPath(), SnapshotPath(day));
  });
}

StatusOr<std::pair<int, std::string>> RunLedger::ReadLatestSnapshot() const {
  const std::string prefix = options_.state_dir + "/snapshot.v";
  StatusOr<std::vector<std::string>> names =
      RetryWithPolicy<std::vector<std::string>>(
          retry_, retry_stats_, [&] { return fs_->List(prefix); });
  if (!names.ok()) return names.status();
  std::vector<int> days;
  for (const std::string& name : *names) {
    const int day = ParseDaySuffix(name, prefix);
    if (day >= 0) days.push_back(day);
  }
  std::sort(days.rbegin(), days.rend());
  for (int day : days) {
    StatusOr<std::string> payload =
        sfs::ReadChecksummedFile(fs_, SnapshotPath(day), retry_, io_);
    if (payload.ok()) return std::make_pair(day, *std::move(payload));
    if (payload.status().code() != StatusCode::kDataLoss) {
      return payload.status();
    }
    // Corrupt snapshot (already counted through io_): fall back to the
    // next older one — losing a day of control state degrades warm
    // starts, never correctness of what is served.
  }
  return NotFoundError("no readable state snapshot");
}

Status RunLedger::RetireOldSnapshots(int current_day, int64_t* deleted) {
  const std::string prefix = options_.state_dir + "/snapshot.v";
  StatusOr<std::vector<std::string>> names =
      RetryWithPolicy<std::vector<std::string>>(
          retry_, retry_stats_, [&] { return fs_->List(prefix); });
  if (!names.ok()) return names.status();
  const int keep_from =
      current_day - std::max(1, options_.retain_snapshots) + 1;
  for (const std::string& name : *names) {
    const int day = ParseDaySuffix(name, prefix);
    if (day < 0 || day >= keep_from) continue;
    SIGMUND_RETURN_IF_ERROR(RetryWithPolicy(
        retry_, retry_stats_, [&] { return fs_->Delete(name); }));
    if (deleted != nullptr) ++*deleted;
  }
  return OkStatus();
}

std::string ServiceSnapshot::Serialize() const {
  BinaryWriter writer;
  writer.Write<int32_t>(days_run);
  writer.Write<uint64_t>(previous_results.size());
  for (const std::string& record : previous_results) {
    writer.WriteString(record);
  }
  writer.Write<uint64_t>(shard_homes.size());
  for (const auto& [retailer, cell] : shard_homes) {
    writer.Write<int32_t>(retailer);
    writer.WriteString(cell);
  }
  writer.WriteString(monitor_state);
  writer.WriteString(sentry_state);
  WriteChainMap(&writer, store_versions);
  WriteChainMap(&writer, index_versions);
  return writer.Take();
}

StatusOr<ServiceSnapshot> ServiceSnapshot::Deserialize(
    std::string_view bytes) {
  BinaryReader reader(bytes);
  ServiceSnapshot snapshot;
  uint64_t count = 0;
  if (!reader.Read(&snapshot.days_run) || !reader.Read(&count)) {
    return DataLossError("truncated service snapshot");
  }
  snapshot.previous_results.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string record;
    if (!reader.ReadString(&record)) {
      return DataLossError("truncated service snapshot (results)");
    }
    snapshot.previous_results.push_back(std::move(record));
  }
  if (!reader.Read(&count)) {
    return DataLossError("truncated service snapshot (placement)");
  }
  for (uint64_t i = 0; i < count; ++i) {
    int32_t retailer = 0;
    std::string cell;
    if (!reader.Read(&retailer) || !reader.ReadString(&cell)) {
      return DataLossError("truncated service snapshot (placement)");
    }
    snapshot.shard_homes[retailer] = std::move(cell);
  }
  if (!reader.ReadString(&snapshot.monitor_state) ||
      !reader.ReadString(&snapshot.sentry_state) ||
      !ReadChainMap(&reader, &snapshot.store_versions) ||
      !ReadChainMap(&reader, &snapshot.index_versions) || !reader.Done()) {
    return DataLossError("truncated service snapshot (state)");
  }
  return snapshot;
}

}  // namespace sigmund::pipeline
