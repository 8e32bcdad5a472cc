#include "counting_fs.h"

#include "common/logging.h"

namespace perfbench {

using sigmund::Status;
using sigmund::StatusOr;

Status CountingFileSystem::Write(const std::string& path,
                                 const std::string& data) {
  write_ops_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(static_cast<int64_t>(data.size()),
                           std::memory_order_relaxed);
  return base_->Write(path, data);
}

StatusOr<std::string> CountingFileSystem::Read(const std::string& path) const {
  read_ops_.fetch_add(1, std::memory_order_relaxed);
  StatusOr<std::string> bytes = base_->Read(path);
  if (bytes.ok()) {
    bytes_read_.fetch_add(static_cast<int64_t>(bytes->size()),
                          std::memory_order_relaxed);
  }
  return bytes;
}

Status CountingFileSystem::Delete(const std::string& path) {
  other_ops_.fetch_add(1, std::memory_order_relaxed);
  return base_->Delete(path);
}

Status CountingFileSystem::Rename(const std::string& from,
                                  const std::string& to) {
  other_ops_.fetch_add(1, std::memory_order_relaxed);
  return base_->Rename(from, to);
}

bool CountingFileSystem::Exists(const std::string& path) const {
  other_ops_.fetch_add(1, std::memory_order_relaxed);
  return base_->Exists(path);
}

StatusOr<std::vector<std::string>> CountingFileSystem::List(
    const std::string& prefix) const {
  other_ops_.fetch_add(1, std::memory_order_relaxed);
  return base_->List(prefix);
}

StatusOr<int64_t> CountingFileSystem::FileSize(const std::string& path) const {
  other_ops_.fetch_add(1, std::memory_order_relaxed);
  return base_->FileSize(path);
}

CountingFileSystem::Counts CountingFileSystem::counts() const {
  Counts counts;
  counts.read_ops = read_ops_.load();
  counts.write_ops = write_ops_.load();
  counts.other_ops = other_ops_.load();
  counts.bytes_read = bytes_read_.load();
  counts.bytes_written = bytes_written_.load();
  return counts;
}

FileImage CaptureFiles(const sigmund::sfs::SharedFileSystem& fs) {
  FileImage image;
  StatusOr<std::vector<std::string>> paths = fs.List("");
  SIGCHECK(paths.ok());
  for (const std::string& path : *paths) {
    StatusOr<std::string> bytes = fs.Read(path);
    SIGCHECK(bytes.ok());
    image.emplace_back(path, std::move(bytes).value());
  }
  return image;
}

void RestoreFiles(const FileImage& image, sigmund::sfs::SharedFileSystem* fs) {
  for (const auto& [path, bytes] : image) {
    SIGCHECK(fs->Write(path, bytes).ok());
  }
}

}  // namespace perfbench
