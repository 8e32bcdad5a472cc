#ifndef PERFBENCH_COUNTING_FS_H_
#define PERFBENCH_COUNTING_FS_H_

#include <stdint.h>

#include <atomic>
#include <string>
#include <vector>

#include "sfs/shared_filesystem.h"

namespace perfbench {

// SharedFileSystem decorator that counts operations and payload bytes and
// forwards everything to `base` (borrowed). Thread-safe.
class CountingFileSystem : public sigmund::sfs::SharedFileSystem {
 public:
  struct Counts {
    int64_t read_ops = 0;
    int64_t write_ops = 0;
    int64_t other_ops = 0;  // delete, rename, list, size, exists
    int64_t bytes_read = 0;
    int64_t bytes_written = 0;
  };

  explicit CountingFileSystem(sigmund::sfs::SharedFileSystem* base)
      : base_(base) {}

  sigmund::Status Write(const std::string& path,
                        const std::string& data) override;
  sigmund::StatusOr<std::string> Read(const std::string& path) const override;
  sigmund::Status Delete(const std::string& path) override;
  sigmund::Status Rename(const std::string& from,
                         const std::string& to) override;
  bool Exists(const std::string& path) const override;
  sigmund::StatusOr<std::vector<std::string>> List(
      const std::string& prefix) const override;
  sigmund::StatusOr<int64_t> FileSize(const std::string& path) const override;

  Counts counts() const;

 private:
  sigmund::sfs::SharedFileSystem* base_;
  mutable std::atomic<int64_t> read_ops_{0};
  mutable std::atomic<int64_t> write_ops_{0};
  mutable std::atomic<int64_t> other_ops_{0};
  mutable std::atomic<int64_t> bytes_read_{0};
  mutable std::atomic<int64_t> bytes_written_{0};
};

// Every file of `fs` as (path, bytes), sorted by path.
using FileImage = std::vector<std::pair<std::string, std::string>>;
FileImage CaptureFiles(const sigmund::sfs::SharedFileSystem& fs);
void RestoreFiles(const FileImage& image, sigmund::sfs::SharedFileSystem* fs);

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_FS_H_
