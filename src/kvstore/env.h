#ifndef JUST_KVSTORE_ENV_H_
#define JUST_KVSTORE_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace just::kv {

/// Append-only file handle. `Append` may buffer; `Sync` makes everything
/// appended so far durable (fflush + fsync); `Close` hands the bytes to the
/// OS but does NOT guarantee durability — a crash can still drop data that
/// was closed but never synced.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Positional-read file handle (pread); safe for concurrent readers.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  /// Reads exactly `n` bytes at `offset` into `dst`, which the caller sized
  /// and need not initialize.
  virtual Status Read(uint64_t offset, uint64_t n, char* dst) const = 0;
};

/// The storage path's only gateway to the filesystem. Every file operation
/// the WAL, SSTable builder/reader, and LsmStore perform goes through an Env,
/// so a test can substitute a FaultInjectionEnv and exercise crashes,
/// failed writes, and corruption without killing the process (the seam HBase
/// durability tests get from MiniDFSCluster).
class Env {
 public:
  virtual ~Env() = default;

  /// Process-wide POSIX environment; never deleted.
  static Env* Default();

  /// `truncate` selects create/overwrite vs append-to-existing.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) = 0;
  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;
  /// Missing file is an IOError (callers that tolerate absence check
  /// FileExists first).
  virtual Status ReadFileToString(const std::string& path,
                                  std::string* out) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Result<uint64_t> GetFileSize(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;
  virtual Status CreateDirs(const std::string& path) = 0;
  /// Entry names (not full paths), unordered.
  virtual Result<std::vector<std::string>> ListDir(const std::string& path) = 0;
};

}  // namespace just::kv

#endif  // JUST_KVSTORE_ENV_H_
