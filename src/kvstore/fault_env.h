#ifndef JUST_KVSTORE_FAULT_ENV_H_
#define JUST_KVSTORE_FAULT_ENV_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "kvstore/env.h"

namespace just::kv {

/// Env decorator that injects storage faults deterministically — no process
/// kills, no timing dependence, every failure reproducible from a test's own
/// schedule. Three fault families:
///
///  1. Failed operations: `FailWriteOp(n)` makes the Nth mutating filesystem
///     op (append/sync/create/rename/remove/truncate, 1-based, counted by
///     `write_ops()`) return IOError — and, by default, every op after it,
///     modelling a disk that died. `FailNextReads(k)` fails the next k reads.
///  2. Crashes: appended bytes are buffered inside the decorator and only
///     reach the underlying file on Sync (durable) or Close (visible, not
///     durable). `DropUnsyncedWrites()` truncates every tracked file back to
///     its last-synced prefix and deletes never-synced files — exactly what
///     power loss leaves behind — then fails all further writes until
///     `ClearFaults()` so a closing store cannot resurrect lost data.
///  3. Corruption: `FlipByte(path, offset)` inverts one byte in place so
///     checksum verification paths can be exercised byte-by-byte.
///
/// A one-shot gate (`HoldFileCreation`) can also park the thread that is
/// about to create a given file, before that op is counted, so a test can
/// aim `FailWriteOp` relative to the exact start of a background job.
///
/// Limitation: unsynced writes live in the decorator's buffer, so a reader
/// opened on a file while a writer still has unsynced data will not see that
/// tail. The LSM storage path never reads its own unsynced writes.
class FaultInjectionEnv : public Env {
 public:
  /// Wraps `base`; nullptr means Env::Default(). Does not own it.
  explicit FaultInjectionEnv(Env* base = nullptr);

  // --- Fault schedule ---

  /// The `n`th mutating op (1-based, absolute — compare against
  /// write_ops()) fails with IOError. `all_after` keeps failing every
  /// subsequent op (dead-disk mode); otherwise the fault is one-shot and
  /// the disk recovers.
  void FailWriteOp(int64_t n, bool all_after = true);
  /// Fails the next `k` read ops (pread / whole-file reads) with IOError.
  void FailNextReads(int64_t k);
  /// Clears every scheduled fault and the post-crash write lockout. File
  /// durability tracking is preserved.
  void ClearFaults();

  int64_t write_ops() const;
  int64_t read_ops() const;

  // --- Gate ---

  /// One-shot: lets `skip` creations (NewWritableFile) of paths ending in
  /// `suffix` through, then parks the thread making the next one, before
  /// its op is counted, until ReleaseHeld().
  void HoldFileCreation(std::string suffix, int skip);
  /// Waits until the gate parks a thread; false after `timeout`.
  bool AwaitHeld(std::chrono::milliseconds timeout);
  /// Disarms the gate and lets a parked thread go on.
  void ReleaseHeld();

  // --- Crash simulation ---

  /// Simulated power loss: every tracked file is truncated to its
  /// last-synced size (never-synced files are removed), and all further
  /// mutating ops fail until ClearFaults().
  void DropUnsyncedWrites();

  // --- Corruption ---

  /// Inverts (XOR 0xFF) the byte at `offset`; calling twice restores it.
  Status FlipByte(const std::string& path, uint64_t offset);

  // --- Env interface ---

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Status ReadFileToString(const std::string& path, std::string* out) override;
  bool FileExists(const std::string& path) override;
  Result<uint64_t> GetFileSize(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Status CreateDirs(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;

 private:
  friend class FaultWritableFile;
  friend class FaultRandomAccessFile;

  /// Parks the caller while the gate holds the creation of `path`.
  void MaybeHoldCreation(const std::string& path);
  /// Counts one mutating op and returns the injected fault, if any.
  Status CheckWriteOp();
  /// Counts one read op and returns the injected fault, if any.
  Status CheckReadOp();
  /// Records the durable prefix of `path` after a successful sync.
  void MarkSynced(const std::string& path, uint64_t durable_size);

  Env* base_;
  mutable std::mutex mu_;
  int64_t write_ops_ = 0;
  int64_t read_ops_ = 0;
  int64_t fail_at_write_op_ = -1;  ///< -1: disabled
  bool fail_all_after_ = true;
  bool write_lockout_ = false;  ///< dead disk / post-crash: all writes fail
  int64_t fail_reads_remaining_ = 0;
  std::condition_variable gate_cv_;
  bool gate_armed_ = false;
  bool gate_holding_ = false;
  std::string gate_suffix_;
  int gate_skip_ = 0;
  /// Durable prefix per tracked file; -1 = created but never synced.
  std::map<std::string, int64_t> durable_size_;
};

}  // namespace just::kv

#endif  // JUST_KVSTORE_FAULT_ENV_H_
