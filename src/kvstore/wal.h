#ifndef JUST_KVSTORE_WAL_H_
#define JUST_KVSTORE_WAL_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "kvstore/env.h"

namespace just::kv {

/// Record type in the write-ahead log.
enum class WalRecordType : uint8_t { kPut = 1, kDelete = 2 };

/// Append-only write-ahead log. Every mutation is logged before it reaches
/// the memtable so an unflushed memtable can be rebuilt after a crash.
/// Record: [crc32: fixed32][type: 1B][key len: varint][key]
///         [value len: varint][value]
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// `env` nullptr means Env::Default().
  Status Open(const std::string& path, bool truncate, Env* env = nullptr);
  Status Append(WalRecordType type, std::string_view key,
                std::string_view value);
  /// Appends bytes already encoded with EncodeWalRecord — the group-commit
  /// path encodes a whole batch into one buffer and hands it to the file in
  /// a single append, so one leader pays one I/O call for N writers.
  Status AppendEncoded(std::string_view records);
  /// Makes every appended record durable (fsync).
  Status Sync();
  void Close();

  bool is_open() const { return file_ != nullptr; }

 private:
  std::unique_ptr<WritableFile> file_;
};

/// Serializes one WAL record (crc + length-prefixed payload) onto `dst`.
void EncodeWalRecord(std::string* dst, WalRecordType type,
                     std::string_view key, std::string_view value);

/// Replays a WAL file, invoking `fn` per record. Stops cleanly at the first
/// torn/corrupt tail record (crash semantics). `env` nullptr means
/// Env::Default().
Status ReplayWal(const std::string& path,
                 const std::function<void(WalRecordType, std::string_view key,
                                          std::string_view value)>& fn,
                 Env* env = nullptr);

/// CRC-32 (ISO-HDLC polynomial) used by WAL records, SSTable blocks,
/// SSTable footers and wire frames.
uint32_t Crc32(std::string_view data);
/// Continues `crc`, the CRC-32 of some bytes A, over the bytes B that follow
/// them: Crc32(Crc32(A), B) == Crc32(A + B), and Crc32(0, B) == Crc32(B).
uint32_t Crc32(uint32_t crc, std::string_view data);

}  // namespace just::kv

#endif  // JUST_KVSTORE_WAL_H_
