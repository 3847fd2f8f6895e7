#ifndef JUST_KVSTORE_SSTABLE_H_
#define JUST_KVSTORE_SSTABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/lru_cache.h"
#include "common/status.h"
#include "kvstore/block.h"
#include "kvstore/env.h"
#include "obs/metrics.h"

namespace just::kv {

/// Per-store cumulative I/O counters. Each instance self-registers into the
/// global obs::Registry as a cumulative source (just_kv_*_total), so the
/// process-wide view is the aggregation of every live store plus the folded
/// totals of dead ones — concurrent stores in tests and benches no longer
/// pollute each other, while the registry's process-wide totals stay
/// monotonic.
struct IoStats {
  obs::Counter bytes_read;
  obs::Counter read_ops;
  obs::Counter bytes_written;

  IoStats();

 private:
  // Declared after the counters: unregistered (and folded) before they die.
  std::vector<obs::ScopedSource> sources_;
};

/// Fallback sink for readers/builders opened without a store (tests, tools).
IoStats& OrphanIoStats();

/// Optional disk model: when set to a positive MB/s figure, every SSTable
/// read spins for bytes/bandwidth, so scan latency scales with bytes read
/// even when the OS page cache makes real reads free. Benches use this to
/// reproduce the paper's disk-bound behaviour; 0 (default) disables it.
void SetSimulatedReadBandwidthMBps(double mbps);
double SimulatedReadBandwidthMBps();

/// Block-cache key: the table's file id (unique per open table) and the
/// block's offset in it.
struct BlockCacheKey {
  uint64_t file_id = 0;
  uint64_t offset = 0;

  bool operator==(const BlockCacheKey&) const = default;
};

struct BlockCacheKeyHash {
  size_t operator()(const BlockCacheKey& k) const {
    const uint64_t h = k.offset ^ (k.file_id * 0x9E3779B97F4A7C15ull);
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

/// Shared cache of decoded data blocks, keyed by (file id, block offset) —
/// the HBase BlockCache role.
using BlockCache = LruCache<BlockCacheKey, Block, BlockCacheKeyHash>;

/// Writes an immutable sorted-string table:
///   [data blocks][index block][footer]
/// Every block (data, index) carries a CRC32 trailer, and the footer is
/// CRC-protected too, so any single flipped byte on disk is detected at
/// read time instead of surfacing as wrong rows (the HDFS-checksum role).
/// Index entries map each data block's last key to its (offset, size); the
/// recorded size excludes the 4-byte CRC trailer. The footer holds the
/// index block's handle, the entry count and the table magic.
class SsTableBuilder {
 public:
  struct Options {
    size_t block_size = 4096;
    int restart_interval = 16;
  };

  SsTableBuilder();
  explicit SsTableBuilder(Options options);

  /// `env` nullptr means Env::Default(); `io` nullptr means OrphanIoStats().
  Status Open(const std::string& path, Env* env = nullptr,
              IoStats* io = nullptr);

  /// Keys must be strictly increasing.
  Status Add(std::string_view key, std::string_view value);

  /// Flushes all pending data, writes the footer, and fsyncs the file so a
  /// successfully finished table survives a crash.
  Status Finish();

  uint64_t num_entries() const { return num_entries_; }
  uint64_t file_size() const { return offset_; }

 private:
  Status FlushDataBlock();
  /// Writes `contents` + CRC32 trailer; returns the payload handle via
  /// `offset`/`size` (size excludes the trailer).
  Status WriteBlock(std::string_view contents, uint64_t* offset,
                    uint64_t* size);
  Status WriteRaw(std::string_view data);

  Options options_;
  std::unique_ptr<WritableFile> file_;
  IoStats* io_ = nullptr;
  std::string path_;
  BlockBuilder data_block_;
  BlockBuilder index_block_;
  uint64_t offset_ = 0;
  uint64_t num_entries_ = 0;
  std::string last_key_;
  bool pending_index_ = false;
  std::string pending_index_key_;
  uint64_t pending_offset_ = 0;
  uint64_t pending_size_ = 0;
};

/// Read side of an SSTable. Thread-safe: reads use pread. Every block read
/// is CRC-verified; a mismatch surfaces as Status::Corruption. Reads go
/// through Iterator only: the store has no point-lookup path.
class SsTableReader {
 public:
  ~SsTableReader() = default;

  /// Opens the file and loads the footer and index. `cache` may be null
  /// (blocks are then read per access). `file_id` must be unique per open
  /// table for cache keying. `env` nullptr means Env::Default(); `io`
  /// nullptr means OrphanIoStats().
  static Result<std::shared_ptr<SsTableReader>> Open(const std::string& path,
                                                     uint64_t file_id,
                                                     BlockCache* cache,
                                                     Env* env = nullptr,
                                                     IoStats* io = nullptr);

  /// Two-level iterator over the whole table. A block that fails its CRC
  /// makes the iterator invalid with a non-OK status() — callers must check
  /// status() when Valid() turns false to distinguish end-of-table from
  /// corruption.
  class Iterator {
   public:
    explicit Iterator(const SsTableReader* table);

    bool Valid() const { return valid_; }
    void SeekToFirst();
    void Seek(std::string_view target);
    void Next();

    const std::string& key() const { return data_iter_->key(); }
    std::string_view value() const { return data_iter_->value(); }

    /// OK unless iteration stopped on a corrupt or unreadable block.
    Status status() const;

   private:
    void LoadDataBlock(bool first);
    void SkipEmptyBlocks();

    const SsTableReader* table_;
    std::unique_ptr<Block::Iterator> index_iter_;
    std::shared_ptr<Block> data_block_;
    std::unique_ptr<Block::Iterator> data_iter_;
    bool valid_ = false;
    Status status_;
  };

  uint64_t num_entries() const { return num_entries_; }
  uint64_t file_size() const { return file_size_; }
  /// The unique id this table was opened with (its MANIFEST file number).
  uint64_t file_id() const { return file_id_; }
  const std::string& smallest_key() const { return smallest_key_; }
  const std::string& largest_key() const { return largest_key_; }
  const std::string& path() const { return path_; }

 private:
  SsTableReader() = default;

  /// The data block whose payload is [offset, offset+size), through the
  /// block cache.
  Result<std::shared_ptr<Block>> ReadBlock(uint64_t offset,
                                           uint64_t size) const;
  /// Reads and CRC-verifies the block whose payload is
  /// [offset, offset+size); a mismatch is Corruption.
  Result<std::shared_ptr<Block>> ReadCheckedBlock(uint64_t offset,
                                                  uint64_t size) const;
  /// Reads `size` bytes at `offset` into `dst`, counting the I/O.
  Status ReadAt(uint64_t offset, uint64_t size, char* dst) const;

  std::unique_ptr<RandomAccessFile> file_;
  IoStats* io_ = nullptr;
  std::string path_;
  uint64_t file_id_ = 0;
  uint64_t file_size_ = 0;
  uint64_t num_entries_ = 0;
  std::shared_ptr<Block> index_;
  std::string smallest_key_;
  std::string largest_key_;
  BlockCache* cache_ = nullptr;

  friend class Iterator;
};

}  // namespace just::kv

#endif  // JUST_KVSTORE_SSTABLE_H_
