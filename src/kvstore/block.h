#ifndef JUST_KVSTORE_BLOCK_H_
#define JUST_KVSTORE_BLOCK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace just::kv {

/// SSTable data-block builder with shared-prefix key compression and
/// restart points (LevelDB block format):
///   entry: [shared len: varint][unshared len: varint][value len: varint]
///          [unshared key bytes][value bytes]
///   trailer: [restart offsets: fixed32 x n][n: fixed32]
class BlockBuilder {
 public:
  explicit BlockBuilder(int restart_interval = 16);

  /// Keys must be added in strictly increasing order.
  void Add(std::string_view key, std::string_view value);

  /// Returns the serialized block and resets the builder.
  std::string Finish();

  size_t CurrentSizeEstimate() const { return buffer_.size() + 4 * (restarts_.size() + 1); }
  bool empty() const { return counter_total_ == 0; }
  const std::string& last_key() const { return last_key_; }

 private:
  int restart_interval_;
  std::string buffer_;
  std::vector<uint32_t> restarts_;
  int counter_ = 0;
  int counter_total_ = 0;
  std::string last_key_;
};

/// Read-side block with a seekable forward iterator. Owns its bytes.
class Block {
 public:
  /// Adopts `data`, whose first `size` bytes are the block (the buffer may
  /// run on, e.g. over the CRC trailer it was read with).
  static Result<std::shared_ptr<Block>> Parse(std::unique_ptr<char[]> data,
                                              size_t size);
  /// Parses a copy of `data`.
  static Result<std::shared_ptr<Block>> Parse(std::string_view data);

  class Iterator {
   public:
    explicit Iterator(const Block* block) : block_(block) {}

    bool Valid() const { return valid_; }
    void SeekToFirst();
    /// Positions at the first entry with key >= target.
    void Seek(std::string_view target);
    void Next();

    const std::string& key() const { return key_; }
    std::string_view value() const { return value_; }

    Status status() const { return status_; }

   private:
    /// Parses the entry at offset_; returns false at end or corruption.
    bool ParseEntry();
    void SeekToRestart(size_t index);

    const Block* block_;
    size_t offset_ = 0;       // offset of the next entry to parse
    std::string key_;
    std::string_view value_;
    bool valid_ = false;
    Status status_;
  };

  size_t size_bytes() const { return size_; }

 private:
  Block() = default;

  std::unique_ptr<char[]> data_;
  size_t size_ = 0;
  size_t restarts_offset_ = 0;  // where the restart array begins
  uint32_t num_restarts_ = 0;

  friend class Iterator;
};

}  // namespace just::kv

#endif  // JUST_KVSTORE_BLOCK_H_
