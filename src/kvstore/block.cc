#include "kvstore/block.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"

namespace just::kv {

BlockBuilder::BlockBuilder(int restart_interval)
    : restart_interval_(std::max(1, restart_interval)) {
  restarts_.push_back(0);
}

void BlockBuilder::Add(std::string_view key, std::string_view value) {
  size_t shared = 0;
  if (counter_ < restart_interval_) {
    size_t min_len = std::min(last_key_.size(), key.size());
    while (shared < min_len && last_key_[shared] == key[shared]) ++shared;
  } else {
    restarts_.push_back(static_cast<uint32_t>(buffer_.size()));
    counter_ = 0;
  }
  size_t unshared = key.size() - shared;
  PutVarint64(&buffer_, shared);
  PutVarint64(&buffer_, unshared);
  PutVarint64(&buffer_, value.size());
  buffer_.append(key.data() + shared, unshared);
  buffer_.append(value.data(), value.size());
  last_key_.assign(key.data(), key.size());
  ++counter_;
  ++counter_total_;
}

std::string BlockBuilder::Finish() {
  for (uint32_t r : restarts_) PutFixed32(&buffer_, r);
  PutFixed32(&buffer_, static_cast<uint32_t>(restarts_.size()));
  std::string out;
  out.swap(buffer_);
  restarts_.assign(1, 0);
  counter_ = 0;
  counter_total_ = 0;
  last_key_.clear();
  return out;
}

Result<std::shared_ptr<Block>> Block::Parse(std::unique_ptr<char[]> data,
                                            size_t size) {
  if (size < 4) return Status::Corruption("block too small");
  auto block = std::shared_ptr<Block>(new Block());
  block->data_ = std::move(data);
  block->size_ = size;
  block->num_restarts_ = GetFixed32(block->data_.get() + size - 4);
  size_t restart_bytes = 4ull * block->num_restarts_ + 4;
  if (restart_bytes > size) {
    return Status::Corruption("bad restart array");
  }
  block->restarts_offset_ = size - restart_bytes;
  return block;
}

Result<std::shared_ptr<Block>> Block::Parse(std::string_view data) {
  auto copy = std::make_unique_for_overwrite<char[]>(data.size());
  std::memcpy(copy.get(), data.data(), data.size());
  return Parse(std::move(copy), data.size());
}

void Block::Iterator::SeekToRestart(size_t index) {
  offset_ = GetFixed32(block_->data_.get() + block_->restarts_offset_ +
                       4 * index);
  key_.clear();
  valid_ = false;
}

bool Block::Iterator::ParseEntry() {
  if (offset_ >= block_->restarts_offset_) {
    valid_ = false;
    return false;
  }
  const char* p = block_->data_.get() + offset_;
  const char* limit = block_->data_.get() + block_->restarts_offset_;
  uint64_t shared, unshared, value_len;
  if (!GetVarint64(&p, limit, &shared) ||
      !GetVarint64(&p, limit, &unshared) ||
      !GetVarint64(&p, limit, &value_len) ||
      static_cast<uint64_t>(limit - p) < unshared + value_len ||
      shared > key_.size()) {
    valid_ = false;
    status_ = Status::Corruption("bad block entry");
    return false;
  }
  key_.resize(shared);
  key_.append(p, unshared);
  value_ = std::string_view(p + unshared, value_len);
  offset_ = static_cast<size_t>(p + unshared + value_len -
                                block_->data_.get());
  valid_ = true;
  return true;
}

void Block::Iterator::SeekToFirst() {
  if (block_->num_restarts_ == 0) {
    valid_ = false;
    return;
  }
  SeekToRestart(0);
  ParseEntry();
}

void Block::Iterator::Seek(std::string_view target) {
  // Binary search over restart points for the last restart whose key is
  // < target, then scan forward.
  if (block_->num_restarts_ == 0) {
    valid_ = false;
    return;
  }
  uint32_t left = 0;
  uint32_t right = block_->num_restarts_ - 1;
  while (left < right) {
    uint32_t mid = (left + right + 1) / 2;
    SeekToRestart(mid);
    if (!ParseEntry()) return;
    if (std::string_view(key_) < target) {
      left = mid;
    } else {
      right = mid - 1;
    }
  }
  SeekToRestart(left);
  while (ParseEntry()) {
    if (std::string_view(key_) >= target) return;
  }
}

void Block::Iterator::Next() { ParseEntry(); }

}  // namespace just::kv
