#include "kvstore/sstable.h"

#include <atomic>
#include <chrono>

#include "common/bytes.h"
#include "kvstore/wal.h"
#include "obs/trace.h"

namespace just::kv {

namespace {
// "JUSTSST\2": the table magic of this format.
constexpr uint64_t kTableMagic = 0x4A55535453535402ull;
// index handle (16) + num_entries (8) + magic (8) + footer crc (4).
constexpr size_t kFooterSize = 36;
constexpr size_t kBlockTrailerSize = 4;  // CRC32 of the block payload
}  // namespace

IoStats::IoStats() {
  using SK = obs::Registry::SourceKind;
  sources_.emplace_back("just_kv_bytes_read_total", SK::kCumulative,
                        [this] { return bytes_read.Value(); });
  sources_.emplace_back("just_kv_read_ops_total", SK::kCumulative,
                        [this] { return read_ops.Value(); });
  sources_.emplace_back("just_kv_bytes_written_total", SK::kCumulative,
                        [this] { return bytes_written.Value(); });
}

IoStats& OrphanIoStats() {
  static IoStats* stats = new IoStats();
  return *stats;
}

namespace {
std::atomic<double> g_simulated_read_mbps{0.0};

// Spin-waits (sleep granularity is too coarse for per-block charges).
void ChargeReadLatency(uint64_t bytes) {
  double mbps = g_simulated_read_mbps.load(std::memory_order_relaxed);
  if (mbps <= 0) return;
  int64_t ns = static_cast<int64_t>(static_cast<double>(bytes) * 1000.0 /
                                    mbps);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < deadline) {
    // spin
  }
}
}  // namespace

void SetSimulatedReadBandwidthMBps(double mbps) {
  g_simulated_read_mbps.store(mbps, std::memory_order_relaxed);
}

double SimulatedReadBandwidthMBps() {
  return g_simulated_read_mbps.load(std::memory_order_relaxed);
}

SsTableBuilder::SsTableBuilder() : SsTableBuilder(Options()) {}

SsTableBuilder::SsTableBuilder(Options options)
    : options_(options),
      data_block_(options.restart_interval),
      index_block_(options.restart_interval) {}

Status SsTableBuilder::Open(const std::string& path, Env* env, IoStats* io) {
  if (env == nullptr) env = Env::Default();
  io_ = io != nullptr ? io : &OrphanIoStats();
  path_ = path;
  JUST_ASSIGN_OR_RETURN(file_, env->NewWritableFile(path, /*truncate=*/true));
  return Status::OK();
}

Status SsTableBuilder::WriteRaw(std::string_view data) {
  JUST_RETURN_NOT_OK(file_->Append(data));
  offset_ += data.size();
  io_->bytes_written.Add(data.size());
  return Status::OK();
}

Status SsTableBuilder::WriteBlock(std::string_view contents, uint64_t* offset,
                                  uint64_t* size) {
  *offset = offset_;
  *size = contents.size();
  JUST_RETURN_NOT_OK(WriteRaw(contents));
  std::string trailer;
  PutFixed32(&trailer, Crc32(contents));
  return WriteRaw(trailer);
}

Status SsTableBuilder::Add(std::string_view key, std::string_view value) {
  if (file_ == nullptr) return Status::IOError("builder not open");
  if (num_entries_ > 0 && std::string_view(last_key_) >= key) {
    return Status::InvalidArgument("keys out of order in sstable build");
  }
  if (pending_index_) {
    // Index the finished block by its last key (shortest separator would be
    // an optimization; last key is correct).
    std::string handle;
    PutVarint64(&handle, pending_offset_);
    PutVarint64(&handle, pending_size_);
    index_block_.Add(pending_index_key_, handle);
    pending_index_ = false;
  }
  data_block_.Add(key, value);
  last_key_.assign(key.data(), key.size());
  ++num_entries_;
  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    JUST_RETURN_NOT_OK(FlushDataBlock());
  }
  return Status::OK();
}

Status SsTableBuilder::FlushDataBlock() {
  if (data_block_.empty()) return Status::OK();
  pending_index_key_ = data_block_.last_key();
  std::string block = data_block_.Finish();
  pending_index_ = true;
  return WriteBlock(block, &pending_offset_, &pending_size_);
}

Status SsTableBuilder::Finish() {
  if (file_ == nullptr) return Status::IOError("builder not open");
  JUST_RETURN_NOT_OK(FlushDataBlock());
  if (pending_index_) {
    std::string handle;
    PutVarint64(&handle, pending_offset_);
    PutVarint64(&handle, pending_size_);
    index_block_.Add(pending_index_key_, handle);
    pending_index_ = false;
  }
  uint64_t index_offset, index_size;
  JUST_RETURN_NOT_OK(
      WriteBlock(index_block_.Finish(), &index_offset, &index_size));

  std::string footer;
  PutFixed64(&footer, index_offset);
  PutFixed64(&footer, index_size);
  PutFixed64(&footer, num_entries_);
  PutFixed64(&footer, kTableMagic);
  PutFixed32(&footer, Crc32(footer));
  JUST_RETURN_NOT_OK(WriteRaw(footer));

  // A finished table must survive a crash: sync before reporting success.
  Status st = file_->Sync();
  if (st.ok()) st = file_->Close();
  file_ = nullptr;
  return st;
}

Status SsTableReader::ReadAt(uint64_t offset, uint64_t size,
                             char* dst) const {
  JUST_RETURN_NOT_OK(file_->Read(offset, size, dst));
  io_->bytes_read.Add(size);
  io_->read_ops.Increment();
  obs::TraceBytesRead(size);
  ChargeReadLatency(size);
  return Status::OK();
}

Result<std::shared_ptr<SsTableReader>> SsTableReader::Open(
    const std::string& path, uint64_t file_id, BlockCache* cache, Env* env,
    IoStats* io) {
  if (env == nullptr) env = Env::Default();
  auto table = std::shared_ptr<SsTableReader>(new SsTableReader());
  table->path_ = path;
  table->file_id_ = file_id;
  table->cache_ = cache;
  table->io_ = io != nullptr ? io : &OrphanIoStats();
  JUST_ASSIGN_OR_RETURN(table->file_, env->NewRandomAccessFile(path));
  JUST_ASSIGN_OR_RETURN(table->file_size_, env->GetFileSize(path));
  if (table->file_size_ < kFooterSize) {
    return Status::Corruption("sstable too small: " + path);
  }
  char footer[kFooterSize];
  JUST_RETURN_NOT_OK(
      table->ReadAt(table->file_size_ - kFooterSize, kFooterSize, footer));
  const char* p = footer;
  if (Crc32(std::string_view(footer, kFooterSize - 4)) !=
      GetFixed32(p + kFooterSize - 4)) {
    return Status::Corruption("sstable footer checksum mismatch: " + path);
  }
  uint64_t index_offset = GetFixed64(p);
  uint64_t index_size = GetFixed64(p + 8);
  table->num_entries_ = GetFixed64(p + 16);
  if (GetFixed64(p + 24) != kTableMagic) {
    return Status::Corruption("bad sstable magic: " + path);
  }

  // Index block: corruption is fatal for the table.
  JUST_ASSIGN_OR_RETURN(table->index_,
                        table->ReadCheckedBlock(index_offset, index_size));

  // Key bounds, for scan/compaction pruning.
  Iterator it(table.get());
  it.SeekToFirst();
  JUST_RETURN_NOT_OK(it.status());
  if (it.Valid()) {
    table->smallest_key_ = it.key();
    Block::Iterator idx(table->index_.get());
    idx.SeekToFirst();
    std::string last_block_key;
    while (idx.Valid()) {
      last_block_key = idx.key();
      idx.Next();
    }
    table->largest_key_ = last_block_key;
  }
  return table;
}

Result<std::shared_ptr<Block>> SsTableReader::ReadBlock(uint64_t offset,
                                                        uint64_t size) const {
  const BlockCacheKey key{file_id_, offset};
  if (cache_ != nullptr) {
    auto cached = cache_->Lookup(key);
    if (cached != nullptr) {
      obs::TraceCacheHit();
      return cached;
    }
    obs::TraceCacheMiss();
  }
  JUST_ASSIGN_OR_RETURN(auto block, ReadCheckedBlock(offset, size));
  if (cache_ != nullptr) {
    cache_->Insert(key, block, block->size_bytes());
  }
  return block;
}

Result<std::shared_ptr<Block>> SsTableReader::ReadCheckedBlock(
    uint64_t offset, uint64_t size) const {
  // pread fills the buffer, so it is never zero-filled first; the block
  // adopts it, CRC trailer and all.
  auto data = std::make_unique_for_overwrite<char[]>(size + kBlockTrailerSize);
  JUST_RETURN_NOT_OK(ReadAt(offset, size + kBlockTrailerSize, data.get()));
  if (Crc32(std::string_view(data.get(), size)) !=
      GetFixed32(data.get() + size)) {
    return Status::Corruption("block checksum mismatch in " + path_);
  }
  return Block::Parse(std::move(data), size);
}

SsTableReader::Iterator::Iterator(const SsTableReader* table)
    : table_(table),
      index_iter_(std::make_unique<Block::Iterator>(table->index_.get())) {}

Status SsTableReader::Iterator::status() const {
  if (!status_.ok()) return status_;
  if (data_iter_ != nullptr) return data_iter_->status();
  return Status::OK();
}

void SsTableReader::Iterator::LoadDataBlock(bool first) {
  data_block_ = nullptr;
  data_iter_ = nullptr;
  valid_ = false;
  if (!index_iter_->Valid()) return;
  const char* p = index_iter_->value().data();
  const char* limit = p + index_iter_->value().size();
  uint64_t offset, size;
  if (!GetVarint64(&p, limit, &offset) || !GetVarint64(&p, limit, &size)) {
    status_ = Status::Corruption("bad index entry in " + table_->path_);
    return;
  }
  auto block = table_->ReadBlock(offset, size);
  if (!block.ok()) {
    // Surface unreadable/corrupt blocks instead of silently ending the scan.
    status_ = block.status();
    return;
  }
  data_block_ = block.value();
  data_iter_ = std::make_unique<Block::Iterator>(data_block_.get());
  if (first) data_iter_->SeekToFirst();
  valid_ = data_iter_->Valid();
}

void SsTableReader::Iterator::SkipEmptyBlocks() {
  while (!valid_ && status_.ok() && index_iter_->Valid()) {
    index_iter_->Next();
    if (!index_iter_->Valid()) break;
    LoadDataBlock(true);
  }
}

void SsTableReader::Iterator::SeekToFirst() {
  status_ = Status::OK();
  index_iter_->SeekToFirst();
  LoadDataBlock(true);
  SkipEmptyBlocks();
}

void SsTableReader::Iterator::Seek(std::string_view target) {
  // Index keys are block last-keys, so the candidate block is the first
  // index entry with key >= target.
  status_ = Status::OK();
  index_iter_->Seek(target);
  LoadDataBlock(false);
  if (data_iter_ != nullptr) {
    data_iter_->Seek(target);
    valid_ = data_iter_->Valid();
  }
  SkipEmptyBlocks();
}

void SsTableReader::Iterator::Next() {
  if (!valid_) return;
  data_iter_->Next();
  valid_ = data_iter_->Valid();
  SkipEmptyBlocks();
}

}  // namespace just::kv
