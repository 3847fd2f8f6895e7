#include "kvstore/lsm_store.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace just::kv {

namespace {
// Internal values carry a 1-byte type tag so deletes leave tombstones that
// mask older SSTable entries until compaction drops them.
constexpr char kTypePut = 'P';
constexpr char kTypeDelete = 'D';

// A group-commit leader stops absorbing followers once the batch reaches
// this many WAL bytes, so one giant writer cannot add unbounded latency to
// the small writers queued behind it.
constexpr size_t kMaxGroupCommitBytes = 1 << 20;

// A failed background flush is retried this many times (transient fault
// tolerance) before the error latches into bg_error_ and the store goes
// read-only for writes. The WAL segments covering the stuck memtable are
// retained, so nothing acknowledged is lost.
constexpr int kBgFlushAttempts = 3;

// The store's on-disk format stamp: the MANIFEST's first line. Open refuses
// a MANIFEST with any other first line (NotSupported), before it touches a
// file.
constexpr std::string_view kManifestHeader = "just-manifest 3";

std::string MakeInternalValue(char type, std::string_view value) {
  std::string v;
  v.reserve(value.size() + 1);
  v.push_back(type);
  v.append(value.data(), value.size());
  return v;
}

// Keys are arbitrary bytes but the MANIFEST is line-oriented text, so file
// key ranges are hex-encoded. The empty key encodes as "-" (an empty hex
// field would make the line ambiguous to split).
std::string HexEncodeKey(std::string_view key) {
  if (key.empty()) return "-";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(key.size() * 2);
  for (unsigned char c : key) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

bool HexDecodeKey(std::string_view hex, std::string* out) {
  out->clear();
  if (hex == "-") return true;
  if (hex.size() % 2 != 0) return false;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  out->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

/// Parses "NNNNNN.sst" -> file number; nullopt for any other name.
bool ParseSstName(const std::string& name, uint64_t* num) {
  constexpr std::string_view kSuffix = ".sst";
  if (name.size() <= kSuffix.size() ||
      name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
          0) {
    return false;
  }
  std::string digits = name.substr(0, name.size() - kSuffix.size());
  if (digits.empty()) return false;
  for (char c : digits) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  *num = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

/// Parses "wal-NNNNNN.log" -> segment number.
bool ParseWalSegmentName(const std::string& name, uint64_t* num) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".log";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return false;
  }
  std::string digits =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  if (digits.empty()) return false;
  for (char c : digits) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  *num = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

bool EndsWith(const std::string& name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

bool RangesOverlap(std::string_view a_lo, std::string_view a_hi,
                   std::string_view b_lo, std::string_view b_hi) {
  return !(a_hi < b_lo || b_hi < a_lo);
}

obs::Counter* WriteStallCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("just_kv_write_stalls_total");
  return c;
}

obs::Histogram* WriteStallHist() {
  static obs::Histogram* h =
      obs::Registry::Global().GetHistogram("just_kv_write_stall_us");
  return h;
}

obs::Histogram* GroupCommitBatchHist() {
  static obs::Histogram* h =
      obs::Registry::Global().GetHistogram("just_kv_group_commit_batch_ops");
  return h;
}

obs::Counter* FlushCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("just_kv_flushes_total");
  return c;
}

obs::Histogram* FlushHist() {
  static obs::Histogram* h =
      obs::Registry::Global().GetHistogram("just_kv_bg_flush_us");
  return h;
}

obs::Counter* FlushOutputBytesCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("just_kv_flush_output_bytes_total");
  return c;
}

obs::Counter* CompactionCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("just_kv_compactions_total");
  return c;
}

obs::Counter* CompactionInputBytesCounter() {
  static obs::Counter* c = obs::Registry::Global().GetCounter(
      "just_kv_compaction_input_bytes_total");
  return c;
}

obs::Counter* CompactionOutputBytesCounter() {
  static obs::Counter* c = obs::Registry::Global().GetCounter(
      "just_kv_compaction_output_bytes_total");
  return c;
}

obs::Counter* TrivialMoveCounter() {
  static obs::Counter* c = obs::Registry::Global().GetCounter(
      "just_kv_compaction_trivial_moves_total");
  return c;
}

obs::Histogram* CompactionHist() {
  static obs::Histogram* h =
      obs::Registry::Global().GetHistogram("just_kv_compaction_us");
  return h;
}

/// Registers (once, process-wide) the derived write-amplification gauge:
/// 100 * (flush bytes + compaction output bytes) / flush bytes. 100 means a
/// byte is written exactly once after the WAL; each rewrite adds ~100. The
/// callback reads the warmed static counters directly — a registry snapshot
/// holds the registry mutex while calling it, so it must not call back into
/// Registry::Get*. The source is intentionally never destructed (static
/// destruction order vs the registry is unspecified); `volatile` keeps the
/// never-read pointer stored at -O2 so LeakSanitizer sees it as reachable.
void EnsureWriteAmpSource() {
  static obs::ScopedSource* volatile source = new obs::ScopedSource(
      "just_kv_write_amp_x100", obs::Registry::SourceKind::kLive, [] {
        uint64_t flushed = FlushOutputBytesCounter()->Value();
        uint64_t compacted = CompactionOutputBytesCounter()->Value();
        return flushed == 0 ? uint64_t{0}
                            : (flushed + compacted) * 100 / flushed;
      });
  (void)source;
}

/// Merge-reads one L1+ level: the files are sorted and non-overlapping, so
/// the level reads as a single sorted run through one open SSTable iterator
/// at a time. Seek binary-searches the file list first.
class LevelIterator {
 public:
  explicit LevelIterator(std::vector<std::shared_ptr<SsTableReader>> files)
      : files_(std::move(files)) {}

  /// True when some file of the level overlaps [start, end).
  bool MayContain(std::string_view start, std::string_view end) const {
    size_t idx = FirstFileEndingAtOrAfter(start);
    return idx < files_.size() &&
           (end.empty() || std::string_view(files_[idx]->smallest_key()) < end);
  }

  void Seek(std::string_view target) {
    size_t idx = FirstFileEndingAtOrAfter(target);
    if (idx >= files_.size()) {
      idx_ = idx;
      iter_.reset();
      return;
    }
    if (iter_ == nullptr || idx != idx_) {
      idx_ = idx;
      iter_ = std::make_unique<SsTableReader::Iterator>(files_[idx_].get());
    }
    iter_->Seek(target);
    SkipExhaustedFiles();
  }

  bool Valid() const { return iter_ != nullptr && iter_->Valid(); }
  const std::string& key() const { return iter_->key(); }
  std::string_view value() const { return iter_->value(); }

  void Next() {
    iter_->Next();
    SkipExhaustedFiles();
  }

  Status status() const {
    return iter_ != nullptr ? iter_->status() : Status::OK();
  }

 private:
  size_t FirstFileEndingAtOrAfter(std::string_view key) const {
    return static_cast<size_t>(
        std::lower_bound(files_.begin(), files_.end(), key,
                         [](const std::shared_ptr<SsTableReader>& t,
                            std::string_view k) {
                           return std::string_view(t->largest_key()) < k;
                         }) -
        files_.begin());
  }

  void SkipExhaustedFiles() {
    while (iter_ != nullptr && !iter_->Valid() && iter_->status().ok()) {
      if (++idx_ >= files_.size()) {
        iter_.reset();
        return;
      }
      iter_ = std::make_unique<SsTableReader::Iterator>(files_[idx_].get());
      iter_->SeekToFirst();
    }
  }

  std::vector<std::shared_ptr<SsTableReader>> files_;
  size_t idx_ = 0;
  std::unique_ptr<SsTableReader::Iterator> iter_;
};

using TableList = std::vector<std::shared_ptr<SsTableReader>>;
using RowList = std::vector<std::pair<std::string, std::string>>;

/// One input of the store's k-way merge, built with designated
/// initializers: the active memtable's rows copied per range (`vec`, range
/// r reading [vec_windows[r], vec_windows[r + 1])), a frozen memtable
/// (`mem`), one SSTable (`table` + `sst`), or one L1+ level read as a
/// single sorted run (`lvl`). A tagged struct, not a virtual interface, so
/// the merge's per-row calls stay direct.
struct Source {
  const RowList* vec = nullptr;
  const std::vector<size_t>* vec_windows = nullptr;
  size_t vec_pos = 0;
  size_t vec_end = 0;
  std::unique_ptr<SkipList::Iterator> mem;
  const SsTableReader* table = nullptr;
  std::unique_ptr<SsTableReader::Iterator> sst;
  std::unique_ptr<LevelIterator> lvl;
  /// The source sits at its first key >= pos_lo — so also at the first
  /// key >= t for every t between pos_lo and its current key, and a later
  /// range starting in that window needs no seek (no block re-read).
  /// A view into the caller's ranges: a seek target, or the end of a
  /// range the source has since been merged through.
  std::string_view pos_lo;
  bool positioned = false;

  bool Valid() const {
    if (vec != nullptr) return vec_pos < vec_end;
    if (mem != nullptr) return mem->Valid();
    if (sst != nullptr) return sst->Valid();
    return lvl->Valid();
  }
  Status status() const {
    if (sst != nullptr) return sst->status();
    if (lvl != nullptr) return lvl->status();
    return Status::OK();
  }
  std::string_view key() const {
    if (vec != nullptr) return (*vec)[vec_pos].first;
    if (mem != nullptr) return mem->key();
    if (sst != nullptr) return sst->key();
    return lvl->key();
  }
  std::string_view value() const {
    if (vec != nullptr) return (*vec)[vec_pos].second;
    if (mem != nullptr) return mem->value();
    if (sst != nullptr) return sst->value();
    return lvl->value();
  }
  void Next() {
    if (vec != nullptr) {
      ++vec_pos;
    } else if (mem != nullptr) {
      mem->Next();
    } else if (sst != nullptr) {
      sst->Next();
    } else {
      lvl->Next();
    }
  }
  /// Whether this source can hold keys in [start, end). Tables and levels
  /// answer from their key bounds for free; the caller skips the rest.
  bool MayContain(std::string_view start, std::string_view end) const {
    if (table != nullptr) {
      if (!end.empty() && std::string_view(table->smallest_key()) >= end) {
        return false;
      }
      return std::string_view(table->largest_key()) >= start ||
             table->largest_key().empty();
    }
    if (lvl != nullptr) return lvl->MayContain(start, end);
    return true;
  }
  /// Positions the source for range `r` starting at `target`.
  void Seek(size_t r, std::string_view target) {
    if (vec != nullptr) {
      vec_pos = (*vec_windows)[r];
      vec_end = (*vec_windows)[r + 1];
      return;
    }
    if (positioned && pos_lo <= target &&
        (Valid() ? key() >= target : status().ok())) {
      return;
    }
    pos_lo = target;
    positioned = true;
    if (mem != nullptr) {
      mem->Seek(std::string(target));
    } else if (sst != nullptr) {
      sst->Seek(target);
    } else {
      lvl->Seek(target);
    }
  }
};

/// Appends the sources of a tree's tables in precedence order: `tables`
/// one source each (newest first), then one source per non-empty run
/// (newest first) — a run is sorted and non-overlapping, so it costs one
/// heap slot however many files it holds.
void AppendTableSources(const TableList& tables, std::vector<TableList> runs,
                        std::vector<Source>* sources) {
  for (const auto& table : tables) {
    sources->push_back(Source{
        .table = table.get(),
        .sst = std::make_unique<SsTableReader::Iterator>(table.get())});
  }
  for (TableList& run : runs) {
    if (run.empty()) continue;
    sources->push_back(
        Source{.lvl = std::make_unique<LevelIterator>(std::move(run))});
  }
}

/// The store's one k-way merge, serving Scan and every compaction.
/// `sources` are in precedence order (lower index = newer). For each range
/// in list order it calls fn(range, key, internal_value) once per distinct
/// key in [start, end), in key order, with the newest source's internal
/// value — tombstones included: Scan drops them, a compaction keeps them
/// unless its output is the bottom-most data. `fn` returning false ends the
/// merge. A source that stops on a corrupt or unreadable block fails the
/// merge instead of silently shortening it. A template, so `fn` inlines
/// into the per-row loop.
template <typename Fn>
Status MergeSources(std::vector<Source>& sources,
                    const std::vector<ScanRange>& ranges, Fn&& fn) {
  // The heap orders source indices by current key, ties broken toward the
  // lower (newer) index so the freshest version of a key pops first and
  // older duplicates are skipped via last_emitted.
  auto newer_first = [&sources](int a, int b) {
    int c = sources[static_cast<size_t>(a)].key().compare(
        sources[static_cast<size_t>(b)].key());
    if (c != 0) return c > 0;  // min-heap on key
    return a > b;              // equal keys: lower index (newer) on top
  };
  std::vector<int> heap;
  heap.reserve(sources.size());
  std::vector<int> merged;  ///< sources the current range merges
  merged.reserve(sources.size());
  std::string last_emitted;
  for (size_t r = 0; r < ranges.size(); ++r) {
    const std::string_view start = ranges[r].start;
    const std::string_view end = ranges[r].end;
    merged.clear();
    for (size_t i = 0; i < sources.size(); ++i) {
      Source& s = sources[i];
      if (!s.MayContain(start, end)) continue;
      s.Seek(r, start);
      if (s.Valid()) {
        merged.push_back(static_cast<int>(i));
      } else {
        JUST_RETURN_NOT_OK(s.status());
      }
    }
    heap = merged;
    std::make_heap(heap.begin(), heap.end(), newer_first);

    bool have_last = false;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), newer_first);
      int i = heap.back();
      heap.pop_back();
      Source& s = sources[static_cast<size_t>(i)];
      std::string_view key = s.key();
      if (!end.empty() && key >= end) {
        continue;  // this source is done with the range; keys only grow
      }
      if (!have_last || key != last_emitted) {
        last_emitted.assign(key);
        have_last = true;
        if (!fn(r, std::string_view(last_emitted), s.value())) {
          return Status::OK();
        }
      }
      s.Next();
      if (s.Valid()) {
        heap.push_back(i);
        std::push_heap(heap.begin(), heap.end(), newer_first);
      } else {
        JUST_RETURN_NOT_OK(s.status());
      }
    }
    // Every merged source consumed its keys in [start, end) and now sits at
    // its first key >= end; one merged to the last key has nothing left to
    // tell a later range and re-seeks.
    for (int i : merged) {
      Source& s = sources[static_cast<size_t>(i)];
      if (end.empty()) {
        s.positioned = false;
      } else if (start < end) {
        s.pos_lo = end;
      }
    }
  }
  return Status::OK();
}
}  // namespace

/// One queued write. The front of writers_ is the leader: it commits its own
/// ops plus every follower's in a single WAL append (+ at most one fsync),
/// then distributes the shared status and hands leadership to the new front.
struct LsmStore::Writer {
  const WriteOp* ops = nullptr;
  size_t count = 0;
  bool flush_request = false;
  bool done = false;
  Status status;
  std::condition_variable cv;
};

/// The store's one table writer: a flush and every compaction stream their
/// entries, in key order, through one. The first Add after an output closed
/// opens the next as NNNNNN.sst.tmp; an output closes — Finish (which
/// fsyncs), rename into place, open a reader — once it reaches `roll_bytes`
/// (0: never, the output stays one table) and at Finish(). Runs without the
/// store lock: every store field it reads is immutable after Open() except
/// the atomic file counter. Nothing it writes is referenced until the
/// caller installs outputs() and commits the MANIFEST; until then
/// Abandon() removes the open tmp and every closed output.
class LsmStore::TableWriter {
 public:
  TableWriter(LsmStore* store, uint64_t roll_bytes)
      : store_(store), roll_bytes_(roll_bytes) {}

  Status Add(std::string_view key, std::string_view value) {
    if (builder_ == nullptr) JUST_RETURN_NOT_OK(OpenOutput());
    JUST_RETURN_NOT_OK(builder_->Add(key, value));
    if (roll_bytes_ > 0 && builder_->file_size() >= roll_bytes_) {
      return CloseOutput();
    }
    return Status::OK();
  }

  /// Closes the open output, if any.
  Status Finish() { return builder_ != nullptr ? CloseOutput() : Status::OK(); }

  void Abandon() {
    builder_.reset();
    if (!pending_path_.empty()) (void)store_->env_->RemoveFile(pending_path_);
    pending_path_.clear();
    for (const auto& table : outputs_) {
      (void)store_->env_->RemoveFile(table->path());
    }
    outputs_.clear();
  }

  const TableList& outputs() const { return outputs_; }

  uint64_t output_bytes() const {
    uint64_t total = 0;
    for (const auto& table : outputs_) total += table->file_size();
    return total;
  }

 private:
  Status OpenOutput() {
    number_ = store_->next_file_number_.fetch_add(1);
    pending_path_ = store_->SstPath(number_) + ".tmp";
    SsTableBuilder::Options bopts;
    bopts.block_size = store_->options_.block_size;
    builder_ = std::make_unique<SsTableBuilder>(bopts);
    return builder_->Open(pending_path_, store_->env_, &store_->io_stats_);
  }

  Status CloseOutput() {
    // Finish syncs the tmp file; the rename publishes it atomically.
    Status st = builder_->Finish();
    builder_.reset();
    JUST_RETURN_NOT_OK(st);
    const std::string path = store_->SstPath(number_);
    JUST_RETURN_NOT_OK(store_->env_->RenameFile(pending_path_, path));
    pending_path_ = path;
    JUST_ASSIGN_OR_RETURN(
        auto reader,
        SsTableReader::Open(path, number_, store_->block_cache_.get(),
                            store_->env_, &store_->io_stats_));
    pending_path_.clear();
    outputs_.push_back(std::move(reader));
    return Status::OK();
  }

  LsmStore* store_;
  const uint64_t roll_bytes_;
  std::unique_ptr<SsTableBuilder> builder_;  ///< the open output, if any
  uint64_t number_ = 0;                      ///< its file number
  /// The open output's tmp file, or its final path between the rename and
  /// its reader opening: what Abandon() must remove beyond outputs_.
  std::string pending_path_;
  TableList outputs_;
};

LsmStore::LsmStore(const StoreOptions& options)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()),
      memtable_(std::make_shared<SkipList>()),
      block_cache_(
          std::make_unique<BlockCache>(options.block_cache_bytes)) {
  options_.num_levels = std::max(2, options_.num_levels);
  options_.level_fanout = std::max(2, options_.level_fanout);
  options_.target_file_size = std::max<size_t>(1, options_.target_file_size);
  levels_.resize(static_cast<size_t>(options_.num_levels));
  compact_cursor_.resize(levels_.size());
  // Resolve every registry entry the write path records into up front.
  // Registry snapshots invoke the live sources below while holding the
  // registry mutex, and those sources take mu_ — so mu_ holders must never
  // call back into Registry::Get* (lock-order inversion). After this warm-up
  // the accessors are initialized statics and recording is lock-free.
  WriteStallCounter();
  WriteStallHist();
  GroupCommitBatchHist();
  FlushCounter();
  FlushHist();
  FlushOutputBytesCounter();
  CompactionCounter();
  CompactionInputBytesCounter();
  CompactionOutputBytesCounter();
  TrivialMoveCounter();
  CompactionHist();
  EnsureWriteAmpSource();
  using SK = obs::Registry::SourceKind;
  metric_sources_.emplace_back("just_kv_block_cache_hits_total",
                               SK::kCumulative,
                               [this] { return block_cache_->hits(); });
  metric_sources_.emplace_back("just_kv_block_cache_misses_total",
                               SK::kCumulative,
                               [this] { return block_cache_->misses(); });
  metric_sources_.emplace_back("just_kv_disk_bytes", SK::kLive, [this] {
    std::shared_lock lock(mu_);
    uint64_t total = 0;
    for (const auto& level : levels_) {
      for (const auto& table : level) total += table->file_size();
    }
    return total;
  });
  metric_sources_.emplace_back("just_kv_memtable_bytes", SK::kLive, [this] {
    std::shared_lock lock(mu_);
    uint64_t total = memtable_->ApproximateBytes();
    if (imm_ != nullptr) total += imm_->ApproximateBytes();
    return total;
  });
  metric_sources_.emplace_back("just_kv_sstables", SK::kLive, [this] {
    std::shared_lock lock(mu_);
    return static_cast<uint64_t>(TotalTablesLocked());
  });
  metric_sources_.emplace_back("just_kv_flush_queue_depth", SK::kLive,
                               [this] {
                                 std::shared_lock lock(mu_);
                                 return static_cast<uint64_t>(
                                     imm_ != nullptr ? 1 : 0);
                               });
}

void LsmStore::RegisterLevelMetricSources() {
  using SK = obs::Registry::SourceKind;
  for (size_t i = 0; i < levels_.size(); ++i) {
    metric_sources_.emplace_back(
        "just_kv_level" + std::to_string(i) + "_files", SK::kLive, [this, i] {
          std::shared_lock lock(mu_);
          return i < levels_.size() ? static_cast<uint64_t>(levels_[i].size())
                                    : uint64_t{0};
        });
    metric_sources_.emplace_back(
        "just_kv_level" + std::to_string(i) + "_bytes", SK::kLive, [this, i] {
          std::shared_lock lock(mu_);
          uint64_t total = 0;
          if (i < levels_.size()) {
            for (const auto& table : levels_[i]) total += table->file_size();
          }
          return total;
        });
  }
}

LsmStore::~LsmStore() {
  {
    std::unique_lock lock(mu_);
    stop_bg_ = true;
    bg_cv_.notify_all();
  }
  if (bg_thread_.joinable()) bg_thread_.join();
  // Durability of the memtable is the WAL's job; just close cleanly. The
  // background thread is gone and the API contract forbids concurrent calls
  // with destruction, so wal_ is safe to touch here.
  std::unique_lock lock(mu_);
  wal_.Sync();
  wal_.Close();
}

std::string LsmStore::SstPath(uint64_t file_number) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/%06llu.sst",
                static_cast<unsigned long long>(file_number));
  return options_.dir + buf;
}

std::string LsmStore::WalSegmentPath(uint64_t segment) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/wal-%06llu.log",
                static_cast<unsigned long long>(segment));
  return options_.dir + buf;
}

Result<std::unique_ptr<LsmStore>> LsmStore::Open(const StoreOptions& options) {
  auto store = std::unique_ptr<LsmStore>(new LsmStore(options));
  JUST_RETURN_NOT_OK(store->env_->CreateDirs(options.dir));
  JUST_RETURN_NOT_OK(store->Recover());
  // Recover may have grown levels_ past num_levels (a MANIFEST written with
  // more levels), so the per-level gauges register only now, with the level
  // count settled.
  store->RegisterLevelMetricSources();
  store->bg_thread_ = std::thread(&LsmStore::BackgroundLoop, store.get());
  return store;
}

Status LsmStore::ParseManifestLocked(const std::string& contents,
                                     std::set<uint64_t>* live) {
  const std::string_view first =
      std::string_view(contents).substr(0, contents.find('\n'));
  if (first != kManifestHeader) {
    return Status::NotSupported("MANIFEST starts with '" +
                                std::string(first.substr(0, 64)) + "', not '" +
                                std::string(kManifestHeader) +
                                "': " + options_.dir);
  }
  // Split into whitespace-separated tokens per line.
  std::vector<std::vector<std::string>> lines;
  {
    std::vector<std::string> tokens;
    std::string token;
    for (char c : contents) {
      if (c == '\n') {
        if (!token.empty()) tokens.push_back(std::move(token));
        token.clear();
        if (!tokens.empty()) lines.push_back(std::move(tokens));
        tokens.clear();
      } else if (c == ' ' || c == '\r' || c == '\t') {
        if (!token.empty()) tokens.push_back(std::move(token));
        token.clear();
      } else {
        token.push_back(c);
      }
    }
    if (!token.empty()) tokens.push_back(std::move(token));
    if (!tokens.empty()) lines.push_back(std::move(tokens));
  }

  auto open_table = [&](uint64_t num, size_t level)
      -> Result<std::shared_ptr<SsTableReader>> {
    JUST_ASSIGN_OR_RETURN(
        auto reader,
        SsTableReader::Open(SstPath(num), num, block_cache_.get(), env_,
                            &io_stats_));
    if (level >= levels_.size()) {
      levels_.resize(level + 1);
      compact_cursor_.resize(level + 1);
    }
    levels_[level].push_back(reader);
    live->insert(num);
    next_file_number_ = std::max(next_file_number_.load(), num + 1);
    return reader;
  };

  for (size_t i = 1; i < lines.size(); ++i) {  // lines[0] is the header
    const auto& line = lines[i];
    if (line[0] == "wal" && line.size() == 2) {
      min_wal_number_ = std::strtoull(line[1].c_str(), nullptr, 10);
      continue;
    }
    // "file <level> <number> <smallest-hex> <largest-hex>"
    if (line[0] != "file" || line.size() != 5) {
      return Status::Corruption("malformed MANIFEST line");
    }
    uint64_t level = std::strtoull(line[1].c_str(), nullptr, 10);
    uint64_t num = std::strtoull(line[2].c_str(), nullptr, 10);
    if (num == 0 || level > 1000) {
      return Status::Corruption("malformed MANIFEST file entry");
    }
    std::string smallest;
    std::string largest;
    if (!HexDecodeKey(line[3], &smallest) ||
        !HexDecodeKey(line[4], &largest)) {
      return Status::Corruption("malformed MANIFEST key range");
    }
    JUST_ASSIGN_OR_RETURN(auto reader,
                          open_table(num, static_cast<size_t>(level)));
    // The recorded range is a consistency check on the table contents: a
    // mismatch means the MANIFEST and the .sst diverged (e.g. a partially
    // restored backup) and range pruning would silently skip data.
    if (reader->smallest_key() != smallest ||
        reader->largest_key() != largest) {
      return Status::Corruption("MANIFEST key range mismatch for file " +
                                std::to_string(num));
    }
  }

  // Deeper levels must read as sorted non-overlapping runs. The MANIFEST
  // records files in that order, but trust nothing that cheap to verify.
  for (size_t level = 1; level < levels_.size(); ++level) {
    auto& files = levels_[level];
    std::sort(files.begin(), files.end(),
              [](const auto& a, const auto& b) {
                return a->smallest_key() < b->smallest_key();
              });
    for (size_t i = 1; i < files.size(); ++i) {
      if (files[i]->smallest_key() <= files[i - 1]->largest_key()) {
        return Status::Corruption("overlapping tables at level " +
                                  std::to_string(level));
      }
    }
  }
  return Status::OK();
}

Status LsmStore::Recover() {
  std::unique_lock lock(mu_);
  // 1) Manifest -> live SSTables + minimum live WAL segment. The "wal N"
  // line makes stale segments harmless: even if deleting a flushed segment
  // failed (crash, transient fault), replay skips everything below N, so an
  // old record can never resurrect over newer flushed data.
  //
  // A store of this format commits its MANIFEST before its first WAL
  // segment, so store files without a MANIFEST are an older build's. Like
  // a MANIFEST of another format, they are refused before any file changes.
  std::set<uint64_t> live;
  std::string manifest_path = options_.dir + "/MANIFEST";
  const bool fresh = !env_->FileExists(manifest_path);
  if (fresh) {
    JUST_ASSIGN_OR_RETURN(auto names, env_->ListDir(options_.dir));
    for (const std::string& name : names) {
      if (EndsWith(name, ".sst") || EndsWith(name, ".log")) {
        return Status::NotSupported("store file " + name +
                                    " without a MANIFEST (an older format): " +
                                    options_.dir);
      }
    }
  } else {
    std::string manifest;
    JUST_RETURN_NOT_OK(env_->ReadFileToString(manifest_path, &manifest));
    JUST_RETURN_NOT_OK(ParseManifestLocked(manifest, &live));
  }
  // 2) Quarantine partial flush/compaction leftovers so they can never be
  // mistaken for live data (and never collide with reused file numbers).
  JUST_RETURN_NOT_OK(QuarantineStrays(live));
  // A new store is stamped before anything else is written to it.
  if (fresh) JUST_RETURN_NOT_OK(WriteManifestLocked());
  // 3) WAL segments -> memtable, in segment order (newer segments overwrite
  // older ones). Segments below the manifest's minimum are dead: delete
  // them (best-effort) instead of replaying.
  std::set<uint64_t> found;
  JUST_ASSIGN_OR_RETURN(auto names, env_->ListDir(options_.dir));
  for (const std::string& name : names) {
    uint64_t seg = 0;
    if (ParseWalSegmentName(name, &seg)) found.insert(seg);
  }
  uint64_t max_seg = 0;
  for (uint64_t seg : found) {
    max_seg = std::max(max_seg, seg);
    if (seg < min_wal_number_) {
      (void)env_->RemoveFile(WalSegmentPath(seg));
      continue;
    }
    JUST_RETURN_NOT_OK(ReplayWal(
        WalSegmentPath(seg),
        [this](WalRecordType type, std::string_view key,
               std::string_view value) {
          memtable_->Put(std::string(key),
                         MakeInternalValue(type == WalRecordType::kPut
                                               ? kTypePut
                                               : kTypeDelete,
                                           value));
        },
        env_));
    wal_segments_.insert(seg);
  }
  if (memtable_->size() == 0) {
    // Nothing replayable: the old segments are dead weight, drop them.
    for (uint64_t seg : wal_segments_) {
      (void)env_->RemoveFile(WalSegmentPath(seg));
    }
    wal_segments_.clear();
  }
  // 4) Open a fresh active segment; recovered records stay covered by the
  // segments they were replayed from until the next flush commits.
  wal_number_ = max_seg + 1;
  wal_segments_.insert(wal_number_);
  return wal_.Open(WalSegmentPath(wal_number_), /*truncate=*/true, env_);
}

Status LsmStore::QuarantineStrays(const std::set<uint64_t>& live) {
  JUST_ASSIGN_OR_RETURN(auto names, env_->ListDir(options_.dir));
  for (const std::string& name : names) {
    std::string path = options_.dir + "/" + name;
    if (EndsWith(name, ".tmp")) {
      // A build that never completed: nothing referenced it, drop it.
      JUST_RETURN_NOT_OK(env_->RemoveFile(path));
      continue;
    }
    uint64_t num = 0;
    if (ParseSstName(name, &num) && live.count(num) == 0) {
      // Fully written but never committed to the manifest (crash between
      // rename and manifest sync), or an input of a committed compaction
      // whose deletion did not finish. Keep the bytes for forensics, but
      // move them out of the namespace.
      JUST_RETURN_NOT_OK(env_->RenameFile(path, path + ".quarantine"));
      next_file_number_ = std::max(next_file_number_.load(), num + 1);
      ++quarantined_files_;
    }
  }
  return Status::OK();
}

Status LsmStore::Put(std::string_view key, std::string_view value) {
  WriteOp op{std::string(key), std::string(value), /*is_delete=*/false};
  return QueueWrite(&op, 1, /*flush_request=*/false);
}

Status LsmStore::Delete(std::string_view key) {
  WriteOp op{std::string(key), std::string(), /*is_delete=*/true};
  return QueueWrite(&op, 1, /*flush_request=*/false);
}

Status LsmStore::WriteBatch(const std::vector<WriteOp>& ops) {
  if (ops.empty()) return Status::OK();
  return QueueWrite(ops.data(), ops.size(), /*flush_request=*/false);
}

Status LsmStore::QueueWrite(const WriteOp* ops, size_t count,
                            bool flush_request) {
  Writer w;
  w.ops = ops;
  w.count = count;
  w.flush_request = flush_request;

  std::unique_lock<std::mutex> ql(writers_mu_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) w.cv.wait(ql);
  if (w.done) return w.status;  // a previous leader committed us

  // We are the leader: absorb the queue (bounded by kMaxGroupCommitBytes so
  // a huge batch does not stretch everyone's latency) and commit it.
  std::vector<Writer*> batch;
  size_t total_ops = 0;
  size_t total_bytes = 0;
  for (Writer* cand : writers_) {
    if (!batch.empty() && total_bytes >= kMaxGroupCommitBytes) break;
    batch.push_back(cand);
    total_ops += cand->count;
    for (size_t i = 0; i < cand->count; ++i) {
      total_bytes += cand->ops[i].key.size() + cand->ops[i].value.size();
    }
  }
  ql.unlock();

  Status st = CommitBatch(batch, total_ops);

  ql.lock();
  for (Writer* member : batch) {
    writers_.pop_front();
    if (member != &w) {
      member->status = st;
      member->done = true;
      member->cv.notify_one();
    }
  }
  if (!writers_.empty()) writers_.front()->cv.notify_one();
  return st;
}

Status LsmStore::CommitBatch(const std::vector<Writer*>& batch,
                             size_t total_ops) {
  // Encode the whole batch into one buffer outside any lock.
  std::string encoded;
  bool want_flush = false;
  for (const Writer* w : batch) {
    want_flush |= w->flush_request;
    for (size_t i = 0; i < w->count; ++i) {
      const WriteOp& op = w->ops[i];
      EncodeWalRecord(&encoded,
                      op.is_delete ? WalRecordType::kDelete
                                   : WalRecordType::kPut,
                      op.key, op.value);
    }
  }
  {
    std::shared_lock lock(mu_);
    if (!bg_error_.ok()) return bg_error_;
  }
  // WAL I/O happens without mu_: queue leadership serializes access to wal_,
  // and readers never touch it. One append + at most one fsync per batch is
  // the whole point of group commit.
  if (!encoded.empty()) {
    if (!wal_.is_open()) {
      // A failed segment rotation left the WAL closed; resume the segment.
      JUST_RETURN_NOT_OK(
          wal_.Open(WalSegmentPath(wal_number_), /*truncate=*/false, env_));
    }
    JUST_RETURN_NOT_OK(wal_.AppendEncoded(encoded));
    if (options_.sync_wal) JUST_RETURN_NOT_OK(wal_.Sync());
    GroupCommitBatchHist()->Record(total_ops);
  }

  std::unique_lock lock(mu_);
  if (!bg_error_.ok()) return bg_error_;
  for (const Writer* w : batch) {
    for (size_t i = 0; i < w->count; ++i) {
      const WriteOp& op = w->ops[i];
      memtable_->Put(op.key,
                     MakeInternalValue(op.is_delete ? kTypeDelete : kTypePut,
                                       op.value));
    }
  }
  bool full = memtable_->ApproximateBytes() >= options_.memtable_bytes;
  if ((full || want_flush) && memtable_->size() > 0) {
    JUST_RETURN_NOT_OK(SwapMemtableLocked(lock));
  }
  return Status::OK();
}

Status LsmStore::SwapMemtableLocked(std::unique_lock<std::shared_mutex>& lock) {
  if (imm_ != nullptr) {
    // The previous memtable is still flushing: this is the only place a
    // writer waits on flush I/O (LevelDB's write stall).
    WriteStallCounter()->Increment();
    auto t0 = std::chrono::steady_clock::now();
    flush_done_cv_.wait(
        lock, [this] { return imm_ == nullptr || !bg_error_.ok(); });
    WriteStallHist()->Record(ElapsedUs(t0));
    if (!bg_error_.ok()) return bg_error_;
  }
  imm_ = std::move(memtable_);
  memtable_ = std::make_shared<SkipList>();
  imm_wal_cutoff_ = wal_number_;
  imm_seq_ = ++swap_seq_;
  // Rotate to a fresh segment so the flusher can delete the covered ones
  // without truncating records that arrived after the swap.
  ++wal_number_;
  wal_segments_.insert(wal_number_);
  Status st = wal_.Open(WalSegmentPath(wal_number_), /*truncate=*/true, env_);
  bg_cv_.notify_all();
  // On rotation failure the swap still happened (the flush must proceed);
  // the next leader retries opening the segment before appending.
  return st;
}

void LsmStore::BackgroundLoop() {
  std::unique_lock lock(mu_);
  for (;;) {
    bg_cv_.wait(lock, [this] {
      return stop_bg_ || (imm_ != nullptr && bg_error_.ok()) ||
             compact_pending_;
    });
    if (imm_ != nullptr && bg_error_.ok()) {
      BackgroundFlush(lock);
      continue;
    }
    if (compact_pending_) {
      compact_pending_ = false;
      if (!stop_bg_ && bg_error_.ok() && !compaction_running_) {
        int level = PickCompactionLevelLocked();
        if (level >= 0) {
          compaction_error_ =
              RunCompactionLocked(lock, PickCompactionLocked(level));
        }
        // A compaction failure stays un-latched (the tree is merely
        // unbalanced, not unsafe); the next flush re-schedules it.
      }
      flush_done_cv_.notify_all();
      continue;
    }
    if (stop_bg_) return;
  }
}

void LsmStore::BackgroundFlush(std::unique_lock<std::shared_mutex>& lock) {
  std::shared_ptr<SkipList> mem = imm_;
  const uint64_t cutoff = imm_wal_cutoff_;
  const uint64_t seq = imm_seq_;
  const auto t0 = std::chrono::steady_clock::now();
  Status st;
  for (int attempt = 0; attempt < kBgFlushAttempts; ++attempt) {
    // On any failure before the MANIFEST commits, the memtable and WAL
    // still hold every record, so nothing acknowledged can be lost.
    lock.unlock();
    TableWriter out(this, /*roll_bytes=*/0);
    st = Status::OK();
    SkipList::Iterator it(mem.get());
    for (it.SeekToFirst(); st.ok() && it.Valid(); it.Next()) {
      st = out.Add(it.key(), it.value());
    }
    if (st.ok()) st = out.Finish();
    if (!st.ok()) out.Abandon();
    lock.lock();
    if (!st.ok()) continue;  // transient write failure: retry with new number
    const std::shared_ptr<SsTableReader> reader = out.outputs().front();
    levels_[0].push_back(reader);
    uint64_t prev_min = min_wal_number_;
    min_wal_number_ = cutoff + 1;
    st = WriteManifestLocked();
    if (!st.ok()) {
      // Not committed: the renamed .sst is a stray (quarantined at the next
      // open); the memtable and WAL still hold everything. Retry fresh.
      levels_[0].pop_back();
      min_wal_number_ = prev_min;
      continue;
    }
    // Durable. Release the memtable, retire the covered WAL segments, and
    // wake stalled writers / Flush() waiters.
    imm_ = nullptr;
    flushed_seq_ = std::max(flushed_seq_, seq);
    RemoveWalSegmentsLocked(cutoff);
    MaybeScheduleCompactionLocked();
    FlushCounter()->Increment();
    FlushOutputBytesCounter()->Add(reader->file_size());
    FlushHist()->Record(ElapsedUs(t0));
    flush_done_cv_.notify_all();
    return;
  }
  // Permanent failure: latch it. imm_ stays readable (Scan includes it)
  // and its WAL segments stay on disk, so acknowledged data survives a
  // restart; new writes fail fast with this status.
  bg_error_ = st.ok() ? Status::IOError("background flush failed") : st;
  flush_done_cv_.notify_all();
}

void LsmStore::RemoveWalSegmentsLocked(uint64_t cutoff) {
  // Best-effort: the manifest's "wal" line already fences these segments
  // out of replay, so a failed deletion cannot resurrect stale data.
  for (auto it = wal_segments_.begin();
       it != wal_segments_.end() && *it <= cutoff;) {
    (void)env_->RemoveFile(WalSegmentPath(*it));
    it = wal_segments_.erase(it);
  }
}

Status LsmStore::Scan(const std::vector<ScanRange>& ranges,
                      const ScanFn& fn) const {
  // Snapshot the sources under the lock, once for every range, then merge
  // without it: the active memtable is mutable (SkipList::Put overwrites
  // values in place), so each range's window of it is *copied*; the
  // immutable memtable and the SSTables are frozen, so shared_ptr pins
  // suffice. After this block the scan never touches store state — writers
  // proceed and the callback may re-enter the store.
  RowList active;
  std::vector<size_t> active_begin;  ///< range r's window: [r], [r + 1]
  active_begin.reserve(ranges.size() + 1);
  std::shared_ptr<SkipList> imm;
  TableList l0;  ///< newest first
  std::vector<TableList> runs;
  {
    std::shared_lock lock(mu_);
    for (const ScanRange& range : ranges) {
      active_begin.push_back(active.size());
      memtable_->AppendRange(std::string(range.start), range.end, &active);
    }
    active_begin.push_back(active.size());
    imm = imm_;
    l0.assign(levels_[0].rbegin(), levels_[0].rend());
    runs.assign(levels_.begin() + 1, levels_.end());
  }

  // Sources in precedence order (lower index = newer): the active window,
  // the frozen memtable, then the tables — built once, re-seeked per range.
  std::vector<Source> sources;
  sources.push_back(Source{.vec = &active, .vec_windows = &active_begin});
  if (imm != nullptr) {
    sources.push_back(
        Source{.mem = std::make_unique<SkipList::Iterator>(imm.get())});
  }
  AppendTableSources(l0, std::move(runs), &sources);
  return MergeSources(sources, ranges,
                      [&fn](size_t r, std::string_view key,
                            std::string_view internal) {
                        // Tombstones are skipped silently.
                        if (internal.empty() || internal[0] != kTypePut) {
                          return true;
                        }
                        return fn(r, key, internal.substr(1));
                      });
}

uint64_t LsmStore::MaxBytesForLevel(int level) const {
  double budget = static_cast<double>(options_.level_base_bytes);
  for (int i = 1; i < level; ++i) {
    budget *= static_cast<double>(options_.level_fanout);
  }
  return static_cast<uint64_t>(budget);
}

uint64_t LsmStore::LevelBytesLocked(int level) const {
  uint64_t total = 0;
  for (const auto& table : levels_[static_cast<size_t>(level)]) {
    total += table->file_size();
  }
  return total;
}

size_t LsmStore::TotalTablesLocked() const {
  size_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

int LsmStore::PickCompactionLevelLocked() const {
  if (!levels_[0].empty() &&
      static_cast<int>(levels_[0].size()) >=
          std::max(1, options_.compaction_trigger)) {
    return 0;
  }
  // Lowest over-budget level first: upper levels shadow lower ones, so
  // draining them first keeps read amplification bounded. The bottom level
  // has nowhere to push data and never compacts on its own.
  for (int level = 1; level + 1 < static_cast<int>(levels_.size()); ++level) {
    if (LevelBytesLocked(level) > MaxBytesForLevel(level)) return level;
  }
  return -1;
}

void LsmStore::MaybeScheduleCompactionLocked() {
  if (!compact_pending_ && PickCompactionLevelLocked() >= 0) {
    compact_pending_ = true;
    bg_cv_.notify_all();
  }
}

LsmStore::CompactionJob LsmStore::PickCompactionLocked(int level) {
  CompactionJob job;
  job.upper_level = level;
  job.output_level = level + 1;
  const auto& upper_files = levels_[static_cast<size_t>(level)];
  if (level == 0) {
    // All of L0 (its files overlap arbitrarily), newest first so merge
    // precedence matches read precedence.
    job.upper.assign(upper_files.rbegin(), upper_files.rend());
  } else {
    // Round-robin by key range: first file past the cursor, wrapping to the
    // front — every range eventually compacts, so no key-range hot spot can
    // starve the rest of the level.
    size_t pick = 0;
    for (size_t i = 0; i < upper_files.size(); ++i) {
      if (upper_files[i]->smallest_key() > compact_cursor_[static_cast<size_t>(
              level)]) {
        pick = i;
        break;
      }
    }
    job.upper.push_back(upper_files[pick]);
  }

  std::string lo = job.upper.front()->smallest_key();
  std::string hi = job.upper.front()->largest_key();
  for (const auto& table : job.upper) {
    if (table->smallest_key() < lo) lo = table->smallest_key();
    if (table->largest_key() > hi) hi = table->largest_key();
  }
  // Overlapping files at the output level join the merge. Each one may
  // widen [lo, hi], which can pull in further files — iterate to a fixpoint
  // so the outputs never overlap a survivor at the output level.
  const auto& lower_files = levels_[static_cast<size_t>(job.output_level)];
  std::vector<bool> taken(lower_files.size(), false);
  TableList lower;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < lower_files.size(); ++i) {
      if (taken[i]) continue;
      const auto& table = lower_files[i];
      if (!RangesOverlap(table->smallest_key(), table->largest_key(), lo,
                         hi)) {
        continue;
      }
      taken[i] = true;
      lower.push_back(table);
      if (table->smallest_key() < lo) lo = table->smallest_key();
      if (table->largest_key() > hi) hi = table->largest_key();
      changed = true;
    }
  }
  // The taken files merge as one sorted run.
  if (!lower.empty()) {
    std::sort(lower.begin(), lower.end(), [](const auto& a, const auto& b) {
      return a->smallest_key() < b->smallest_key();
    });
    job.runs.push_back(std::move(lower));
  }

  // Tombstones can only be dropped when nothing below the output level
  // holds this key range — otherwise an older value would resurrect.
  job.drop_tombstones = true;
  for (size_t lvl = static_cast<size_t>(job.output_level) + 1;
       lvl < levels_.size(); ++lvl) {
    for (const auto& table : levels_[lvl]) {
      if (RangesOverlap(table->smallest_key(), table->largest_key(), lo, hi)) {
        job.drop_tombstones = false;
        break;
      }
    }
    if (!job.drop_tombstones) break;
  }
  return job;
}

Status LsmStore::CompactEverythingLocked(
    std::unique_lock<std::shared_mutex>& lock) {
  if (TotalTablesLocked() <= 1) return Status::OK();
  CompactionJob job;
  job.upper_level = -1;
  job.output_level = static_cast<int>(levels_.size()) - 1;
  job.drop_tombstones = true;  // outputs are the bottom-most data
  // Scan's sources minus the memtables: L0 newest->oldest, then each
  // deeper (older) level as one run.
  job.upper.assign(levels_[0].rbegin(), levels_[0].rend());
  job.runs.assign(levels_.begin() + 1, levels_.end());
  return RunCompactionLocked(lock, std::move(job));
}

Status LsmStore::RunCompactionLocked(std::unique_lock<std::shared_mutex>& lock,
                                     CompactionJob job) {
  if (compaction_running_) return Status::OK();  // installer already active
  // Inputs, newest first: upper (already precedence-ordered), then the
  // runs (older by the leveling invariant).
  TableList inputs = job.upper;
  for (const TableList& run : job.runs) {
    inputs.insert(inputs.end(), run.begin(), run.end());
  }
  if (inputs.empty()) return Status::OK();
  const size_t output_level = static_cast<size_t>(job.output_level);

  // Trivial move: a single non-L0 file with nothing to merge below just
  // changes level in the MANIFEST — no rewrite, no I/O. Skipped when
  // tombstone GC applies: GC requires rewriting the file's contents.
  if (job.upper_level > 0 && job.upper.size() == 1 && job.runs.empty() &&
      !job.drop_tombstones) {
    const auto moved = job.upper.front();
    auto backup = levels_;
    auto& from = levels_[static_cast<size_t>(job.upper_level)];
    from.erase(std::remove(from.begin(), from.end(), moved), from.end());
    auto& to = levels_[output_level];
    to.push_back(moved);
    std::sort(to.begin(), to.end(), [](const auto& a, const auto& b) {
      return a->smallest_key() < b->smallest_key();
    });
    Status st = WriteManifestLocked();
    if (!st.ok()) {
      levels_ = std::move(backup);
      return st;
    }
    compact_cursor_[static_cast<size_t>(job.upper_level)] =
        moved->largest_key();
    TrivialMoveCounter()->Increment();
    MaybeScheduleCompactionLocked();
    flush_done_cv_.notify_all();
    return Status::OK();
  }

  compaction_running_ = true;
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t input_bytes = 0;
  for (const auto& table : inputs) input_bytes += table->file_size();
  lock.unlock();

  // ---- Merge phase (no lock): the one k-way merge, over all keys, into
  // the table writer. Leveled compactions roll outputs so one upper file
  // only ever overlaps a bounded slice of the level below; a full merge
  // (upper_level < 0, CompactAll) must NOT roll: its contract is a single
  // merged run.
  TableWriter out(this, job.upper_level >= 0 ? options_.target_file_size : 0);
  std::vector<Source> sources;
  AppendTableSources(job.upper, job.runs, &sources);
  Status write_st;
  Status st = MergeSources(
      sources, {ScanRange{}},
      [&](size_t, std::string_view key, std::string_view value) {
        // A tombstone survives the merge unless nothing below the output
        // level can hold an older version of its key.
        if (value.empty() || (value[0] != kTypePut && job.drop_tombstones)) {
          return true;
        }
        write_st = out.Add(key, value);
        return write_st.ok();
      });
  if (st.ok()) st = write_st;
  if (st.ok()) st = out.Finish();
  if (!st.ok()) {
    // Unwind without publishing (none of the outputs is in the MANIFEST;
    // leftovers would be quarantined at the next open anyway).
    out.Abandon();
    lock.lock();
    compaction_running_ = false;
    flush_done_cv_.notify_all();
    return st;
  }

  // ---- Install phase (lock): swap inputs for outputs, MANIFEST-commit.
  lock.lock();
  auto backup = levels_;
  for (auto& level : levels_) {
    level.erase(std::remove_if(level.begin(), level.end(),
                               [&](const std::shared_ptr<SsTableReader>& t) {
                                 return std::find(inputs.begin(), inputs.end(),
                                                  t) != inputs.end();
                               }),
                level.end());
  }
  auto& target = levels_[output_level];
  target.insert(target.end(), out.outputs().begin(), out.outputs().end());
  std::sort(target.begin(), target.end(), [](const auto& a, const auto& b) {
    return a->smallest_key() < b->smallest_key();
  });
  st = WriteManifestLocked();
  if (!st.ok()) {
    // Not committed: restore the previous tree; the outputs are strays that
    // the next open quarantines.
    levels_ = std::move(backup);
    compaction_running_ = false;
    flush_done_cv_.notify_all();
    return st;
  }
  if (job.upper_level > 0) {
    // Advance the round-robin cursor past the consumed range.
    std::string hi;
    for (const auto& table : job.upper) {
      if (table->largest_key() > hi) hi = table->largest_key();
    }
    compact_cursor_[static_cast<size_t>(job.upper_level)] = hi;
  }
  CompactionCounter()->Increment();
  CompactionInputBytesCounter()->Add(input_bytes);
  CompactionOutputBytesCounter()->Add(out.output_bytes());
  CompactionHist()->Record(ElapsedUs(t0));
  compaction_running_ = false;
  MaybeScheduleCompactionLocked();
  flush_done_cv_.notify_all();
  // Inputs are dead only once the manifest no longer references them;
  // deletion is best-effort — leftovers are quarantined at the next open.
  // Readers holding snapshot pins keep their open file handles (POSIX
  // unlink semantics), so in-flight scans are unaffected. Their cached
  // blocks age out of the LRU on their own — no cache flush needed, the
  // (file_id, offset) keys of dead files are simply never requested again.
  for (const auto& input : inputs) {
    (void)env_->RemoveFile(input->path());
  }
  return Status::OK();
}

Status LsmStore::WriteManifestLocked() {
  std::string tmp_path = options_.dir + "/MANIFEST.tmp";
  JUST_ASSIGN_OR_RETURN(auto file,
                        env_->NewWritableFile(tmp_path, /*truncate=*/true));
  std::string body;
  body.append(kManifestHeader);
  body.push_back('\n');
  // Minimum live WAL segment: replay ignores older segments, so a flushed
  // segment whose deletion failed stays harmless forever.
  body.append("wal " + std::to_string(min_wal_number_) + "\n");
  // One line per table: level, file number, key range. L0 is written in
  // flush order (its read precedence); deeper levels in key order.
  for (size_t level = 0; level < levels_.size(); ++level) {
    for (const auto& table : levels_[level]) {
      body.append("file " + std::to_string(level) + " " +
                  std::to_string(table->file_id()) + " " +
                  HexEncodeKey(table->smallest_key()) + " " +
                  HexEncodeKey(table->largest_key()) + "\n");
    }
  }
  JUST_RETURN_NOT_OK(file->Append(body));
  // Sync before rename: the manifest is the commit point of every flush and
  // compaction, so it must be durable before it becomes visible.
  JUST_RETURN_NOT_OK(file->Sync());
  JUST_RETURN_NOT_OK(file->Close());
  return env_->RenameFile(tmp_path, options_.dir + "/MANIFEST");
}

Status LsmStore::Flush() {
  // Route the request through the write queue so it serializes with
  // in-flight commits, then wait until the background thread has made the
  // resulting swap durable.
  JUST_RETURN_NOT_OK(QueueWrite(nullptr, 0, /*flush_request=*/true));
  std::unique_lock lock(mu_);
  const uint64_t target = swap_seq_;
  flush_done_cv_.wait(
      lock, [&] { return flushed_seq_ >= target || !bg_error_.ok(); });
  return flushed_seq_ >= target ? Status::OK() : bg_error_;
}

Status LsmStore::CompactAll() {
  JUST_RETURN_NOT_OK(Flush());
  std::unique_lock lock(mu_);
  // If the background thread is mid-compaction, wait for it, then run the
  // full merge on the caller's thread.
  flush_done_cv_.wait(lock, [this] { return !compaction_running_; });
  return CompactEverythingLocked(lock);
}

Status LsmStore::WaitForBackgroundIdle() {
  std::unique_lock lock(mu_);
  flush_done_cv_.wait(lock, [this] {
    return !bg_error_.ok() ||
           (imm_ == nullptr && !compact_pending_ && !compaction_running_ &&
            (PickCompactionLevelLocked() < 0 || !compaction_error_.ok()));
  });
  if (!bg_error_.ok()) return bg_error_;
  return PickCompactionLevelLocked() < 0 ? Status::OK() : compaction_error_;
}

LsmStore::Stats LsmStore::GetStats() const {
  std::shared_lock lock(mu_);
  Stats stats;
  stats.num_sstables = TotalTablesLocked();
  stats.memtable_entries = memtable_->size();
  stats.memtable_bytes = memtable_->ApproximateBytes();
  if (imm_ != nullptr) {
    stats.memtable_entries += imm_->size();
    stats.memtable_bytes += imm_->ApproximateBytes();
  }
  stats.quarantined_files = quarantined_files_;
  stats.level_files.resize(levels_.size());
  stats.level_bytes.resize(levels_.size());
  for (size_t level = 0; level < levels_.size(); ++level) {
    stats.level_files[level] = levels_[level].size();
    for (const auto& table : levels_[level]) {
      stats.level_bytes[level] += table->file_size();
      stats.disk_bytes += table->file_size();
      stats.sstable_entries += table->num_entries();
    }
  }
  // Thin view over the registry-backed per-store counters.
  stats.bytes_read = io_stats_.bytes_read.Value();
  stats.bytes_written = io_stats_.bytes_written.Value();
  stats.read_ops = io_stats_.read_ops.Value();
  stats.block_cache_hits = block_cache_->hits();
  stats.block_cache_misses = block_cache_->misses();
  return stats;
}

std::vector<std::vector<LsmStore::TableInfo>> LsmStore::GetLevelInfo() const {
  std::shared_lock lock(mu_);
  std::vector<std::vector<TableInfo>> info(levels_.size());
  for (size_t level = 0; level < levels_.size(); ++level) {
    info[level].reserve(levels_[level].size());
    for (const auto& table : levels_[level]) {
      TableInfo t;
      t.file_number = table->file_id();
      t.path = table->path();
      t.smallest_key = table->smallest_key();
      t.largest_key = table->largest_key();
      t.file_size = table->file_size();
      t.num_entries = table->num_entries();
      info[level].push_back(std::move(t));
    }
  }
  return info;
}

}  // namespace just::kv
