#ifndef JUST_KVSTORE_LSM_STORE_H_
#define JUST_KVSTORE_LSM_STORE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "kvstore/env.h"
#include "kvstore/skiplist.h"
#include "kvstore/sstable.h"
#include "kvstore/wal.h"

namespace just::kv {

struct StoreOptions {
  std::string dir;                      ///< data directory (created if absent)
  size_t memtable_bytes = 4 << 20;      ///< flush threshold
  size_t block_cache_bytes = 32 << 20;  ///< shared block cache budget
  size_t block_size = 4096;
  /// Ignored: SSTables carry no bloom filter (the store reads only by
  /// Scan). Kept declared so callers that still print it compile.
  int bloom_bits_per_key = 10;
  /// Start an L0->L1 compaction when L0 holds this many tables.
  int compaction_trigger = 6;
  bool sync_wal = false;  ///< fsync per commit (off for bulk loads)
  Env* env = nullptr;     ///< filesystem seam; nullptr = Env::Default()

  /// Maximum level count (levels beyond the bottom are never created; a
  /// store reopened with fewer levels keeps the deeper ones its MANIFEST
  /// references). Minimum 2: L0 plus one sorted run.
  int num_levels = 7;
  /// Size budget ratio between adjacent levels: L(n+1) holds `level_fanout`
  /// times the bytes of L(n). Write amplification per level ~= fanout.
  int level_fanout = 10;
  /// Byte budget of L1; L(n) may hold level_base_bytes * fanout^(n-1).
  size_t level_base_bytes = 8 << 20;
  /// Compaction outputs roll to a new SSTable at this size, so one L(n)
  /// file only ever overlaps a bounded byte range of L(n+1).
  size_t target_file_size = 2 << 20;
};

/// One [start, end) key range of a Scan; `end` empty means "to the last
/// key". The views must stay valid for the duration of the call.
struct ScanRange {
  std::string_view start;
  std::string_view end;
};

/// Scan callback: the index of the range the row belongs to, then the row.
/// Returning false stops the whole scan, not just the current range.
using ScanFn = std::function<bool(size_t range, std::string_view key,
                                  std::string_view value)>;

/// One mutation in a WriteBatch. `is_delete` writes a tombstone and ignores
/// `value`.
struct WriteOp {
  std::string key;
  std::string value;
  bool is_delete = false;
};

/// A single-node ordered key-value store with LSM-tree storage: writes land
/// in a WAL + skip-list memtable, flush to immutable L0 SSTables, and
/// leveled compaction keeps deeper levels as non-overlapping sorted runs so
/// reads probe a bounded set of tables. This is the region-server storage
/// engine
/// (the role one HBase RegionServer plays for JUST). Keys are arbitrary byte
/// strings; updates never rebuild indexes — the property that makes JUST
/// "update-enabled" (Section I).
///
/// Concurrency model (see DESIGN.md "Write path"):
///  - Group commit: writers enqueue on an internal queue; the front writer
///    becomes the leader, appends the whole queue's records to the WAL with
///    at most one fsync, and applies them to the memtable. N concurrent
///    writers pay ~1 leader I/O instead of N serialized ones.
///  - Background flush: when the active memtable fills it is swapped for a
///    fresh one under the lock and handed — immutable — to a background
///    thread that builds, fsyncs, renames, and MANIFEST-commits the SSTable.
///    Writers only stall if the *next* memtable also fills before the
///    previous flush finishes (counted in just_kv_write_stalls_total).
///  - Snapshot reads: Scan — the store's one read primitive — pins
///    shared_ptr references to the memtables and SSTables under the lock
///    (once per Scan, however many ranges it covers), then reads without
///    it — long scans never block writers, and a scan callback may call
///    Put/Delete/Scan/Flush on the same store without self-deadlocking.
///
/// Leveled compaction (see docs/STORAGE_TUNING.md):
///  - Flush outputs land in L0 and may overlap each other; L1+ hold
///    non-overlapping tables sorted by key range, recorded with their
///    smallest/largest keys in the MANIFEST.
///  - When L0 reaches `compaction_trigger` tables, all of L0 merges with
///    the overlapping L1 files. When L(n>=1) exceeds its byte budget
///    (level_base_bytes * fanout^(n-1)), one file — picked round-robin by
///    key range — merges with the overlapping L(n+1) files. Outputs split
///    at `target_file_size`.
///  - Scan and every compaction read through the same k-way heap merge:
///    one source per memtable (Scan only) and per L0 table, plus —
///    because deeper levels do not overlap — one per deeper level. Flushes
///    and compactions write through the same table writer.
///  - Tombstones are dropped only when the output is the bottom-most data:
///    no level below the output holds any table, so nothing older can
///    resurrect. Bottom-level tables therefore never contain tombstones.
///
/// Failure model (see DESIGN.md "Failure model"):
///  - The WAL is segmented: each memtable has its own segment(s), and a
///    segment is deleted only after the flush covering it has committed to
///    the MANIFEST (which records the minimum live segment, so a segment
///    whose deletion failed can never resurrect stale data).
///  - Flush and compaction are crash-atomic: tables are built in `.tmp`
///    files, fsynced, renamed into place, and only referenced by readers
///    after the (also fsynced) MANIFEST records them.
///  - Startup quarantines stray files: `.tmp` leftovers are deleted and
///    `.sst` files the MANIFEST does not reference are renamed to
///    `.quarantine` so a half-finished flush can never serve reads.
///  - The MANIFEST's first line stamps the on-disk format. Open refuses any
///    other stamp, and store files with no MANIFEST, with NotSupported
///    before it changes a file; a new store is stamped before its first
///    WAL segment exists.
///  - Every SSTable block and footer and the WAL tail are CRC-checked;
///    corruption surfaces as Status::Corruption.
///  - A background-flush failure is retried a few times, then latched into
///    a sticky error returned by subsequent writes; the covering WAL
///    segments are retained, so nothing acknowledged is ever lost silently.
class LsmStore {
 public:
  static Result<std::unique_ptr<LsmStore>> Open(const StoreOptions& options);

  ~LsmStore();

  LsmStore(const LsmStore&) = delete;
  LsmStore& operator=(const LsmStore&) = delete;

  Status Put(std::string_view key, std::string_view value);
  Status Delete(std::string_view key);

  /// Applies every op atomically with respect to the WAL (one group-commit
  /// entry) — the batch either replays fully after a crash or not at all
  /// beyond the synced prefix. This is the bulk-ingest fast path.
  Status WriteBatch(const std::vector<WriteOp>& ops);

  /// Multi-range scan: every range in list order, each yielding its live
  /// rows in key order — overlapping ranges yield their shared rows once
  /// per range. One snapshot and one set of merge sources serve the whole
  /// list; the sources seek from range to range, so a query's many (mostly
  /// empty) curve ranges cost one scan, not one per range. The store lock
  /// is NOT held while the callback runs: callbacks may write to this same
  /// store.
  Status Scan(const std::vector<ScanRange>& ranges, const ScanFn& fn) const;

  /// Forces the memtable to disk and waits until the flush is durable
  /// (MANIFEST-committed). Concurrent writers keep running meanwhile.
  Status Flush();

  /// Flushes, then merges every level into one bottom-level SSTable,
  /// dropping all tombstones (a manual major compaction). The output is
  /// deliberately NOT split at `target_file_size`: one run is what a
  /// major compaction promises its callers.
  Status CompactAll();

  /// Blocks until no flush is pending or running and the compaction debt is
  /// paid off (no level over budget). Returns the sticky background error,
  /// if any; or, when the last background compaction failed and left debt
  /// behind, that failure (nothing retries it until the next flush). Tests
  /// and bulk loaders use this to measure the steady state.
  Status WaitForBackgroundIdle();

  /// Thin view over this store's registry-backed counters plus the usual
  /// structural numbers. The authoritative values live in `io_stats()` and
  /// the block cache; this struct just snapshots them.
  struct Stats {
    size_t num_sstables = 0;
    /// SSTable count per level, L0 first (empty trailing levels included).
    std::vector<size_t> level_files;
    /// Byte total per level, parallel to `level_files`.
    std::vector<uint64_t> level_bytes;
    size_t memtable_entries = 0;  ///< active + immutable memtable
    size_t memtable_bytes = 0;
    uint64_t disk_bytes = 0;
    uint64_t sstable_entries = 0;  ///< includes not-yet-compacted duplicates
    /// Files quarantined at the last recovery (stray `.sst` leftovers).
    size_t quarantined_files = 0;
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    uint64_t read_ops = 0;
    uint64_t block_cache_hits = 0;
    uint64_t block_cache_misses = 0;
  };
  Stats GetStats() const;

  /// Per-store I/O counters (registered into obs::Registry as just_kv_*).
  IoStats& io_stats() const { return io_stats_; }

  const StoreOptions& options() const { return options_; }

  /// One live SSTable, as tests and tools see it.
  struct TableInfo {
    uint64_t file_number = 0;
    std::string path;
    std::string smallest_key;
    std::string largest_key;
    uint64_t file_size = 0;
    uint64_t num_entries = 0;
  };
  /// Per-level table layout. `[0]` is L0 in flush order (newest last);
  /// deeper levels are sorted by smallest_key and must not overlap — the
  /// invariant the property tests assert.
  std::vector<std::vector<TableInfo>> GetLevelInfo() const;

 private:
  struct Writer;  ///< one queued (batch of) mutation(s); see lsm_store.cc
  class TableWriter;  ///< flush and compaction output; see lsm_store.cc

  explicit LsmStore(const StoreOptions& options);

  Status Recover();
  /// Loads the MANIFEST body into levels_/min_wal_number_: the
  /// "just-manifest 3" header, the "wal N" line, then one line per file
  /// with its level and key range. Any other header is NotSupported,
  /// returned before a table opens.
  Status ParseManifestLocked(const std::string& contents,
                             std::set<uint64_t>* live);
  /// Registers the per-level file/byte gauges. Called from Open() after
  /// Recover() fixed the level count; must run without mu_ held (source
  /// registration takes the registry mutex, whose callbacks take mu_).
  void RegisterLevelMetricSources();
  /// Deletes `.tmp` leftovers and quarantines `.sst` files the manifest
  /// does not reference (partial flushes/compactions from a crash).
  Status QuarantineStrays(const std::set<uint64_t>& live);

  /// Enqueues `ops` (and/or a flush request) and blocks until a leader has
  /// committed them. The caller owning the front of the queue becomes the
  /// leader for everything queued behind it.
  Status QueueWrite(const WriteOp* ops, size_t count, bool flush_request);
  /// Leader body: WAL group append (+ optional fsync), memtable apply,
  /// memtable swap when full. Serialized by queue leadership, so wal_ needs
  /// no extra lock.
  Status CommitBatch(const std::vector<Writer*>& batch, size_t total_ops);
  /// Swaps the full memtable for a fresh one and wakes the flusher. Stalls
  /// (counted) while a previous immutable memtable is still flushing.
  /// Expects `lock` held; may release and reacquire it.
  Status SwapMemtableLocked(std::unique_lock<std::shared_mutex>& lock);

  void BackgroundLoop();
  /// Writes imm_ as one SSTable and installs it; expects `lock` held and
  /// releases it during the write. Retries transient failures, then
  /// latches bg_error_.
  void BackgroundFlush(std::unique_lock<std::shared_mutex>& lock);
  /// One leveled (or full) compaction, described before the merge runs.
  struct CompactionJob {
    /// Level the `upper` inputs came from; -1 for a full compaction that
    /// consumes every table of every level.
    int upper_level = -1;
    int output_level = 0;
    /// Inputs merged table by table, newest first: all of L0, or the one
    /// cursor-picked file. They shadow every run.
    std::vector<std::shared_ptr<SsTableReader>> upper;
    /// Older inputs, newest first, each a sorted non-overlapping run merged
    /// as one source: the overlapping files at `output_level`, or — for a
    /// full compaction — every non-empty L1+ level.
    std::vector<std::vector<std::shared_ptr<SsTableReader>>> runs;
    /// True when no live data sits below `output_level`, so tombstones have
    /// nothing left to mask and can be dropped.
    bool drop_tombstones = false;
  };

  /// Byte budget of L(n>=1): level_base_bytes * fanout^(n-1).
  uint64_t MaxBytesForLevel(int level) const;
  /// Lowest level that currently needs compacting, or -1. L0 compacts on
  /// file count (compaction_trigger); deeper levels on their byte budget.
  int PickCompactionLevelLocked() const;
  /// Builds the job for compacting `level` into `level + 1`: all of L0 (plus
  /// overlapping L1) for level 0, else the cursor-picked file plus the
  /// overlapping files below.
  CompactionJob PickCompactionLocked(int level);
  /// Merges `job`'s inputs into outputs at job.output_level (rolled at
  /// `target_file_size`, except a full compaction's one run), installs
  /// them, and commits the MANIFEST. Expects
  /// `lock` held; releases it during the merge. No-op while another
  /// compaction runs (compaction_running_ serializes installers).
  Status RunCompactionLocked(std::unique_lock<std::shared_mutex>& lock,
                             CompactionJob job);
  /// CompactAll body: one full merge of every table into the bottom level.
  Status CompactEverythingLocked(std::unique_lock<std::shared_mutex>& lock);
  /// Sets compact_pending_ (and wakes the background thread) when needed.
  void MaybeScheduleCompactionLocked();
  uint64_t LevelBytesLocked(int level) const;
  size_t TotalTablesLocked() const;
  Status WriteManifestLocked();
  std::string SstPath(uint64_t file_number) const;
  /// "wal-NNNNNN.log"; segments are numbered from 1.
  std::string WalSegmentPath(uint64_t segment) const;
  /// Deletes (best-effort) every live WAL segment numbered <= cutoff.
  void RemoveWalSegmentsLocked(uint64_t cutoff);

  StoreOptions options_;
  Env* env_;

  /// Guards all state below it. Writers additionally serialize through the
  /// writer queue; wal_ is owned by the current queue leader (plus Recover
  /// and the destructor, which run without concurrent writers).
  mutable std::shared_mutex mu_;
  std::shared_ptr<SkipList> memtable_;        ///< active (mutable)
  std::shared_ptr<SkipList> imm_;             ///< frozen, being flushed
  WalWriter wal_;                             ///< active segment writer
  uint64_t wal_number_ = 0;                   ///< active segment number
  std::set<uint64_t> wal_segments_;           ///< live segments, incl. active
  uint64_t imm_wal_cutoff_ = 0;  ///< segments <= this cover imm_
  uint64_t min_wal_number_ = 0;  ///< from MANIFEST: older segments are dead
  /// levels_[0] = L0, newest table last (flush order; later tables take
  /// precedence). levels_[n>=1] are sorted by smallest_key and pairwise
  /// non-overlapping. Sized to options_.num_levels at construction; grows
  /// only if the MANIFEST references deeper levels.
  std::vector<std::vector<std::shared_ptr<SsTableReader>>> levels_;
  /// Round-robin pick cursor per level: the next compaction at level n
  /// takes the first file whose smallest_key exceeds compact_cursor_[n],
  /// wrapping — every key range eventually gets its turn (LevelDB's
  /// compaction pointer).
  std::vector<std::string> compact_cursor_;
  /// Table writers take numbers without mu_.
  std::atomic<uint64_t> next_file_number_{1};
  size_t quarantined_files_ = 0;
  Status bg_error_;               ///< sticky background-flush failure
  /// Outcome of the last background compaction (not sticky: the next
  /// flush schedules another attempt).
  Status compaction_error_;
  bool stop_bg_ = false;
  bool compact_pending_ = false;
  bool compaction_running_ = false;
  uint64_t swap_seq_ = 0;     ///< memtable swaps scheduled
  uint64_t flushed_seq_ = 0;  ///< memtable swaps whose flush is durable
  uint64_t imm_seq_ = 0;      ///< swap_seq_ value that produced imm_

  /// Group-commit writer queue (leader = front).
  std::mutex writers_mu_;
  std::deque<Writer*> writers_;

  /// Wakes the background thread (imm_ set / compaction pending / stop).
  std::condition_variable_any bg_cv_;
  /// Signals flush completion or bg_error_ to stalled writers and Flush().
  std::condition_variable_any flush_done_cv_;

  std::unique_ptr<BlockCache> block_cache_;
  mutable IoStats io_stats_;
  std::thread bg_thread_;
  /// Last member: these sources read the fields above, so they must be
  /// unregistered (and cumulative values folded) before anything else dies.
  std::vector<obs::ScopedSource> metric_sources_;
};

}  // namespace just::kv

#endif  // JUST_KVSTORE_LSM_STORE_H_
