// Regression and stress tests for the concurrent write path: group-commit
// WAL, background flush with immutable-memtable handoff, snapshot scans,
// and the cross-shard cluster scan bugs the old stop-the-world write path
// was masking.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/region_cluster.h"
#include "kvstore/fault_env.h"
#include "kvstore/lsm_store.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace just::kv {
namespace {

using just::testing::GetKey;
using just::testing::PutKey;
using just::testing::TempDir;

/// An Env that blocks SSTable builds (appends to "*.sst.tmp" files) until
/// the gate opens, so tests can hold a background flush in flight and probe
/// what the store allows meanwhile. All other operations pass through.
class GateEnv : public Env {
 public:
  explicit GateEnv(Env* base = nullptr)
      : base_(base != nullptr ? base : Env::Default()) {}

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  void OpenGate() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  /// Blocks until a builder thread is waiting at the closed gate.
  void AwaitArrival() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return waiting_ > 0 || open_; });
  }
  bool HasArrived() {
    std::lock_guard<std::mutex> lock(mu_);
    return waiting_ > 0;
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    JUST_ASSIGN_OR_RETURN(auto file, base_->NewWritableFile(path, truncate));
    constexpr std::string_view kGated = ".sst.tmp";
    if (path.size() >= kGated.size() &&
        path.compare(path.size() - kGated.size(), kGated.size(), kGated) ==
            0) {
      return {std::make_unique<GatedFile>(this, std::move(file))};
    }
    return {std::move(file)};
  }
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return base_->NewRandomAccessFile(path);
  }
  Status ReadFileToString(const std::string& path, std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status CreateDirs(const std::string& path) override {
    return base_->CreateDirs(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }

 private:
  class GatedFile : public WritableFile {
   public:
    GatedFile(GateEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    Status Append(std::string_view data) override {
      env_->WaitGate();
      return base_->Append(data);
    }
    Status Sync() override {
      env_->WaitGate();
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    GateEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  void WaitGate() {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
    --waiting_;
  }

  Env* base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  int waiting_ = 0;
};

StoreOptions SmallStoreOptions(const std::string& dir, Env* env) {
  StoreOptions opts;
  opts.dir = dir;
  opts.env = env;
  opts.memtable_bytes = 1 << 10;  // tiny: flushes are easy to trigger
  opts.block_size = 256;
  return opts;
}

uint64_t GlobalCounter(const std::string& name) {
  return obs::Registry::Global().GetCounter(name)->Value();
}

// ---------------------------------------------------------------------------
// Tentpole: writes proceed while a flush is in progress.

TEST(WritePathTest, PutCompletesWhileFlushInProgress) {
  TempDir dir("bg_flush_put");
  GateEnv gate;
  StoreOptions opts = SmallStoreOptions(dir.path(), &gate);
  auto store_or = LsmStore::Open(opts);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  LsmStore* store = store_or->get();

  gate.CloseGate();
  // Fill the memtable past its limit: the triggering Put swaps it out and
  // hands it to the background flusher, which now blocks at the gate. Five
  // ~200-byte entries cross the 1 KiB limit exactly once — a second swap
  // would stall against the closed gate.
  std::string big(200, 'x');
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store->Put("fill" + std::to_string(i), big).ok());
  }
  gate.AwaitArrival();
  ASSERT_TRUE(gate.HasArrived());

  // The acceptance check of this PR: a Put issued while the SSTable build
  // is stuck must complete without waiting for it. The old write path held
  // the store lock across the whole build, so this Put would hang until the
  // gate opened.
  auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(store->Put("during_flush", "v").ok());
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_TRUE(gate.HasArrived()) << "flush finished early; test proves nothing";
  EXPECT_LT(elapsed.count(), 1000);

  // Reads see both generations while the flush is still stuck: the new key
  // from the active memtable, the old ones from the immutable one.
  std::string value;
  EXPECT_TRUE(GetKey(*store, "during_flush", &value).ok());
  EXPECT_TRUE(GetKey(*store, "fill0", &value).ok());
  EXPECT_EQ(value, big);

  gate.OpenGate();
  ASSERT_TRUE(store->Flush().ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(GetKey(*store, "fill" + std::to_string(i), &value).ok());
  }
  EXPECT_TRUE(GetKey(*store, "during_flush", &value).ok());
}

TEST(WritePathTest, WriteStallIsCountedWhenSecondMemtableFills) {
  TempDir dir("write_stall");
  GateEnv gate;
  StoreOptions opts = SmallStoreOptions(dir.path(), &gate);
  auto store_or = LsmStore::Open(opts);
  ASSERT_TRUE(store_or.ok());
  LsmStore* store = store_or->get();

  const uint64_t stalls_before = GlobalCounter("just_kv_write_stalls_total");
  gate.CloseGate();
  std::string big(200, 'x');
  // One swap only (see PutCompletesWhileFlushInProgress): the stall is
  // provoked below, on a thread this test controls.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store->Put("a" + std::to_string(i), big).ok());
  }
  gate.AwaitArrival();

  // Fill the *second* memtable while the first is still flushing: the swap
  // must wait for the flush slot — the only point the new write path stalls.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store->Put("b" + std::to_string(i), big).ok());
    }
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load()) << "second memtable swap did not stall";
  gate.OpenGate();
  writer.join();

  EXPECT_GT(GlobalCounter("just_kv_write_stalls_total"), stalls_before);
  ASSERT_TRUE(store->Flush().ok());
  std::string value;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(GetKey(*store, "a" + std::to_string(i), &value).ok());
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(GetKey(*store, "b" + std::to_string(i), &value).ok());
  }
}

// ---------------------------------------------------------------------------
// Satellite: named regression for the scan-callback re-entrancy deadlock.

// The old Scan held the store's reader lock while running the callback, so
// a callback that wrote to the same store self-deadlocked (Put wants the
// writer lock the scan holds). Snapshot scans release everything before
// iterating, making re-entrant callbacks legal.
TEST(WritePathTest, ScanCallbackReentrancyNoSelfDeadlock) {
  TempDir dir("scan_reentrant");
  StoreOptions opts = SmallStoreOptions(dir.path(), Env::Default());
  auto store_or = LsmStore::Open(opts);
  ASSERT_TRUE(store_or.ok());
  LsmStore* store = store_or->get();

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store->Put("key" + std::to_string(i), "v").ok());
  }
  int seen = 0;
  Status st = store->Scan({{"", ""}}, [&](size_t, std::string_view key, std::string_view) {
    ++seen;
    // Writing back into the scanned store used to deadlock right here.
    EXPECT_TRUE(store->Put("derived/" + std::string(key), "d").ok());
    std::string value;
    EXPECT_TRUE(GetKey(*store, std::string(key), &value).ok());
    return true;
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(seen, 20);  // snapshot semantics: new keys not visited mid-scan
  std::string value;
  EXPECT_TRUE(GetKey(*store, "derived/key0", &value).ok());
}

// ---------------------------------------------------------------------------
// Satellite: cross-shard ParallelScan dropped rows.

cluster::ClusterOptions SmallClusterOptions(const std::string& dir) {
  cluster::ClusterOptions opts;
  opts.dir = dir;
  opts.num_servers = 5;
  opts.store.memtable_bytes = 1 << 12;
  opts.store.block_size = 256;
  return opts;
}

// Routing is first_byte % num_servers, which is NOT contiguous: the range
// ["\x04", "\x07") lands on servers 4, 0 and 1 of 5. The old fallback
// scanned only [ServerFor(start), ServerFor(end)] — clamped here to server
// 4 alone — and silently dropped every row on servers 0 and 1.
TEST(ClusterScanTest, ParallelScanCoversCrossShardRanges) {
  TempDir dir("cross_shard");
  auto cluster_or = cluster::RegionCluster::Open(SmallClusterOptions(dir.path()));
  ASSERT_TRUE(cluster_or.ok());
  cluster::RegionCluster* cluster = cluster_or->get();

  std::set<std::string> expected;
  for (char shard = 4; shard <= 6; ++shard) {
    for (int i = 0; i < 8; ++i) {
      std::string key(1, shard);
      key += "key" + std::to_string(i);
      ASSERT_TRUE(PutKey(*cluster, key, "v").ok());
      expected.insert(key);
    }
  }
  // Keys outside the range must stay excluded.
  ASSERT_TRUE(PutKey(*cluster, std::string(1, 7) + "outside", "v").ok());

  curve::KeyRange range;
  range.start = std::string(1, 4);
  range.end = std::string(1, 7);
  auto results_or = cluster->ParallelScan({range});
  ASSERT_TRUE(results_or.ok());
  std::set<std::string> got;
  for (const auto& row : (*results_or)[0].rows) got.insert(row.key);
  EXPECT_EQ(got, expected);
}

TEST(ClusterScanTest, ParallelScanSingleShardRangeStillWorks) {
  TempDir dir("single_shard");
  auto cluster_or = cluster::RegionCluster::Open(SmallClusterOptions(dir.path()));
  ASSERT_TRUE(cluster_or.ok());
  cluster::RegionCluster* cluster = cluster_or->get();

  for (int i = 0; i < 10; ++i) {
    std::string key(1, 3);
    key += "k" + std::to_string(i);
    ASSERT_TRUE(PutKey(*cluster, key, "v").ok());
  }
  // The planner's usual shape: [prefix..., next shard byte) — single server.
  curve::KeyRange range;
  range.start = std::string(1, 3) + "k";
  range.end = std::string(1, 4);
  auto results_or = cluster->ParallelScan({range});
  ASSERT_TRUE(results_or.ok());
  EXPECT_EQ((*results_or)[0].rows.size(), 10u);
}

// ---------------------------------------------------------------------------
// Satellite: Scan buffered each server's whole range before early stop.

TEST(ClusterScanTest, ScanStreamsInBoundedBatches) {
  TempDir dir("scan_stream");
  cluster::ClusterOptions opts = SmallClusterOptions(dir.path());
  opts.scan_batch_rows = 10;
  auto cluster_or = cluster::RegionCluster::Open(opts);
  ASSERT_TRUE(cluster_or.ok());
  cluster::RegionCluster* cluster = cluster_or->get();

  for (int i = 0; i < 200; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    ASSERT_TRUE(PutKey(*cluster, std::string(1, 2) + buf, "v").ok());
  }

  // Early-stopping consumer: the old code fetched all 200 rows into memory
  // before the callback saw the first one; the in-process stream fetches
  // only the rows the consumer takes.
  uint64_t fetched_before =
      GlobalCounter("just_cluster_scan_rows_fetched_total");
  just::testing::CollectingSink first_five(cluster->num_servers(), 5);
  Status st = cluster->Scan({curve::KeyRange{"", ""}}, &first_five);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(first_five.Rows().size(), 5u);
  uint64_t fetched =
      GlobalCounter("just_cluster_scan_rows_fetched_total") - fetched_before;
  EXPECT_EQ(fetched, 5u);

  // Full consumption still sees every row exactly once, in order.
  fetched_before = GlobalCounter("just_cluster_scan_rows_fetched_total");
  auto rows = just::testing::ScanRows(*cluster, {curve::KeyRange{"", ""}});
  ASSERT_TRUE(rows.ok());
  std::vector<std::string> keys;
  for (const auto& row : *rows) keys.push_back(row.first);
  ASSERT_EQ(keys.size(), 200u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  std::set<std::string> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), 200u);
  fetched =
      GlobalCounter("just_cluster_scan_rows_fetched_total") - fetched_before;
  EXPECT_EQ(fetched, 200u);
}

// ---------------------------------------------------------------------------
// Crash mid-background-flush: recovery must replay the retained WAL.

TEST(WritePathTest, CrashMidBackgroundFlushRecoversFromWal) {
  TempDir dir("crash_mid_flush");
  FaultInjectionEnv fault;
  GateEnv gate(&fault);
  StoreOptions opts = SmallStoreOptions(dir.path(), &gate);
  opts.sync_wal = true;  // acked writes are durable in the WAL
  std::map<std::string, std::string> acked;
  {
    auto store_or = LsmStore::Open(opts);
    ASSERT_TRUE(store_or.ok());
    LsmStore* store = store_or->get();

    gate.CloseGate();
    std::string big(200, 'x');
    // Five entries: one swap (a second would stall on the closed gate).
    for (int i = 0; i < 5; ++i) {
      std::string key = "key" + std::to_string(i);
      ASSERT_TRUE(store->Put(key, big).ok());
      acked[key] = big;
    }
    gate.AwaitArrival();  // flush is mid-SSTable-build

    // Power loss while the build is in flight: unsynced bytes (the partial
    // .sst.tmp among them) vanish; synced WAL records survive.
    fault.DropUnsyncedWrites();
    gate.OpenGate();  // the stuck build now fails against the dead disk
    // Destruction joins the background thread, which latches its error.
  }

  fault.ClearFaults();
  StoreOptions reopen = SmallStoreOptions(dir.path(), &fault);
  auto store_or = LsmStore::Open(reopen);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  LsmStore* store = store_or->get();
  for (const auto& [key, value] : acked) {
    std::string got;
    ASSERT_TRUE(GetKey(*store, key, &got).ok()) << "lost acked key " << key;
    EXPECT_EQ(got, value);
  }
  // No .tmp leftovers survive recovery, and the store works again.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  ASSERT_TRUE(store->Put("after", "crash").ok());
  ASSERT_TRUE(store->Flush().ok());
  std::string got;
  EXPECT_TRUE(GetKey(*store, "after", &got).ok());
}

// ---------------------------------------------------------------------------
// Concurrency stress: writers + scanners + background flush/compaction.
// Primarily a ThreadSanitizer target (the CI TSan job runs this binary).

TEST(WritePathTest, ConcurrentWritersScannersFlushStress) {
  TempDir dir("stress");
  StoreOptions opts = SmallStoreOptions(dir.path(), Env::Default());
  opts.compaction_trigger = 3;  // keep compactions in the mix
  auto store_or = LsmStore::Open(opts);
  ASSERT_TRUE(store_or.ok());
  LsmStore* store = store_or->get();

  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 400;
  std::atomic<bool> stop_readers{false};
  std::atomic<int> put_failures{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kKeysPerWriter; ++i) {
        std::string key =
            "w" + std::to_string(w) + "/k" + std::to_string(i);
        if (!store->Put(key, "value" + std::to_string(i)).ok()) {
          put_failures.fetch_add(1);
        }
        if (i % 64 == 0) {
          (void)store->Delete("w" + std::to_string(w) + "/k0");
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop_readers.load()) {
        size_t rows = 0;
        Status st = store->Scan({{"", ""}}, [&](size_t, std::string_view, std::string_view) {
              ++rows;
              return true;
            });
        EXPECT_TRUE(st.ok());
        std::string value;
        (void)GetKey(*store, "w0/k1", &value);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop_readers.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(put_failures.load(), 0);

  ASSERT_TRUE(store->Flush().ok());
  // Every writer's final keys are present (k0 may be deleted).
  std::string value;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 1; i < kKeysPerWriter; ++i) {
      std::string key = "w" + std::to_string(w) + "/k" + std::to_string(i);
      ASSERT_TRUE(GetKey(*store, key, &value).ok()) << "missing " << key;
      ASSERT_EQ(value, "value" + std::to_string(i));
    }
  }
  EXPECT_GT(GlobalCounter("just_kv_flushes_total"), 0u);
}

// Group commit is observable: concurrent writers share WAL appends.
TEST(WritePathTest, GroupCommitBatchesConcurrentWriters) {
  TempDir dir("group_commit");
  StoreOptions opts;
  opts.dir = dir.path();
  opts.env = Env::Default();
  opts.memtable_bytes = 4 << 20;  // no flush interference
  auto store_or = LsmStore::Open(opts);
  ASSERT_TRUE(store_or.ok());
  LsmStore* store = store_or->get();

  auto* hist =
      obs::Registry::Global().GetHistogram("just_kv_group_commit_batch_ops");
  const uint64_t count_before = hist->Count();
  const uint64_t sum_before = hist->Sum();

  // A multi-op WriteBatch is at minimum one group of its own size.
  std::vector<WriteOp> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back(WriteOp{"batch/k" + std::to_string(i),
                            "v" + std::to_string(i), false});
  }
  ASSERT_TRUE(store->WriteBatch(batch).ok());
  EXPECT_GE(hist->Count(), count_before + 1);
  EXPECT_GE(hist->Sum(), sum_before + 50);

  std::string value;
  ASSERT_TRUE(GetKey(*store, "batch/k49", &value).ok());
  EXPECT_EQ(value, "v49");

  // Batches are crash-atomic up to the synced prefix: after reopen, the
  // whole batch replays (it was one WAL append).
}

}  // namespace
}  // namespace just::kv
