// Systematic fault injection over the storage path: every mutating
// filesystem operation of a fixed workload is failed in turn (transiently
// and dead-disk), and the store must never lose an acknowledged write
// silently — after reopening, each write either reads back correctly or its
// operation had returned a non-OK Status. This is the test the paper's
// HBase substrate gets for free from WAL replay + region failover
// (Sections I, IV); our substituted kvstore must earn it.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>

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

StoreOptions FaultStoreOptions(const std::string& dir, Env* env,
                               bool sync_wal) {
  StoreOptions opts;
  opts.dir = dir;
  opts.env = env;
  opts.sync_wal = sync_wal;
  opts.memtable_bytes = 1 << 10;  // tiny: many automatic flushes
  opts.block_size = 256;
  opts.compaction_trigger = 3;  // frequent full compactions
  return opts;
}

/// What the workload knows after running against a possibly-failing store.
struct WorkloadResult {
  bool opened = false;
  /// Keys whose last acknowledged op was a Put, with the acked value.
  std::map<std::string, std::string> live;
  /// Keys whose last acknowledged op was a Delete.
  std::set<std::string> deleted;
  /// Keys whose last op FAILED: on-disk state is legitimately either the
  /// previous acked state or the attempted one, so assertions skip them.
  std::set<std::string> ambiguous;
};

/// A fixed workload of puts, deletes, explicit flushes, and a full
/// compaction. Every op's outcome is recorded; op failures are tolerated
/// (that is the point), only *silent* divergence is a bug.
WorkloadResult RunWorkload(const std::string& dir, Env* env, bool sync_wal) {
  WorkloadResult r;
  auto store_or = LsmStore::Open(FaultStoreOptions(dir, env, sync_wal));
  if (!store_or.ok()) return r;  // open failed: nothing was acknowledged
  r.opened = true;
  LsmStore* store = store_or->get();

  auto put = [&](const std::string& key, const std::string& value) {
    if (store->Put(key, value).ok()) {
      r.live[key] = value;
      r.deleted.erase(key);
      r.ambiguous.erase(key);
    } else {
      r.ambiguous.insert(key);
    }
  };
  auto del = [&](const std::string& key) {
    if (store->Delete(key).ok()) {
      r.live.erase(key);
      r.deleted.insert(key);
      r.ambiguous.erase(key);
    } else {
      r.ambiguous.insert(key);
    }
  };

  for (int i = 0; i < 24; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    put(key, "value-" + std::to_string(i) + std::string(24, 'x'));
    if (i % 7 == 6) (void)store->Flush();  // may fail; data stays in WAL
  }
  for (int i = 0; i < 24; i += 5) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    del(key);
  }
  (void)store->CompactAll();
  for (int i = 0; i < 6; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "late%03d", i);
    put(key, "late-" + std::to_string(i));
  }
  return r;
}

/// Reopens the store with a healthy filesystem and checks that every
/// unambiguous acknowledged write is visible and correct.
void VerifyAcknowledgedState(const std::string& dir, const WorkloadResult& r,
                             const std::string& context) {
  auto store_or =
      LsmStore::Open(FaultStoreOptions(dir, Env::Default(), false));
  ASSERT_TRUE(store_or.ok())
      << context << ": reopen failed: " << store_or.status().ToString();
  LsmStore* store = store_or->get();
  for (const auto& [key, value] : r.live) {
    if (r.ambiguous.count(key)) continue;
    std::string got;
    Status st = GetKey(*store, key, &got);
    ASSERT_TRUE(st.ok()) << context << ": acked key " << key
                         << " lost: " << st.ToString();
    EXPECT_EQ(got, value) << context << ": acked key " << key << " corrupted";
  }
  for (const auto& key : r.deleted) {
    if (r.ambiguous.count(key)) continue;
    std::string got;
    EXPECT_TRUE(GetKey(*store, key, &got).IsNotFound())
        << context << ": acked delete of " << key << " resurrected";
  }
}

/// Runs the workload once with no faults to learn its op budget.
int64_t CleanRunOpCount() {
  TempDir dir("fault_clean");
  FaultInjectionEnv env;
  WorkloadResult r = RunWorkload(dir.path(), &env, /*sync_wal=*/false);
  EXPECT_TRUE(r.opened);
  EXPECT_TRUE(r.ambiguous.empty());
  return env.write_ops();
}

TEST(FaultInjectionTest, CleanWorkloadUsesManyOpsAndLosesNothing) {
  TempDir dir("fault_baseline");
  FaultInjectionEnv env;
  WorkloadResult r = RunWorkload(dir.path(), &env, /*sync_wal=*/false);
  ASSERT_TRUE(r.opened);
  EXPECT_TRUE(r.ambiguous.empty());
  // The workload must actually exercise flush + compaction machinery.
  EXPECT_GT(env.write_ops(), 50);
  VerifyAcknowledgedState(dir.path(), r, "clean");
}

// One transient failure at op N: the disk recovers immediately, the store
// keeps running, and after a clean close every acknowledged write must be
// readable. Walks N across the entire workload, covering every WAL append,
// every block write, every sync, every rename of flush and compaction.
TEST(FaultInjectionTest, TransientFailureAtEveryOpLosesNothing) {
  const int64_t total_ops = CleanRunOpCount();
  ASSERT_GT(total_ops, 0);
  for (int64_t n = 1; n <= total_ops; ++n) {
    TempDir dir("fault_oneshot");
    FaultInjectionEnv env;
    env.FailWriteOp(n, /*all_after=*/false);
    WorkloadResult r = RunWorkload(dir.path(), &env, /*sync_wal=*/false);
    env.ClearFaults();
    if (!r.opened) continue;  // op 1 can fail the WAL creation at open
    VerifyAcknowledgedState(dir.path(), r,
                            "one-shot fail at op " + std::to_string(n));
  }
}

// Dead disk from op N on: every subsequent write fails. With sync_wal on,
// acknowledgement implies fsync, so even though the store can never write
// again, everything acknowledged must be durable on reopen.
TEST(FaultInjectionTest, DiskDeathAtEveryOpLosesNoSyncedWrite) {
  const int64_t total_ops = CleanRunOpCount();
  ASSERT_GT(total_ops, 0);
  // sync_wal adds ops; sweep the clean budget of the sync_wal workload.
  int64_t synced_total;
  {
    TempDir dir("fault_sync_clean");
    FaultInjectionEnv env;
    RunWorkload(dir.path(), &env, /*sync_wal=*/true);
    synced_total = env.write_ops();
  }
  ASSERT_GT(synced_total, total_ops);
  for (int64_t n = 1; n <= synced_total; n += 1) {
    TempDir dir("fault_dead");
    FaultInjectionEnv env;
    env.FailWriteOp(n, /*all_after=*/true);
    WorkloadResult r = RunWorkload(dir.path(), &env, /*sync_wal=*/true);
    env.ClearFaults();
    if (!r.opened) continue;
    VerifyAcknowledgedState(dir.path(), r,
                            "dead disk from op " + std::to_string(n));
  }
}

// --- Cluster-level degradation: transient region-server faults ---

cluster::ClusterOptions SmallCluster(const std::string& dir, Env* env) {
  cluster::ClusterOptions copts;
  copts.dir = dir;
  copts.num_servers = 3;
  copts.store.env = env;
  copts.store.memtable_bytes = 1 << 10;
  copts.store.block_size = 256;
  copts.max_retries = 2;
  copts.retry_backoff_ms = 0;  // no need to sleep in tests
  return copts;
}

TEST(ClusterFaultTest, GetRetriesTransientReadFault) {
  TempDir dir("cluster_get_retry");
  FaultInjectionEnv env;
  auto cluster = cluster::RegionCluster::Open(SmallCluster(dir.path(), &env));
  ASSERT_TRUE(cluster.ok());
  // Reads are one-key scans. Values larger than a block: every key lives in
  // its own data block, so each first read must truly hit the disk (no
  // block-cache sharing).
  auto value_of = [](int i) {
    return "v" + std::to_string(i) + std::string(300, 'p');
  };
  for (int i = 0; i < 30; ++i) {
    std::string key(1, static_cast<char>('a' + i));
    ASSERT_TRUE(PutKey(**cluster, key, value_of(i)).ok());
  }
  ASSERT_TRUE((*cluster)->FlushAll().ok());  // move data to SSTables

  // Probe keys must not be a table's smallest key: the reader loads (and
  // caches) the first data block during open for smallest-key discovery,
  // and a cached block would hide the injected read faults.

  // One failing pread: the bounded retry must absorb it.
  env.FailNextReads(1);
  std::string v;
  Status st = GetKey(**cluster, "d", &v);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(v, value_of(3));

  // More consecutive failures than retries: surfaces as a transient error,
  // not a wrong answer.
  env.FailNextReads(1000);
  st = GetKey(**cluster, "e", &v);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTransient()) << st.ToString();
  env.ClearFaults();

  // After the brownout clears, the same key serves normally.
  st = GetKey(**cluster, "e", &v);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(v, value_of(4));
}

TEST(ClusterFaultTest, ParallelScanRetriesWithoutDuplicatingRows) {
  TempDir dir("cluster_scan_retry");
  FaultInjectionEnv env;
  auto cluster = cluster::RegionCluster::Open(SmallCluster(dir.path(), &env));
  ASSERT_TRUE(cluster.ok());
  const int kRows = 40;
  for (int i = 0; i < kRows; ++i) {
    std::string key(1, static_cast<char>('A' + i % 26));
    key += std::to_string(i);
    ASSERT_TRUE(PutKey(**cluster, key, "v").ok());
  }
  ASSERT_TRUE((*cluster)->FlushAll().ok());

  curve::KeyRange everything;  // empty start + end: all servers, all keys
  env.FailNextReads(1);
  auto results = (*cluster)->ParallelScan({everything});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  std::set<std::string> seen;
  for (const auto& row : (*results)[0].rows) {
    EXPECT_TRUE(seen.insert(row.key).second)
        << "row " << row.key << " duplicated by retry";
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kRows));
}

// The scan starts on the calling thread, so the failed read lands in a
// server's scan there; its backoff spreads the other servers to pool
// helpers, and the failed server resumes once, past the rows it already
// delivered. Every server's rows still come from one thread.
TEST(ClusterFaultTest, ScanRetryOnOneServerResumesExactlyOnce) {
  TempDir dir("cluster_scan_resume");
  FaultInjectionEnv env;
  cluster::ClusterOptions options = SmallCluster(dir.path(), &env);
  options.retry_backoff_ms = 1;  // the backoff really sleeps on its thread
  auto cluster = cluster::RegionCluster::Open(options);
  ASSERT_TRUE(cluster.ok());
  const int kRows = 90;
  for (int i = 0; i < kRows; ++i) {
    std::string key(1, static_cast<char>('A' + i % 26));
    key += std::to_string(i);
    ASSERT_TRUE(PutKey(**cluster, key, std::string(40, 'v')).ok());
  }
  ASSERT_TRUE((*cluster)->FlushAll().ok());

  class Sink : public cluster::RegionCluster::ScanSink {
   public:
    bool Accept(int server, size_t, std::string_view key,
                std::string_view) override {
      std::lock_guard<std::mutex> lock(mu);
      ++rows;
      keys.insert(std::string(key));
      threads[server].insert(std::this_thread::get_id());
      return true;
    }
    std::mutex mu;
    int rows = 0;
    std::set<std::string> keys;
    std::map<int, std::set<std::thread::id>> threads;
  };
  obs::Counter* retries =
      obs::Registry::Global().GetCounter("just_cluster_retries_total");
  const uint64_t before = retries->Value();
  env.FailNextReads(1);
  Sink sink;
  curve::KeyRange everything;  // empty start + end: all servers, all keys
  Status st = (*cluster)->Scan({everything}, &sink);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(retries->Value() - before, 1u);
  EXPECT_EQ(sink.rows, kRows);
  EXPECT_EQ(sink.keys.size(), static_cast<size_t>(kRows))
      << "the retry duplicated a row";
  for (const auto& [server, threads] : sink.threads) {
    EXPECT_EQ(threads.size(), 1u) << "server " << server;
  }
}

TEST(ClusterFaultTest, PutRetriesTransientWriteFault) {
  TempDir dir("cluster_put_retry");
  FaultInjectionEnv env;
  auto cluster = cluster::RegionCluster::Open(SmallCluster(dir.path(), &env));
  ASSERT_TRUE(cluster.ok());
  // Fail exactly the next mutating op (the WAL append of this Put); the
  // retry's append must succeed.
  env.FailWriteOp(env.write_ops() + 1, /*all_after=*/false);
  Status st = PutKey(**cluster, "x", "survives");
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::string v;
  ASSERT_TRUE(GetKey(**cluster, "x", &v).ok());
  EXPECT_EQ(v, "survives");
}

}  // namespace
}  // namespace just::kv
