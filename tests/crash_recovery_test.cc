// Crash and corruption recovery: torn WAL tails, simulated power loss,
// startup quarantine of half-written SSTables, and a byte-flip sweep that
// corrupts every single byte of an SSTable in turn. The invariant under
// test: the store serves exactly-correct data or a clean Status::Corruption
// — never a wrong answer, never a silent loss.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/fault_env.h"
#include "kvstore/lsm_store.h"
#include "kvstore/wal.h"
#include "test_util.h"

namespace just::kv {
namespace {

using just::testing::GetKey;
using just::testing::TempDir;

StoreOptions SmallStoreOptions(const std::string& dir, Env* env) {
  StoreOptions opts;
  opts.dir = dir;
  opts.env = env;
  opts.block_size = 256;
  opts.compaction_trigger = 100;  // keep the table layout deterministic
  return opts;
}

std::string TestKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%03d", i);
  return buf;
}

std::string TestValue(int i) {
  return "value-" + std::to_string(i) + std::string(16, 'v');
}

// --- Torn WAL tail ---

// Writes K records, then truncates the log at every byte offset inside the
// last record. Replay must yield exactly the first K-1 records each time: a
// torn tail is dropped cleanly, never half-applied, and never takes the
// preceding intact records with it.
TEST(CrashRecoveryTest, TornWalTailReplaysExactlyPrecedingRecords) {
  TempDir dir("torn_wal");
  const std::string path = dir.path() + "/wal.log";
  const int kRecords = 5;
  std::vector<uint64_t> size_after;  // file size after each record
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, /*truncate=*/true).ok());
    for (int i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(writer.Append(WalRecordType::kPut, TestKey(i),
                                TestValue(i)).ok());
      ASSERT_TRUE(writer.Sync().ok());
      auto size = Env::Default()->GetFileSize(path);
      ASSERT_TRUE(size.ok());
      size_after.push_back(*size);
    }
  }

  auto replay = [&](std::vector<std::pair<std::string, std::string>>* out) {
    out->clear();
    return ReplayWal(path, [&](WalRecordType type, std::string_view key,
                               std::string_view value) {
      ASSERT_EQ(type, WalRecordType::kPut);
      out->emplace_back(std::string(key), std::string(value));
    });
  };

  std::vector<std::pair<std::string, std::string>> records;
  ASSERT_TRUE(replay(&records).ok());
  ASSERT_EQ(records.size(), static_cast<size_t>(kRecords));

  // Truncate downward through every byte of the last record, including the
  // cut that removes it entirely.
  for (uint64_t cut = size_after[kRecords - 1] - 1;
       cut + 1 > size_after[kRecords - 2]; --cut) {
    ASSERT_TRUE(Env::Default()->TruncateFile(path, cut).ok());
    ASSERT_TRUE(replay(&records).ok()) << "cut at byte " << cut;
    ASSERT_EQ(records.size(), static_cast<size_t>(kRecords - 1))
        << "cut at byte " << cut;
    for (int i = 0; i < kRecords - 1; ++i) {
      EXPECT_EQ(records[i].first, TestKey(i));
      EXPECT_EQ(records[i].second, TestValue(i));
    }
  }
}

// A flipped byte mid-log must not let later records through: replay applies
// the intact prefix and stops at the damaged record.
TEST(CrashRecoveryTest, CorruptWalRecordStopsReplayAtIntactPrefix) {
  TempDir dir("corrupt_wal");
  const std::string path = dir.path() + "/wal.log";
  std::vector<uint64_t> size_after;
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, /*truncate=*/true).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(writer.Append(WalRecordType::kPut, TestKey(i),
                                TestValue(i)).ok());
      ASSERT_TRUE(writer.Sync().ok());
      size_after.push_back(*Env::Default()->GetFileSize(path));
    }
  }
  FaultInjectionEnv env;
  // Damage the third record's payload.
  ASSERT_TRUE(env.FlipByte(path, size_after[1] + 6).ok());
  size_t count = 0;
  ASSERT_TRUE(ReplayWal(path, [&](WalRecordType, std::string_view key,
                                  std::string_view) {
    EXPECT_EQ(key, TestKey(static_cast<int>(count)));
    ++count;
  }).ok());
  EXPECT_EQ(count, 2u);
}

// --- Simulated power loss ---

// With sync_wal on, every acknowledged write survives power loss; writes
// acknowledged without sync may vanish, but the store must still reopen
// cleanly and keep everything that was synced before.
TEST(CrashRecoveryTest, PowerLossKeepsSyncedWritesDropsUnsynced) {
  TempDir dir("power_loss");
  FaultInjectionEnv env;
  {
    StoreOptions opts = SmallStoreOptions(dir.path(), &env);
    opts.sync_wal = true;
    auto store = LsmStore::Open(opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*store)->Put(TestKey(i), TestValue(i)).ok());
    }
  }
  {
    StoreOptions opts = SmallStoreOptions(dir.path(), &env);
    opts.sync_wal = false;  // acknowledgement no longer implies durability
    auto store = LsmStore::Open(opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*store)->Put("unsynced" + std::to_string(i), "gone").ok());
    }
    env.DropUnsyncedWrites();  // power loss; store object still "running"
  }  // the dying store's close attempts fail under the write lockout
  env.ClearFaults();

  auto store = LsmStore::Open(SmallStoreOptions(dir.path(), Env::Default()));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::string value;
  for (int i = 0; i < 10; ++i) {
    Status st = GetKey(**store, TestKey(i), &value);
    ASSERT_TRUE(st.ok()) << "synced write " << i << " lost: " << st.ToString();
    EXPECT_EQ(value, TestValue(i));
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        GetKey(**store, "unsynced" + std::to_string(i), &value).IsNotFound());
  }
}

// Power loss immediately after Flush(): the flushed table was fsynced and
// committed via the MANIFEST before Flush returned, so it must survive even
// though the WAL that covered those writes is now truncated.
TEST(CrashRecoveryTest, PowerLossAfterFlushKeepsFlushedData) {
  TempDir dir("power_after_flush");
  FaultInjectionEnv env;
  {
    auto store = LsmStore::Open(SmallStoreOptions(dir.path(), &env));
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*store)->Put(TestKey(i), TestValue(i)).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    env.DropUnsyncedWrites();
  }
  env.ClearFaults();
  auto store = LsmStore::Open(SmallStoreOptions(dir.path(), Env::Default()));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::string value;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(GetKey(**store, TestKey(i), &value).ok()) << TestKey(i);
    EXPECT_EQ(value, TestValue(i));
  }
}

// --- Startup quarantine ---

TEST(CrashRecoveryTest, QuarantinesStraySstAndRemovesTmpFiles) {
  TempDir dir("quarantine");
  {
    auto store = LsmStore::Open(SmallStoreOptions(dir.path(), Env::Default()));
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE((*store)->Put(TestKey(i), TestValue(i)).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Plant the debris a crash mid-flush/compaction leaves behind: a table the
  // MANIFEST never committed and a half-built temp file.
  Env* posix = Env::Default();
  for (const char* name : {"000099.sst", "000042.sst.tmp"}) {
    auto file = posix->NewWritableFile(dir.path() + "/" + name, true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("partial table junk").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  auto store = LsmStore::Open(SmallStoreOptions(dir.path(), Env::Default()));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->GetStats().quarantined_files, 1u);
  EXPECT_FALSE(posix->FileExists(dir.path() + "/000099.sst"));
  EXPECT_TRUE(posix->FileExists(dir.path() + "/000099.sst.quarantine"));
  EXPECT_FALSE(posix->FileExists(dir.path() + "/000042.sst.tmp"));

  // Committed data is untouched by the cleanup.
  std::string value;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(GetKey(**store, TestKey(i), &value).ok());
    EXPECT_EQ(value, TestValue(i));
  }
  // The file-number counter skips past the quarantined table, so the next
  // flush cannot collide with it.
  ASSERT_TRUE((*store)->Put("zz", "after").ok());
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_TRUE(posix->FileExists(dir.path() + "/000100.sst"));
}

// --- Byte-flip sweep ---

// Flips every single byte of a committed SSTable in turn and checks the
// acceptance criterion from the failure model: each read either returns
// exactly-correct data or Status::Corruption. Every byte of a table is
// under a CRC (data blocks, index block, footer), so every flip must also
// be detected: by the open or by the full scan.
TEST(CrashRecoveryTest, AnySingleByteFlipIsDetectedOrHarmless) {
  TempDir dir("byte_flip");
  const int kKeys = 40;
  std::map<std::string, std::string> model;
  {
    auto store = LsmStore::Open(SmallStoreOptions(dir.path(), Env::Default()));
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE((*store)->Put(TestKey(i), TestValue(i)).ok());
      model[TestKey(i)] = TestValue(i);
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Locate the single SSTable produced by the flush.
  std::string sst_path;
  auto entries = Env::Default()->ListDir(dir.path());
  ASSERT_TRUE(entries.ok());
  for (const auto& name : *entries) {
    if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
      ASSERT_TRUE(sst_path.empty()) << "expected exactly one table";
      sst_path = dir.path() + "/" + name;
    }
  }
  ASSERT_FALSE(sst_path.empty());
  auto file_size = Env::Default()->GetFileSize(sst_path);
  ASSERT_TRUE(file_size.ok());

  FaultInjectionEnv flipper;  // used only for its FlipByte utility
  for (uint64_t offset = 0; offset < *file_size; ++offset) {
    ASSERT_TRUE(flipper.FlipByte(sst_path, offset).ok());

    auto store = LsmStore::Open(SmallStoreOptions(dir.path(), Env::Default()));
    if (!store.ok()) {
      // Footer/index/first-block damage can fail the open — but only with a
      // corruption report, never a crash or a silently empty store.
      EXPECT_TRUE(store.status().IsCorruption())
          << "offset " << offset << ": " << store.status().ToString();
    } else {
      bool detected = false;
      // Full scan: either the exact model contents or a corruption error.
      std::map<std::string, std::string> scanned;
      Status st = (*store)->Scan({{"", ""}}, [&](size_t, std::string_view k, std::string_view v) {
            scanned.emplace(std::string(k), std::string(v));
            return true;
          });
      if (st.ok()) {
        EXPECT_EQ(scanned, model) << "offset " << offset;
      } else {
        detected = true;
        EXPECT_TRUE(st.IsCorruption())
            << "offset " << offset << ": " << st.ToString();
      }
      // Point reads: correct value or corruption — never a wrong value and
      // never a false NotFound.
      for (int i = 0; i < kKeys; i += 7) {
        std::string value;
        st = GetKey(**store, TestKey(i), &value);
        if (st.ok()) {
          EXPECT_EQ(value, model[TestKey(i)])
              << "offset " << offset << " key " << TestKey(i);
        } else {
          detected = true;
          EXPECT_TRUE(st.IsCorruption())
              << "offset " << offset << ": " << st.ToString();
        }
      }
      EXPECT_TRUE(detected) << "offset " << offset << " flipped undetected";
    }

    ASSERT_TRUE(flipper.FlipByte(sst_path, offset).ok());  // restore
  }
}

// --- Power cut mid-leveled-compaction ---

// Leveled store with budgets small enough that the fourth flush schedules
// an L0->L1 compaction. sync_wal keeps the failure model strict: every
// acknowledged write must survive any cut.
StoreOptions LeveledCrashOptions(const std::string& dir, Env* env) {
  StoreOptions opts;
  opts.dir = dir;
  opts.env = env;
  opts.block_size = 256;
  opts.compaction_trigger = 4;
  opts.num_levels = 4;
  opts.level_base_bytes = 16 << 10;
  opts.level_fanout = 4;
  opts.target_file_size = 8 << 10;
  opts.sync_wal = true;
  return opts;
}

// Four overlapping memtables, the last carrying tombstones, flushed until
// L0 hits the compaction trigger — so exactly one L0->L1 compaction is
// scheduled as the final flush commits. `model` gets the expected contents.
void LoadUntilCompactionTriggered(LsmStore* store,
                                  std::map<std::string, std::string>* model) {
  for (int round = 0; round < 4; ++round) {
    for (int j = 0; j < 30; ++j) {
      int i = round * 8 + j;  // ranges overlap: the merge has real work
      ASSERT_TRUE(store->Put(TestKey(i), TestValue(i + round)).ok());
      (*model)[TestKey(i)] = TestValue(i + round);
    }
    if (round == 3) {
      for (int i = 0; i < 5; ++i) {  // tombstones ride into the compaction
        ASSERT_TRUE(store->Delete(TestKey(i)).ok());
        model->erase(TestKey(i));
      }
    }
    ASSERT_TRUE(store->Flush().ok());
  }
}

void VerifyExactlyModel(LsmStore* store,
                        const std::map<std::string, std::string>& model) {
  std::string value;
  for (const auto& [key, expected] : model) {
    Status st = GetKey(*store, key, &value);
    ASSERT_TRUE(st.ok()) << key << ": " << st.ToString();
    EXPECT_EQ(value, expected) << key;
  }
  for (int i = 0; i < 5; ++i) {  // deleted keys must stay deleted
    EXPECT_TRUE(GetKey(*store, TestKey(i), &value).IsNotFound()) << TestKey(i);
  }
  std::map<std::string, std::string> scanned;
  ASSERT_TRUE(store
                  ->Scan({{"", ""}},
                         [&](size_t, std::string_view k, std::string_view v) {
                           scanned.emplace(std::string(k), std::string(v));
                           return true;
                         })
                  .ok());
  EXPECT_EQ(scanned, model);
}

// Waits (bounded) until the injected fault has been hit or the background
// compaction finished without reaching it.
void AwaitFaultOrIdle(FaultInjectionEnv* env, LsmStore* store,
                      int64_t fail_at) {
  for (int spin = 0; spin < 300; ++spin) {
    if (env->write_ops() >= fail_at) return;
    if (store->GetStats().level_files[0] == 0) return;  // compaction done
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Loads until the L0->L1 compaction is scheduled, parking it at its first
// write op: the creation of its first output table (each of the four
// flushes before it creates one table). Returns write_ops() as of the
// compaction's start, with the compaction parked until env->ReleaseHeld(),
// or -1 if it never started. Counting from there, not from when Flush()
// returns, keeps a compaction that races ahead of the test inside the count.
int64_t LoadAndParkCompaction(FaultInjectionEnv* env, LsmStore* store,
                              std::map<std::string, std::string>* model) {
  env->HoldFileCreation(".sst.tmp", /*skip=*/4);
  LoadUntilCompactionTriggered(store, model);
  if (!env->AwaitHeld(std::chrono::seconds(60))) {
    env->ReleaseHeld();
    return -1;
  }
  return env->write_ops();
}

// Measures how many filesystem write ops the scheduled L0->L1 compaction
// performs on a healthy disk, so the sweeps below can target every one.
int64_t MeasureCompactionWriteOps() {
  TempDir dir("compaction_ops_probe");
  FaultInjectionEnv env;
  auto store = LsmStore::Open(LeveledCrashOptions(dir.path(), &env));
  EXPECT_TRUE(store.ok());
  std::map<std::string, std::string> model;
  const int64_t start = LoadAndParkCompaction(&env, store->get(), &model);
  env.ReleaseHeld();
  EXPECT_GE(start, 0) << "the compaction never started";
  if (start < 0) return 0;
  EXPECT_TRUE((*store)->WaitForBackgroundIdle().ok());
  auto stats = (*store)->GetStats();
  EXPECT_EQ(stats.level_files[0], 0u);  // the compaction actually ran
  EXPECT_GT(stats.level_files[1], 0u);
  return env.write_ops() - start;
}

// Sweeps a dead-disk power cut across every write op of the L0->L1
// compaction: tmp-file create/append/sync, the rename, the MANIFEST
// commit, the input deletions. Whatever op the cut lands on, reopening
// must serve exactly the acknowledged contents — the compaction inputs
// stay live until the MANIFEST rename commits the outputs, so a
// half-finished compaction can lose nothing and resurrect nothing.
TEST(CrashRecoveryTest, PowerCutMidCompactionLosesNothing) {
  const int64_t compaction_ops = MeasureCompactionWriteOps();
  ASSERT_GT(compaction_ops, 0);
  // Full sweep, capped to keep the test time bounded under sanitizers.
  const int64_t step = std::max<int64_t>(1, compaction_ops / 40);
  for (int64_t k = 1; k <= compaction_ops; k += step) {
    TempDir dir("power_cut_compaction");
    FaultInjectionEnv env;
    std::map<std::string, std::string> model;
    {
      auto store = LsmStore::Open(LeveledCrashOptions(dir.path(), &env));
      ASSERT_TRUE(store.ok());
      const int64_t start =
          LoadAndParkCompaction(&env, store->get(), &model);
      const int64_t fail_at = start + k;
      if (start >= 0) env.FailWriteOp(fail_at);  // dies at compaction op k
      env.ReleaseHeld();
      ASSERT_GE(start, 0) << "the compaction never started";
      AwaitFaultOrIdle(&env, store->get(), fail_at);
      env.DropUnsyncedWrites();  // power loss
    }  // the dying store's close attempts fail under the write lockout
    env.ClearFaults();

    auto store =
        LsmStore::Open(LeveledCrashOptions(dir.path(), Env::Default()));
    ASSERT_TRUE(store.ok()) << "cut at op " << k << ": "
                            << store.status().ToString();
    VerifyExactlyModel(store->get(), model);

    // The recovered store must remain fully operational: new writes,
    // background compaction, and a manual major compaction all succeed.
    ASSERT_TRUE((*store)->Put("post-crash", "alive").ok()) << "op " << k;
    ASSERT_TRUE((*store)->Flush().ok()) << "op " << k;
    ASSERT_TRUE((*store)->WaitForBackgroundIdle().ok()) << "op " << k;
    ASSERT_TRUE((*store)->CompactAll().ok()) << "op " << k;
    model["post-crash"] = "alive";
    VerifyExactlyModel(store->get(), model);
  }
}

// A transient single-op fault during compaction (disk recovers immediately)
// must not corrupt anything: the attempt unwinds, reads stay exact, and a
// later manual compaction succeeds.
TEST(CrashRecoveryTest, TransientFaultDuringCompactionUnwindsCleanly) {
  const int64_t compaction_ops = MeasureCompactionWriteOps();
  ASSERT_GT(compaction_ops, 0);
  const int64_t step = std::max<int64_t>(1, compaction_ops / 10);
  for (int64_t k = 1; k <= compaction_ops; k += step) {
    TempDir dir("transient_compaction");
    FaultInjectionEnv env;
    std::map<std::string, std::string> model;
    auto store = LsmStore::Open(LeveledCrashOptions(dir.path(), &env));
    ASSERT_TRUE(store.ok());
    const int64_t start = LoadAndParkCompaction(&env, store->get(), &model);
    const int64_t fail_at = start + k;
    if (start >= 0) env.FailWriteOp(fail_at, /*all_after=*/false);  // one-shot
    env.ReleaseHeld();
    ASSERT_GE(start, 0) << "the compaction never started";
    AwaitFaultOrIdle(&env, store->get(), fail_at);

    VerifyExactlyModel(store->get(), model);
    ASSERT_TRUE((*store)->CompactAll().ok()) << "op " << k;
    VerifyExactlyModel(store->get(), model);
    // The deeper levels still hold the non-overlap invariant.
    auto levels = (*store)->GetLevelInfo();
    for (size_t level = 1; level < levels.size(); ++level) {
      for (size_t i = 0; i + 1 < levels[level].size(); ++i) {
        ASSERT_LT(levels[level][i].largest_key,
                  levels[level][i + 1].smallest_key)
            << "op " << k << " L" << level;
      }
    }
  }
}

}  // namespace
}  // namespace just::kv
