// Leveled-compaction property sweep: random Put/Delete/flush interleavings
// against an in-memory model, with the structural invariants checked at
// every quiesce point:
//   1. L1+ tables are sorted and pairwise non-overlapping.
//   2. Tables at the bottom configured level never contain tombstones
//      (tombstone GC happens only when nothing older can resurrect).
//   3. Reads (Get and Scan) agree exactly with the model.
// Runs in the `just_slow_tests` binary (ctest label "slow") so sanitizer CI
// can exclude it.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kvstore/lsm_store.h"
#include "kvstore/sstable.h"
#include "test_util.h"

namespace just::kv {
namespace {

using just::testing::GetKey;
using just::testing::TempDir;

std::string PropKey(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "pk%04llu",
                static_cast<unsigned long long>(i));
  return buf;
}

// Asserts the leveled structural invariants on a quiesced store.
void CheckLevelInvariants(LsmStore* store) {
  auto levels = store->GetLevelInfo();
  for (size_t level = 1; level < levels.size(); ++level) {
    const auto& tables = levels[level];
    for (size_t i = 0; i + 1 < tables.size(); ++i) {
      ASSERT_LT(tables[i].largest_key, tables[i + 1].smallest_key)
          << "L" << level << " overlap between files "
          << tables[i].file_number << " and " << tables[i + 1].file_number;
    }
  }
  // The bottom configured level is, by definition, the oldest data: a
  // tombstone there masks nothing and must have been dropped by the
  // compaction that wrote the table. SSTable values carry a one-byte type
  // tag ('P' = put, 'D' = tombstone).
  if (levels.empty()) return;
  for (const auto& table : levels.back()) {
    auto reader = SsTableReader::Open(table.path, table.file_number,
                                      /*cache=*/nullptr);
    ASSERT_TRUE(reader.ok()) << table.path;
    SsTableReader::Iterator it(reader->get());
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      ASSERT_FALSE(it.value().empty());
      ASSERT_NE(it.value()[0], 'D')
          << "tombstone for key " << it.key() << " survived to the bottom "
          << "level in file " << table.file_number;
    }
    ASSERT_TRUE(it.status().ok()) << it.status().ToString();
  }
}

// Full read check: Scan over everything equals the model, and a sample of
// point reads (present and deleted keys) agrees too.
void CheckAgainstModel(LsmStore* store,
                       const std::map<std::string, std::string>& model,
                       Rng* rng) {
  std::map<std::string, std::string> scanned;
  ASSERT_TRUE(store
                  ->Scan({{"", ""}},
                         [&](size_t, std::string_view k, std::string_view v) {
                           EXPECT_TRUE(
                               scanned.emplace(std::string(k), std::string(v))
                                   .second)
                               << "duplicate key " << k;
                           return true;
                         })
                  .ok());
  ASSERT_EQ(scanned, model);
  std::string value;
  for (int i = 0; i < 64; ++i) {
    std::string key = PropKey(rng->Uniform(400));
    auto it = model.find(key);
    Status st = GetKey(*store, key, &value);
    if (it == model.end()) {
      EXPECT_TRUE(st.IsNotFound()) << key << ": " << st.ToString();
    } else {
      ASSERT_TRUE(st.ok()) << key << ": " << st.ToString();
      EXPECT_EQ(value, it->second) << key;
    }
  }
}

class LeveledPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LeveledPropertyTest, RandomInterleavingsKeepLevelInvariants) {
  TempDir dir("leveled_prop");
  StoreOptions opts;
  opts.dir = dir.path();
  opts.block_size = 256;
  opts.memtable_bytes = 4 << 10;  // frequent implicit flushes
  opts.compaction_trigger = 3;
  opts.num_levels = 4;
  opts.level_base_bytes = 16 << 10;
  opts.level_fanout = 4;
  opts.target_file_size = 8 << 10;
  auto store_or = LsmStore::Open(opts);
  ASSERT_TRUE(store_or.ok());
  LsmStore* store = store_or->get();

  Rng rng(GetParam());
  std::map<std::string, std::string> model;
  const int kOps = 4000;
  for (int i = 0; i < kOps; ++i) {
    uint64_t dice = rng.Uniform(100);
    std::string key = PropKey(rng.Uniform(400));
    if (dice < 60) {
      std::string value =
          "val-" + std::to_string(rng.Next() & 0xFFFF) +
          std::string(rng.Uniform(120), 'p');
      ASSERT_TRUE(store->Put(key, value).ok());
      model[key] = value;
    } else if (dice < 85) {
      ASSERT_TRUE(store->Delete(key).ok());
      model.erase(key);
    } else if (dice < 95) {
      // Point-read mid-flight: flushes and compactions may be running.
      std::string value;
      Status st = GetKey(*store, key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(st.IsNotFound()) << key;
      } else {
        ASSERT_TRUE(st.ok()) << key << ": " << st.ToString();
        EXPECT_EQ(value, it->second) << key;
      }
    } else {
      ASSERT_TRUE(store->Flush().ok());
    }
    // Quiesce periodically and check the structural invariants; doing it
    // mid-sequence (not just at the end) catches transient violations that
    // a later compaction would have papered over.
    if ((i + 1) % 1000 == 0) {
      ASSERT_TRUE(store->WaitForBackgroundIdle().ok());
      CheckLevelInvariants(store);
      CheckAgainstModel(store, model, &rng);
    }
  }

  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->WaitForBackgroundIdle().ok());
  CheckLevelInvariants(store);
  CheckAgainstModel(store, model, &rng);

  // A manual major compaction drops every tombstone; afterwards no table at
  // any level may carry one, and reads still agree with the model.
  ASSERT_TRUE(store->CompactAll().ok());
  auto levels = store->GetLevelInfo();
  size_t total_tables = 0;
  for (size_t level = 0; level < levels.size(); ++level) {
    for (const auto& table : levels[level]) {
      ++total_tables;
      auto reader = SsTableReader::Open(table.path, table.file_number,
                                        /*cache=*/nullptr);
      ASSERT_TRUE(reader.ok());
      SsTableReader::Iterator it(reader->get());
      for (it.SeekToFirst(); it.Valid(); it.Next()) {
        ASSERT_NE(it.value()[0], 'D') << "tombstone after CompactAll at L"
                                      << level << " key " << it.key();
      }
      ASSERT_TRUE(it.status().ok());
    }
  }
  ASSERT_EQ(total_tables, model.empty() ? 0u : 1u);
  CheckAgainstModel(store, model, &rng);

  // Crash-free reopen: the MANIFEST round-trips the exact level layout.
  store_or->reset();
  auto reopened = LsmStore::Open(opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  CheckLevelInvariants(reopened->get());
  CheckAgainstModel(reopened->get(), model, &rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeveledPropertyTest,
                         ::testing::Values(7ull, 1234ull, 20260806ull));

}  // namespace
}  // namespace just::kv
