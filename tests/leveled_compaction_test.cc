// Leveled compaction acceptance tests: a bulk load builds a multi-level
// tree that scans exactly, the L1+ non-overlap invariant (which lets Scan
// merge one iterator per deeper level), and the refusal of a MANIFEST of
// another format.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kvstore/lsm_store.h"
#include "test_util.h"

namespace just::kv {
namespace {

using just::testing::TempDir;

std::string TestKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%05d", i);
  return buf;
}

std::string TestValue(int i, int round) {
  return "v" + std::to_string(round) + "-" + std::to_string(i) +
         std::string(90, 'x');
}

StoreOptions LeveledOptions(const std::string& dir) {
  StoreOptions opts;
  opts.dir = dir;
  opts.block_size = 512;
  opts.compaction_trigger = 4;
  opts.num_levels = 4;
  opts.level_base_bytes = 24 << 10;  // tiny budgets: force a deep tree
  opts.level_fanout = 4;
  opts.target_file_size = 8 << 10;
  return opts;
}

// Flushes `rounds` memtables of overlapping key ranges (each key is
// rewritten by several rounds, so compactions merge real duplicates) and
// waits until the level budgets are satisfied. Fills `model` with the
// winning value per key.
void BulkLoad(LsmStore* store, int rounds,
              std::map<std::string, std::string>* model) {
  const int kKeysPerRound = 40;
  const int kKeySpace = 300;
  for (int r = 0; r < rounds; ++r) {
    for (int j = 0; j < kKeysPerRound; ++j) {
      int i = (r * kKeysPerRound + j * 7) % kKeySpace;
      ASSERT_TRUE(store->Put(TestKey(i), TestValue(i, r)).ok());
      (*model)[TestKey(i)] = TestValue(i, r);
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  ASSERT_TRUE(store->WaitForBackgroundIdle().ok());
}

// After a bulk load of at least 4x compaction_trigger memtables, the tree
// has levels below L0, L0 is back under its trigger, and one scan of it
// yields every key once with its newest value.
TEST(LeveledCompactionTest, BulkLoadBuildsAMultiLevelTree) {
  TempDir dir("leveled_tree");
  auto store_or = LsmStore::Open(LeveledOptions(dir.path()));
  ASSERT_TRUE(store_or.ok());
  LsmStore* store = store_or->get();

  std::map<std::string, std::string> model;
  // 20 memtables = 5x the compaction_trigger of 4.
  BulkLoad(store, 20, &model);

  auto stats = store->GetStats();
  ASSERT_GE(stats.level_files.size(), 2u);
  size_t deeper_files = 0;
  for (size_t level = 1; level < stats.level_files.size(); ++level) {
    deeper_files += stats.level_files[level];
  }
  EXPECT_GT(deeper_files, 0u) << "bulk load never compacted past L0";
  EXPECT_LT(stats.level_files[0],
            static_cast<size_t>(store->options().compaction_trigger))
      << "WaitForBackgroundIdle returned with L0 over its trigger";

  // The same tree must scan correctly: one entry per key, newest value.
  std::map<std::string, std::string> scanned;
  ASSERT_TRUE(store
                  ->Scan({{"", ""}},
                         [&](size_t, std::string_view k, std::string_view v) {
                           EXPECT_TRUE(
                               scanned.emplace(std::string(k), std::string(v))
                                   .second)
                               << "duplicate key emitted: " << k;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(scanned, model);
}

// Structural invariant behind the per-level merge: deeper levels are sorted
// runs of pairwise non-overlapping tables, and every recorded key range
// matches what the table actually contains.
TEST(LeveledCompactionTest, DeeperLevelsNeverOverlap) {
  TempDir dir("leveled_overlap");
  auto store_or = LsmStore::Open(LeveledOptions(dir.path()));
  ASSERT_TRUE(store_or.ok());
  LsmStore* store = store_or->get();

  std::map<std::string, std::string> model;
  BulkLoad(store, 20, &model);

  auto levels = store->GetLevelInfo();
  ASSERT_GE(levels.size(), 2u);
  for (size_t level = 1; level < levels.size(); ++level) {
    const auto& tables = levels[level];
    for (size_t i = 0; i < tables.size(); ++i) {
      EXPECT_LE(tables[i].smallest_key, tables[i].largest_key)
          << "L" << level << " table " << tables[i].file_number;
      if (i + 1 < tables.size()) {
        EXPECT_LT(tables[i].largest_key, tables[i + 1].smallest_key)
            << "L" << level << " tables " << tables[i].file_number << " and "
            << tables[i + 1].file_number << " overlap";
      }
    }
  }
}

// A MANIFEST claiming an unknown format version must fail the open with
// NotSupported, not load garbage.
TEST(LeveledCompactionTest, UnknownManifestVersionIsNotSupported) {
  TempDir dir("manifest_v9");
  {
    auto store = LsmStore::Open(LeveledOptions(dir.path()));
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "b").ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  const std::string manifest_path = dir.path() + "/MANIFEST";
  std::string manifest;
  ASSERT_TRUE(Env::Default()->ReadFileToString(manifest_path, &manifest).ok());
  manifest.replace(manifest.find("just-manifest 3"),
                   std::string("just-manifest 3").size(), "just-manifest 9");
  {
    auto file = Env::Default()->NewWritableFile(manifest_path, true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(manifest).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto reopened = LsmStore::Open(LeveledOptions(dir.path()));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotSupported)
      << reopened.status().ToString();
}

}  // namespace
}  // namespace just::kv
