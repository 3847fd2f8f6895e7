#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "kvstore/block.h"
#include "kvstore/lsm_store.h"
#include "kvstore/skiplist.h"
#include "kvstore/sstable.h"
#include "kvstore/wal.h"
#include "test_util.h"

namespace just::kv {

namespace internal {
// The two CRC kernels behind kv::Crc32 (defined in kvstore/crc32.cc).
uint32_t Crc32Portable(uint32_t crc, std::string_view data);
uint32_t Crc32Clmul(uint32_t crc, std::string_view data);
bool CpuHasClmul();
}  // namespace internal

namespace {

using just::testing::GetKey;
using just::testing::TempDir;

// --- SkipList ---

TEST(SkipListTest, PutGetOverwrite) {
  SkipList list;
  list.Put("b", "2");
  list.Put("a", "1");
  list.Put("c", "3");
  SkipList::Iterator it(&list);
  it.Seek("a");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "a");
  EXPECT_EQ(it.value(), "1");
  list.Put("a", "updated");
  it.Seek("a");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.value(), "updated");
  it.Seek("zz");
  EXPECT_FALSE(it.Valid());
  EXPECT_EQ(list.size(), 3u);
}

TEST(SkipListTest, IteratesInOrder) {
  SkipList list;
  Rng rng(1);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1000; ++i) {
    std::string key = std::to_string(rng.Next() % 10000);
    std::string value = std::to_string(i);
    list.Put(key, value);
    model[key] = value;
  }
  SkipList::Iterator it(&list);
  auto mit = model.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it.key(), mit->first);
    EXPECT_EQ(it.value(), mit->second);
  }
  EXPECT_EQ(mit, model.end());
}

TEST(SkipListTest, SeekFindsLowerBound) {
  SkipList list;
  for (int i = 0; i < 100; i += 10) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%03d", i);
    list.Put(buf, "v");
  }
  SkipList::Iterator it(&list);
  it.Seek("015");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "020");
  it.Seek("000");
  EXPECT_EQ(it.key(), "000");
  it.Seek("999");
  EXPECT_FALSE(it.Valid());
}

// --- Block ---

TEST(BlockTest, BuildParseIterate) {
  BlockBuilder builder(4);
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%04d", i);
    entries.emplace_back(key, "value" + std::to_string(i));
    builder.Add(entries.back().first, entries.back().second);
  }
  auto block = Block::Parse(builder.Finish());
  ASSERT_TRUE(block.ok());
  Block::Iterator it(block->get());
  size_t i = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++i) {
    ASSERT_LT(i, entries.size());
    EXPECT_EQ(it.key(), entries[i].first);
    EXPECT_EQ(it.value(), entries[i].second);
  }
  EXPECT_EQ(i, entries.size());
}

TEST(BlockTest, SeekExactAndBetween) {
  BlockBuilder builder(4);
  for (int i = 0; i < 100; i += 2) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%04d", i);
    builder.Add(key, "v");
  }
  auto block = Block::Parse(builder.Finish());
  ASSERT_TRUE(block.ok());
  Block::Iterator it(block->get());
  it.Seek("key0050");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "key0050");
  it.Seek("key0051");  // between entries
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "key0052");
  it.Seek("key9999");
  EXPECT_FALSE(it.Valid());
  it.Seek("");  // before all
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "key0000");
}

TEST(BlockTest, PrefixCompressionShrinksSharedKeys) {
  BlockBuilder with_sharing(16);
  BlockBuilder no_sharing(1);  // restart every entry: no sharing
  for (int i = 0; i < 200; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "common/long/prefix/%06d", i);
    with_sharing.Add(key, "v");
    no_sharing.Add(key, "v");
  }
  EXPECT_LT(with_sharing.Finish().size(), no_sharing.Finish().size());
}

TEST(BlockTest, RejectsTinyBuffers) {
  EXPECT_FALSE(Block::Parse("ab").ok());
}

// --- WAL ---

TEST(WalTest, AppendReplay) {
  TempDir dir("wal");
  std::string path = dir.path() + "/wal.log";
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, true).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kPut, "k1", "v1").ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kDelete, "k2", "").ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kPut, "k3", std::string(5000, 'x')).ok());
    ASSERT_TRUE(writer.Sync().ok());
  }
  std::vector<std::tuple<WalRecordType, std::string, std::string>> replayed;
  ASSERT_TRUE(ReplayWal(path, [&](WalRecordType type, std::string_view k,
                                  std::string_view v) {
                replayed.emplace_back(type, std::string(k), std::string(v));
              }).ok());
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(std::get<1>(replayed[0]), "k1");
  EXPECT_EQ(std::get<0>(replayed[1]), WalRecordType::kDelete);
  EXPECT_EQ(std::get<2>(replayed[2]).size(), 5000u);
}

TEST(WalTest, StopsAtTornTail) {
  TempDir dir("wal_torn");
  std::string path = dir.path() + "/wal.log";
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, true).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kPut, "good", "1").ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kPut, "torn", "2").ok());
    writer.Sync();
  }
  // Truncate the last few bytes (simulated crash mid-write).
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 3);
  int count = 0;
  ASSERT_TRUE(ReplayWal(path, [&](WalRecordType, std::string_view k,
                                  std::string_view) {
                EXPECT_EQ(k, "good");
                ++count;
              }).ok());
  EXPECT_EQ(count, 1);
}

TEST(WalTest, MissingFileIsEmptyReplay) {
  int count = 0;
  ASSERT_TRUE(ReplayWal("/nonexistent/path/wal.log",
                        [&](WalRecordType, std::string_view,
                            std::string_view) { ++count; })
                  .ok());
  EXPECT_EQ(count, 0);
}

TEST(WalTest, Crc32KnownVector) {
  // Standard CRC-32 ("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

/// `len` pseudo-random bytes.
std::string RandomBytes(Rng* rng, size_t len) {
  std::string buf;
  for (size_t i = 0; i < len; ++i) {
    buf.push_back(static_cast<char>(rng->Uniform(256)));
  }
  return buf;
}

/// Checks `crc` against the bit-at-a-time CRC-32 for every length from 0
/// to 4160 at 16 alignments: the carry-less kernel folds 64 and then 16
/// bytes per step and leaves under 16 to the tables, so this crosses every
/// fold boundary with every tail length.
void ExpectMatchesBitwise(uint32_t (*crc)(uint32_t, std::string_view)) {
  Rng rng(99);
  const std::string buf = RandomBytes(&rng, 4160 + 16);
  for (size_t offset = 0; offset < 16; ++offset) {
    uint32_t state = 0xFFFFFFFFu;  // bitwise CRC state over the prefix
    for (size_t len = 0; len <= 4160; ++len) {
      std::string_view data(buf.data() + offset, len);
      ASSERT_EQ(crc(0, data), state ^ 0xFFFFFFFFu) << offset << "+" << len;
      state ^= static_cast<unsigned char>(buf[offset + len]);
      for (int k = 0; k < 8; ++k) {
        state = (state & 1) ? 0xEDB88320u ^ (state >> 1) : state >> 1;
      }
    }
  }
}

TEST(WalTest, Crc32MatchesTheBitwiseDefinition) {
  ExpectMatchesBitwise(
      [](uint32_t, std::string_view data) { return Crc32(data); });
}

TEST(WalTest, Crc32PortableKernelMatchesTheBitwiseDefinition) {
  ExpectMatchesBitwise(internal::Crc32Portable);
}

TEST(WalTest, Crc32ClmulKernelMatchesTheBitwiseDefinition) {
  if (!internal::CpuHasClmul()) GTEST_SKIP() << "no PCLMULQDQ/SSE4.1";
  ExpectMatchesBitwise(internal::Crc32Clmul);
}

TEST(WalTest, Crc32ContinuesAcrossEverySplit) {
  // Crc32(crc, rest) continues a CRC: any split of a buffer, folded in two
  // parts, gives the one-shot value (wire frames CRC a head and a body
  // that live in separate buffers).
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const std::string buf = RandomBytes(&rng, rng.Uniform(200));
    const uint32_t whole = Crc32(buf);
    EXPECT_EQ(Crc32(0, buf), whole);
    for (size_t split = 0; split <= buf.size(); ++split) {
      const std::string_view data(buf);
      EXPECT_EQ(Crc32(Crc32(data.substr(0, split)), data.substr(split)),
                whole)
          << "length " << buf.size() << " split " << split;
    }
  }
}

TEST(WalTest, Crc32ContinuesAcrossFoldBoundaries) {
  // Block-sized buffers split just before, at and after the 16- and
  // 64-byte fold boundaries, from either end: each part may take the
  // carry-less path, the table path or both, and the result must not change.
  Rng rng(11);
  for (int round = 0; round < 24; ++round) {
    const std::string buf = RandomBytes(&rng, 1024 + rng.Uniform(4097));
    const std::string_view data(buf);
    const uint32_t whole = internal::Crc32Portable(0, data);
    std::vector<size_t> splits;
    for (size_t edge : {size_t{16}, size_t{64}, size_t{128}, size_t{1024}}) {
      for (size_t at : {edge - 1, edge, edge + 1}) {
        splits.push_back(at);
        splits.push_back(buf.size() - at);
      }
    }
    splits.push_back(0);
    splits.push_back(buf.size());
    for (size_t split : splits) {
      const auto head = data.substr(0, split);
      const auto tail = data.substr(split);
      EXPECT_EQ(Crc32(Crc32(head), tail), whole)
          << "length " << buf.size() << " split " << split;
      EXPECT_EQ(internal::Crc32Portable(internal::Crc32Portable(0, head), tail),
                whole);
      if (internal::CpuHasClmul()) {
        EXPECT_EQ(internal::Crc32Clmul(internal::Crc32Clmul(0, head), tail),
                  whole)
            << "length " << buf.size() << " split " << split;
      }
    }
  }
}

// --- SSTable ---

TEST(SsTableTest, BuildOpenGetIterate) {
  TempDir dir("sst");
  std::string path = dir.path() + "/t.sst";
  SsTableBuilder builder;
  ASSERT_TRUE(builder.Open(path).ok());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 5000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    std::string value = "value" + std::to_string(i * 7);
    model[key] = value;
    ASSERT_TRUE(builder.Add(key, value).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());

  auto reader = SsTableReader::Open(path, 1, nullptr);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_entries(), 5000u);

  std::string v;
  EXPECT_TRUE(GetKey(**reader, "key000123", &v).ok());
  EXPECT_EQ(v, model["key000123"]);
  EXPECT_TRUE(GetKey(**reader, "missing", &v).IsNotFound());

  SsTableReader::Iterator it(reader->get());
  auto mit = model.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it.key(), mit->first);
    EXPECT_EQ(std::string(it.value()), mit->second);
  }
  EXPECT_EQ(mit, model.end());
}

TEST(SsTableTest, SeekWithinAndAcrossBlocks) {
  TempDir dir("sst_seek");
  std::string path = dir.path() + "/t.sst";
  SsTableBuilder::Options opts;
  opts.block_size = 256;  // force many blocks
  SsTableBuilder builder(opts);
  ASSERT_TRUE(builder.Open(path).ok());
  for (int i = 0; i < 1000; i += 2) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(builder.Add(key, "v").ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SsTableReader::Open(path, 2, nullptr);
  ASSERT_TRUE(reader.ok());
  SsTableReader::Iterator it(reader->get());
  it.Seek("key000501");  // odd: between entries
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "key000502");
  it.Seek("key000000");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "key000000");
  it.Seek("zzz");
  EXPECT_FALSE(it.Valid());
}

TEST(SsTableTest, RejectsOutOfOrderAdds) {
  TempDir dir("sst_order");
  SsTableBuilder builder;
  ASSERT_TRUE(builder.Open(dir.path() + "/t.sst").ok());
  ASSERT_TRUE(builder.Add("b", "1").ok());
  EXPECT_FALSE(builder.Add("a", "2").ok());
  EXPECT_FALSE(builder.Add("b", "3").ok());  // duplicates also rejected
}

TEST(SsTableTest, BlockCacheServesRepeatedReads) {
  TempDir dir("sst_cache");
  std::string path = dir.path() + "/t.sst";
  SsTableBuilder builder;
  ASSERT_TRUE(builder.Open(path).ok());
  for (int i = 0; i < 2000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(builder.Add(key, "v").ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  BlockCache cache(1 << 20);
  auto reader = SsTableReader::Open(path, 3, &cache);
  ASSERT_TRUE(reader.ok());
  std::string v;
  ASSERT_TRUE(GetKey(**reader, "key000100", &v).ok());
  uint64_t misses_after_first = cache.misses();
  ASSERT_TRUE(GetKey(**reader, "key000100", &v).ok());
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), misses_after_first);  // second read from cache
}

TEST(SsTableTest, BlockCacheKeysByFileAndOffset) {
  // Two tables share a cache, and each has a data block at offset 0: the
  // key must tell them apart, or a read of one table returns the other's.
  TempDir dir("sst_cache_keys");
  BlockCache cache(1 << 20);
  std::vector<std::shared_ptr<SsTableReader>> readers;
  for (uint64_t file_id : {7, 8}) {
    const std::string path =
        dir.path() + "/" + std::to_string(file_id) + ".sst";
    SsTableBuilder builder;
    ASSERT_TRUE(builder.Open(path).ok());
    ASSERT_TRUE(builder.Add("key", "from" + std::to_string(file_id)).ok());
    ASSERT_TRUE(builder.Finish().ok());
    auto reader = SsTableReader::Open(path, file_id, &cache);
    ASSERT_TRUE(reader.ok());
    readers.push_back(*reader);
  }
  // Each open read its first block (offset 0) once, and cached it apart.
  EXPECT_EQ(cache.misses(), 2u);
  const uint64_t hits_after_open = cache.hits();
  std::string v;
  ASSERT_TRUE(GetKey(*readers[0], "key", &v).ok());
  EXPECT_EQ(v, "from7");
  ASSERT_TRUE(GetKey(*readers[1], "key", &v).ok());
  EXPECT_EQ(v, "from8");
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), hits_after_open + 2);
}

TEST(SsTableTest, EveryFlippedByteOfADataBlockIsCorruption) {
  // A byte flipped anywhere in a >= 4 KiB data block, its CRC trailer
  // included, must fail the read with Corruption: never wrong rows.
  TempDir dir("sst_flip");
  const std::string path = dir.path() + "/t.sst";
  std::map<std::string, std::string> model;
  SsTableBuilder builder;
  ASSERT_TRUE(builder.Open(path).ok());
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    std::string value = RandomBytes(&rng, 100);
    ASSERT_TRUE(builder.Add(key, value).ok());
    model[key] = std::move(value);
  }
  ASSERT_TRUE(builder.Finish().ok());
  std::string clean;
  {
    std::ifstream in(path, std::ios::binary);
    clean.assign(std::istreambuf_iterator<char>(in), {});
  }
  // The first data block starts at 0 and is followed by its CRC; the one
  // after it, the block under test, is the first the open does not read.
  size_t first_size = 4096;
  while (Crc32(std::string_view(clean.data(), first_size)) !=
         GetFixed32(clean.data() + first_size)) {
    ASSERT_LT(++first_size, clean.size() - 4);
  }
  const size_t start = first_size + 4;
  size_t size = 4096;
  while (Crc32(std::string_view(clean.data() + start, size)) !=
         GetFixed32(clean.data() + start + size)) {
    ASSERT_LT(++size, clean.size() - start - 4);
  }

  int flips = 0;
  for (size_t at = start; at < start + size + 4; at += 256, ++flips) {
    std::string bytes = clean;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x5A);
    const std::string flipped = dir.path() + "/flipped.sst";
    {
      std::ofstream out(flipped, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto reader = SsTableReader::Open(flipped, 1, nullptr);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    SsTableReader::Iterator it(reader->get());
    auto mit = model.begin();
    for (it.SeekToFirst(); it.Valid(); it.Next(), ++mit) {
      ASSERT_NE(mit, model.end());
      ASSERT_EQ(it.key(), mit->first) << "flip at " << at;
      ASSERT_EQ(std::string(it.value()), mit->second) << "flip at " << at;
    }
    EXPECT_TRUE(it.status().IsCorruption()) << "flip at " << at;
    ASSERT_NE(mit, model.end());
    std::string v;
    EXPECT_TRUE(GetKey(**reader, mit->first, &v).IsCorruption())
        << "flip at " << at;
  }
  EXPECT_GE(flips, 16);
}

TEST(SsTableTest, CorruptFileRejected) {
  TempDir dir("sst_corrupt");
  std::string path = dir.path() + "/t.sst";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::string junk(100, 'j');
  std::fwrite(junk.data(), 1, junk.size(), f);
  std::fclose(f);
  EXPECT_FALSE(SsTableReader::Open(path, 4, nullptr).ok());
}

// --- LsmStore ---

StoreOptions SmallStore(const std::string& dir) {
  StoreOptions opts;
  opts.dir = dir;
  opts.memtable_bytes = 16 << 10;  // tiny: forces flushes
  opts.compaction_trigger = 4;
  return opts;
}

TEST(LsmStoreTest, PutGetDelete) {
  TempDir dir("lsm_basic");
  auto store = LsmStore::Open(SmallStore(dir.path()));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("a", "1").ok());
  std::string v;
  EXPECT_TRUE(GetKey(**store, "a", &v).ok());
  EXPECT_EQ(v, "1");
  ASSERT_TRUE((*store)->Delete("a").ok());
  EXPECT_TRUE(GetKey(**store, "a", &v).IsNotFound());
}

TEST(LsmStoreTest, ModelBasedRandomOps) {
  TempDir dir("lsm_model");
  auto store_or = LsmStore::Open(SmallStore(dir.path()));
  ASSERT_TRUE(store_or.ok());
  LsmStore* store = store_or->get();
  std::map<std::string, std::string> model;
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(500));
    if (rng.Uniform(10) < 7) {
      std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(store->Put(key, value).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE(store->Delete(key).ok());
      model.erase(key);
    }
  }
  // Point lookups agree.
  for (int i = 0; i < 500; ++i) {
    std::string key = "k" + std::to_string(i);
    std::string v;
    Status st = GetKey(*store, key, &v);
    auto mit = model.find(key);
    if (mit == model.end()) {
      EXPECT_TRUE(st.IsNotFound()) << key;
    } else {
      ASSERT_TRUE(st.ok()) << key << " " << st.ToString();
      EXPECT_EQ(v, mit->second);
    }
  }
  // Full scan agrees (order + content).
  std::vector<std::pair<std::string, std::string>> scanned;
  ASSERT_TRUE(store
                  ->Scan({{"", ""}},
                         [&](size_t, std::string_view k, std::string_view v) {
                           scanned.emplace_back(std::string(k),
                                                std::string(v));
                           return true;
                         })
                  .ok());
  ASSERT_EQ(scanned.size(), model.size());
  auto mit = model.begin();
  for (size_t i = 0; i < scanned.size(); ++i, ++mit) {
    EXPECT_EQ(scanned[i].first, mit->first);
    EXPECT_EQ(scanned[i].second, mit->second);
  }
}

TEST(LsmStoreTest, MultiRangeScanMatchesModel) {
  TempDir dir("lsm_multi_range");
  auto store_or = LsmStore::Open(SmallStore(dir.path()));
  ASSERT_TRUE(store_or.ok());
  LsmStore* store = store_or->get();
  std::map<std::string, std::string> model;
  Rng rng(7);
  auto key = [&] {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%03d", static_cast<int>(rng.Uniform(600)));
    return std::string(buf);
  };
  // Rows across deeper levels, L0 tables and the memtable, with
  // overwrites and tombstones.
  for (int i = 0; i < 6000; ++i) {
    std::string k = key();
    if (rng.Uniform(10) < 8) {
      std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(store->Put(k, value).ok());
      model[k] = value;
    } else {
      ASSERT_TRUE(store->Delete(k).ok());
      model.erase(k);
    }
    if (i == 3000) {
      ASSERT_TRUE(store->CompactAll().ok());
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::string> bounds;
    size_t n = 1 + rng.Uniform(12);
    for (size_t i = 0; i < 2 * n; ++i) bounds.push_back(key());
    if (trial % 2 == 0) std::sort(bounds.begin(), bounds.end());
    std::vector<ScanRange> ranges;
    for (size_t i = 0; i < n; ++i) {
      ScanRange r{bounds[2 * i], bounds[2 * i + 1]};
      switch (rng.Uniform(6)) {
        case 0:
          r.end = "";  // to the last key
          break;
        case 1:
          if (!ranges.empty()) r = ranges[rng.Uniform(ranges.size())];
          break;
        default:  // sorted, unsorted, overlapping or inverted as drawn
          break;
      }
      ranges.push_back(r);
    }
    std::vector<std::vector<std::pair<std::string, std::string>>> got(
        ranges.size());
    ASSERT_TRUE(store
                    ->Scan(ranges,
                           [&](size_t r, std::string_view k,
                               std::string_view v) {
                             got[r].emplace_back(k, v);
                             return true;
                           })
                    .ok());
    for (size_t r = 0; r < ranges.size(); ++r) {
      std::vector<std::pair<std::string, std::string>> want;
      for (auto it = model.lower_bound(std::string(ranges[r].start));
           it != model.end() &&
           (ranges[r].end.empty() || it->first < ranges[r].end);
           ++it) {
        want.emplace_back(it->first, it->second);
      }
      EXPECT_EQ(got[r], want) << "trial " << trial << " range " << r;
    }
  }
  // Stopping early ends the whole scan, not just the current range.
  size_t seen = 0;
  std::vector<ScanRange> two = {{"k000", "k300"}, {"k300", ""}};
  ASSERT_TRUE(store
                  ->Scan(two,
                         [&](size_t r, std::string_view, std::string_view) {
                           EXPECT_EQ(r, 0u);
                           return ++seen < 5;
                         })
                  .ok());
  EXPECT_EQ(seen, 5u);
}

TEST(LsmStoreTest, RangeScanBounds) {
  TempDir dir("lsm_range");
  auto store = LsmStore::Open(SmallStore(dir.path()));
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 100; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "%03d", i);
    ASSERT_TRUE((*store)->Put(key, "v").ok());
  }
  std::vector<std::string> keys;
  ASSERT_TRUE((*store)
                  ->Scan({{"010", "020"}},
                         [&](size_t, std::string_view k, std::string_view) {
                           keys.emplace_back(k);
                           return true;
                         })
                  .ok());
  ASSERT_EQ(keys.size(), 10u);
  EXPECT_EQ(keys.front(), "010");
  EXPECT_EQ(keys.back(), "019");  // end exclusive
}

TEST(LsmStoreTest, ScanEarlyStop) {
  TempDir dir("lsm_stop");
  auto store = LsmStore::Open(SmallStore(dir.path()));
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*store)->Put("k" + std::to_string(i), "v").ok());
  }
  int seen = 0;
  ASSERT_TRUE((*store)
                  ->Scan({{"", ""}},
                         [&](size_t, std::string_view, std::string_view) {
                           return ++seen < 5;
                         })
                  .ok());
  EXPECT_EQ(seen, 5);
}

TEST(LsmStoreTest, NewestVersionWinsAcrossFlushes) {
  TempDir dir("lsm_versions");
  auto store = LsmStore::Open(SmallStore(dir.path()));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("key", "old").ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Put("key", "new").ok());
  ASSERT_TRUE((*store)->Flush().ok());
  std::string v;
  ASSERT_TRUE(GetKey(**store, "key", &v).ok());
  EXPECT_EQ(v, "new");
  // Scan also sees exactly one version.
  int count = 0;
  ASSERT_TRUE((*store)
                  ->Scan({{"", ""}},
                         [&](size_t, std::string_view, std::string_view val) {
                           EXPECT_EQ(val, "new");
                           ++count;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(count, 1);
}

TEST(LsmStoreTest, TombstoneMasksOlderSstEntry) {
  TempDir dir("lsm_tomb");
  auto store = LsmStore::Open(SmallStore(dir.path()));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("doomed", "v").ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Delete("doomed").ok());
  std::string v;
  EXPECT_TRUE(GetKey(**store, "doomed", &v).IsNotFound());
  int count = 0;
  ASSERT_TRUE((*store)
                  ->Scan({{"", ""}},
                         [&](size_t, std::string_view, std::string_view) {
                           ++count;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(count, 0);
}

TEST(LsmStoreTest, RecoversFromWalAfterReopen) {
  TempDir dir("lsm_recover");
  {
    auto store = LsmStore::Open(SmallStore(dir.path()));
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("persist1", "a").ok());
    ASSERT_TRUE((*store)->Put("persist2", "b").ok());
    // No flush: data only in WAL + memtable.
  }
  auto store = LsmStore::Open(SmallStore(dir.path()));
  ASSERT_TRUE(store.ok());
  std::string v;
  EXPECT_TRUE(GetKey(**store, "persist1", &v).ok());
  EXPECT_EQ(v, "a");
  EXPECT_TRUE(GetKey(**store, "persist2", &v).ok());
  EXPECT_EQ(v, "b");
}

TEST(LsmStoreTest, RecoversSstablesViaManifest) {
  TempDir dir("lsm_manifest");
  {
    auto store = LsmStore::Open(SmallStore(dir.path()));
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(
          (*store)->Put("key" + std::to_string(i), std::string(50, 'x')).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto store = LsmStore::Open(SmallStore(dir.path()));
  ASSERT_TRUE(store.ok());
  std::string v;
  for (int i = 0; i < 2000; i += 97) {
    EXPECT_TRUE(GetKey(**store, "key" + std::to_string(i), &v).ok()) << i;
  }
}

TEST(LsmStoreTest, CompactionMergesToOneTableAndDropsTombstones) {
  TempDir dir("lsm_compact");
  auto store = LsmStore::Open(SmallStore(dir.path()));
  ASSERT_TRUE(store.ok());
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*store)
                      ->Put("key" + std::to_string(i),
                            "round" + std::to_string(round))
                      .ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  ASSERT_TRUE((*store)->Delete("key50").ok());
  ASSERT_TRUE((*store)->CompactAll().ok());
  auto stats = (*store)->GetStats();
  EXPECT_EQ(stats.num_sstables, 1u);
  EXPECT_EQ(stats.sstable_entries, 99u);  // 100 keys - 1 deleted, no dupes
  std::string v;
  ASSERT_TRUE(GetKey(**store, "key1", &v).ok());
  EXPECT_EQ(v, "round2");
  EXPECT_TRUE(GetKey(**store, "key50", &v).IsNotFound());
}

TEST(LsmStoreTest, AutomaticFlushOnMemtableLimit) {
  TempDir dir("lsm_autoflush");
  auto store = LsmStore::Open(SmallStore(dir.path()));
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        (*store)->Put("key" + std::to_string(i), std::string(100, 'd')).ok());
  }
  auto stats = (*store)->GetStats();
  EXPECT_GT(stats.num_sstables, 0u);  // must have flushed at least once
  EXPECT_LT(stats.num_sstables, 50u);  // and compacted along the way
}

}  // namespace
}  // namespace just::kv
