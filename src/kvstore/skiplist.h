#ifndef JUST_KVSTORE_SKIPLIST_H_
#define JUST_KVSTORE_SKIPLIST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace just::kv {

/// An ordered map from byte-string keys to values, implemented as a skip
/// list — the classical memtable structure (RocksDB/HBase MemStore role).
/// Synchronization is the caller's responsibility (the store holds a mutex).
class SkipList {
 public:
  SkipList();
  ~SkipList();

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Inserts or overwrites `key`.
  void Put(const std::string& key, std::string value);

  /// Appends every entry in [start, end) to `out` in key order (`end` empty
  /// means "to the last key"). Snapshot scans use this to copy the *mutable*
  /// memtable's window under the store lock, then merge lock-free — the
  /// immutable sources (frozen memtable, SSTables) never need copying.
  void AppendRange(const std::string& start, std::string_view end,
                   std::vector<std::pair<std::string, std::string>>* out)
      const;

  size_t size() const { return size_; }
  size_t ApproximateBytes() const { return bytes_; }

 private:
  struct Node;

 public:
  /// Forward iterator over entries in key order.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list) {}

    bool Valid() const { return node_ != nullptr; }
    void SeekToFirst();
    /// Positions at the first entry >= target.
    void Seek(const std::string& target);
    void Next();

    const std::string& key() const;
    const std::string& value() const;

   private:
    const SkipList* list_;
    Node* node_ = nullptr;
  };

 private:
  static constexpr int kMaxHeight = 12;

  Node* NewNode(std::string key, std::string value, int height);
  int RandomHeight();
  Node* FindGreaterOrEqual(const std::string& key, Node** prev) const;

  Rng rng_;
  Node* head_;
  int height_ = 1;
  size_t size_ = 0;
  size_t bytes_ = 0;

  friend class Iterator;
};

}  // namespace just::kv

#endif  // JUST_KVSTORE_SKIPLIST_H_
