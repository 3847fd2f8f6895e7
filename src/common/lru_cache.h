#ifndef JUST_COMMON_LRU_CACHE_H_
#define JUST_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace just {

/// Thread-safe LRU cache with byte-size-based capacity accounting. Used as
/// the block cache of the LSM store (the role HBase's BlockCache plays).
/// An insert allocates one list node and one map node; the key is stored in
/// both, so a small trivially-copyable key keeps inserts cheap.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  explicit LruCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Inserts (or replaces) an entry whose accounted size is `charge` bytes.
  void Insert(const K& key, std::shared_ptr<V> value, size_t charge) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      usage_ -= it->second->charge;
      lru_.erase(it->second);
      map_.erase(it);
    }
    lru_.push_front(Entry{key, std::move(value), charge});
    map_.emplace(key, lru_.begin());
    usage_ += charge;
    EvictLocked();
  }

  /// Returns the cached value or nullptr; promotes on hit.
  std::shared_ptr<V> Lookup(const K& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);  // iterators stay valid
    return it->second->value;
  }

  void Erase(const K& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return;
    usage_ -= it->second->charge;
    lru_.erase(it->second);
    map_.erase(it);
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    usage_ = 0;
  }

  size_t usage() const {
    std::lock_guard<std::mutex> lock(mu_);
    return usage_;
  }
  size_t capacity() const { return capacity_; }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  struct Entry {
    K key;
    std::shared_ptr<V> value;
    size_t charge = 0;
  };
  using EntryList = std::list<Entry>;

  void EvictLocked() {
    while (usage_ > capacity_ && !lru_.empty()) {
      const Entry& victim = lru_.back();
      usage_ -= victim.charge;
      map_.erase(victim.key);
      lru_.pop_back();
    }
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  EntryList lru_;  // most recently used first
  std::unordered_map<K, typename EntryList::iterator, Hash> map_;
  size_t usage_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace just

#endif  // JUST_COMMON_LRU_CACHE_H_
