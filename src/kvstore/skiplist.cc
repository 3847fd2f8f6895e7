#include "kvstore/skiplist.h"

namespace just::kv {

struct SkipList::Node {
  std::string key;
  std::string value;
  std::vector<Node*> next;

  Node(std::string k, std::string v, int height)
      : key(std::move(k)), value(std::move(v)), next(height, nullptr) {}
};

SkipList::SkipList()
    : rng_(0xC0FFEE), head_(new Node("", "", kMaxHeight)) {}

SkipList::~SkipList() {
  Node* n = head_;
  while (n != nullptr) {
    Node* next = n->next[0];
    delete n;
    n = next;
  }
}

SkipList::Node* SkipList::NewNode(std::string key, std::string value,
                                  int height) {
  return new Node(std::move(key), std::move(value), height);
}

int SkipList::RandomHeight() {
  int height = 1;
  // P = 1/4 branching as in LevelDB.
  while (height < kMaxHeight && (rng_.Next() & 3) == 0) ++height;
  return height;
}

SkipList::Node* SkipList::FindGreaterOrEqual(const std::string& key,
                                             Node** prev) const {
  Node* x = head_;
  int level = height_ - 1;
  for (;;) {
    Node* next = x->next[level];
    if (next != nullptr && next->key < key) {
      x = next;
    } else {
      if (prev != nullptr) prev[level] = x;
      if (level == 0) return next;
      --level;
    }
  }
}

void SkipList::Put(const std::string& key, std::string value) {
  Node* prev[kMaxHeight];
  Node* node = FindGreaterOrEqual(key, prev);
  if (node != nullptr && node->key == key) {
    bytes_ += value.size() - node->value.size();
    node->value = std::move(value);
    return;
  }
  int height = RandomHeight();
  if (height > height_) {
    for (int i = height_; i < height; ++i) prev[i] = head_;
    height_ = height;
  }
  bytes_ += key.size() + value.size() + sizeof(Node);
  ++size_;
  Node* n = NewNode(key, std::move(value), height);
  for (int i = 0; i < height; ++i) {
    n->next[i] = prev[i]->next[i];
    prev[i]->next[i] = n;
  }
}

void SkipList::AppendRange(
    const std::string& start, std::string_view end,
    std::vector<std::pair<std::string, std::string>>* out) const {
  for (Node* n = FindGreaterOrEqual(start, nullptr); n != nullptr;
       n = n->next[0]) {
    if (!end.empty() && std::string_view(n->key) >= end) break;
    out->emplace_back(n->key, n->value);
  }
}

void SkipList::Iterator::SeekToFirst() { node_ = list_->head_->next[0]; }

void SkipList::Iterator::Seek(const std::string& target) {
  node_ = list_->FindGreaterOrEqual(target, nullptr);
}

void SkipList::Iterator::Next() { node_ = node_->next[0]; }

const std::string& SkipList::Iterator::key() const { return node_->key; }

const std::string& SkipList::Iterator::value() const { return node_->value; }

}  // namespace just::kv
