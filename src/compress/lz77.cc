#include "compress/lz77.h"

#include <cstdint>
#include <cstring>
#include <vector>

namespace just::compress {

namespace {
constexpr size_t kWindowSize = 32768;
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = 258;
constexpr int kHashBits = 15;
constexpr int kMaxChainLength = 32;

inline uint32_t Hash3(const unsigned char* p) {
  uint32_t v = static_cast<uint32_t>(p[0]) |
               (static_cast<uint32_t>(p[1]) << 8) |
               (static_cast<uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}
}  // namespace

std::string Lz77Compress(std::string_view raw) {
  std::string out;
  const auto* data = reinterpret_cast<const unsigned char*>(raw.data());
  const size_t n = raw.size();
  out.reserve(n / 2 + 16);

  // head[h] = most recent position with hash h; prev[i % window] = previous
  // position in the chain for position i.
  std::vector<int64_t> head(1ull << kHashBits, -1);
  std::vector<int64_t> prev(kWindowSize, -1);

  size_t pos = 0;
  // Token group buffering: flags byte + up to 8 token payloads.
  unsigned char flags = 0;
  int token_count = 0;
  std::string group;

  auto flush_group = [&] {
    if (token_count == 0) return;
    out.push_back(static_cast<char>(flags));
    out += group;
    flags = 0;
    token_count = 0;
    group.clear();
  };

  auto add_literal = [&](unsigned char byte) {
    group.push_back(static_cast<char>(byte));
    ++token_count;
    if (token_count == 8) flush_group();
  };

  auto add_match = [&](size_t offset, size_t length) {
    flags |= static_cast<unsigned char>(1u << token_count);
    uint16_t off16 = static_cast<uint16_t>(offset - 1);
    group.push_back(static_cast<char>(off16 & 0xff));
    group.push_back(static_cast<char>(off16 >> 8));
    group.push_back(static_cast<char>(length - kMinMatch));
    ++token_count;
    if (token_count == 8) flush_group();
  };

  auto insert_pos = [&](size_t p) {
    if (p + kMinMatch > n) return;
    uint32_t h = Hash3(data + p);
    prev[p % kWindowSize] = head[h];
    head[h] = static_cast<int64_t>(p);
  };

  while (pos < n) {
    size_t best_len = 0;
    size_t best_off = 0;
    if (pos + kMinMatch <= n) {
      uint32_t h = Hash3(data + pos);
      int64_t cand = head[h];
      int chain = 0;
      size_t max_len = std::min(kMaxMatch, n - pos);
      while (cand >= 0 && chain < kMaxChainLength &&
             pos - static_cast<size_t>(cand) <= kWindowSize) {
        size_t c = static_cast<size_t>(cand);
        size_t len = 0;
        while (len < max_len && data[c + len] == data[pos + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_off = pos - c;
          if (len >= max_len) break;
        }
        cand = prev[c % kWindowSize];
        ++chain;
      }
    }
    if (best_len >= kMinMatch) {
      add_match(best_off, best_len);
      // Index every covered position so later matches can reference them.
      for (size_t i = 0; i < best_len; ++i) insert_pos(pos + i);
      pos += best_len;
    } else {
      add_literal(data[pos]);
      insert_pos(pos);
      ++pos;
    }
  }
  flush_group();
  return out;
}

Result<std::string> Lz77Decompress(std::string_view compressed,
                                   size_t raw_size) {
  // A 3-byte match token expands to at most kMaxMatch bytes, so a larger
  // claimed size is malformed framing: refuse it before reserving.
  const size_t n = compressed.size();
  if (raw_size / (kMaxMatch / 3) > n) {
    return Status::Corruption("lz77 raw size exceeds the stream's reach");
  }
  std::string out;
  out.reserve(raw_size);
  size_t pos = 0;
  while (pos < n && out.size() < raw_size) {
    unsigned char flags = static_cast<unsigned char>(compressed[pos++]);
    for (int bit = 0; bit < 8 && out.size() < raw_size; ++bit) {
      if (pos >= n) break;
      if (flags & (1u << bit)) {
        if (pos + 3 > n) return Status::Corruption("truncated lz77 match");
        uint16_t off16 =
            static_cast<uint16_t>(static_cast<unsigned char>(compressed[pos])) |
            (static_cast<uint16_t>(
                 static_cast<unsigned char>(compressed[pos + 1]))
             << 8);
        size_t offset = static_cast<size_t>(off16) + 1;
        size_t length =
            static_cast<size_t>(
                static_cast<unsigned char>(compressed[pos + 2])) +
            kMinMatch;
        pos += 3;
        if (offset > out.size()) {
          return Status::Corruption("lz77 offset before stream start");
        }
        size_t from = out.size() - offset;
        for (size_t i = 0; i < length; ++i) {
          out.push_back(out[from + i]);  // overlapping copies are valid
        }
      } else {
        out.push_back(compressed[pos++]);
      }
    }
  }
  if (out.size() != raw_size) {
    return Status::Corruption("lz77 raw size mismatch: expected " +
                              std::to_string(raw_size) + ", got " +
                              std::to_string(out.size()));
  }
  return out;
}

}  // namespace just::compress
