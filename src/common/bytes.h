#ifndef JUST_COMMON_BYTES_H_
#define JUST_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace just {

/// Byte-order-aware primitive codecs. Keys use big-endian ("sortable")
/// encodings so that lexicographic byte order equals numeric order; values
/// use little-endian fixed or varint encodings.

// --- Big-endian (key) encodings: preserve order under memcmp. ---

void PutFixed16BE(std::string* dst, uint16_t v);
void PutFixed32BE(std::string* dst, uint32_t v);
void PutFixed64BE(std::string* dst, uint64_t v);

uint16_t GetFixed16BE(const char* p);
uint32_t GetFixed32BE(const char* p);
uint64_t GetFixed64BE(const char* p);

// --- Little-endian (value) fixed encodings. ---

void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);
uint32_t GetFixed32(const char* p);
uint64_t GetFixed64(const char* p);

// --- Varint / zigzag encodings (protobuf-compatible). ---

void PutVarint32(std::string* dst, uint32_t v);
void PutVarint64(std::string* dst, uint64_t v);

/// Reads a varint from [*p, limit); advances *p. Returns false on overrun or
/// malformed input. The readers are inline: row and block parsing call them
/// once per cell.
inline bool GetVarint64(const char** p, const char* limit, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  const char* q = *p;
  while (q < limit && shift <= 63) {
    const auto byte = static_cast<uint8_t>(*q++);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *p = q;
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

inline bool GetVarint32(const char** p, const char* limit, uint32_t* v) {
  uint64_t v64;
  if (!GetVarint64(p, limit, &v64) || v64 > UINT32_MAX) return false;
  *v = static_cast<uint32_t>(v64);
  return true;
}

uint64_t ZigZagEncode(int64_t v);
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void PutVarintSigned(std::string* dst, int64_t v);
inline bool GetVarintSigned(const char** p, const char* limit, int64_t* v) {
  uint64_t u;
  if (!GetVarint64(p, limit, &u)) return false;
  *v = ZigZagDecode(u);
  return true;
}

/// Length-prefixed string (varint length + bytes).
void PutLengthPrefixed(std::string* dst, std::string_view s);
inline bool GetLengthPrefixed(const char** p, const char* limit,
                              std::string_view* s) {
  uint64_t len;
  if (!GetVarint64(p, limit, &len)) return false;
  if (static_cast<uint64_t>(limit - *p) < len) return false;
  *s = std::string_view(*p, len);
  *p += len;
  return true;
}

/// Order-preserving encoding of a double into 8 big-endian bytes: for all
/// finite a < b, Encode(a) < Encode(b) bytewise. Used for sortable key parts.
uint64_t OrderedDoubleBits(double d);
double OrderedBitsToDouble(uint64_t bits);

}  // namespace just

#endif  // JUST_COMMON_BYTES_H_
