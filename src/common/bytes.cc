#include "common/bytes.h"

namespace just {

void PutFixed16BE(std::string* dst, uint16_t v) {
  char buf[2] = {static_cast<char>(v >> 8), static_cast<char>(v)};
  dst->append(buf, 2);
}

void PutFixed32BE(std::string* dst, uint32_t v) {
  char buf[4] = {static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                 static_cast<char>(v >> 8), static_cast<char>(v)};
  dst->append(buf, 4);
}

void PutFixed64BE(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (56 - 8 * i));
  dst->append(buf, 8);
}

uint16_t GetFixed16BE(const char* p) {
  auto u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint16_t>((u[0] << 8) | u[1]);
}

uint32_t GetFixed32BE(const char* p) {
  auto u = reinterpret_cast<const unsigned char*>(p);
  return (static_cast<uint32_t>(u[0]) << 24) |
         (static_cast<uint32_t>(u[1]) << 16) |
         (static_cast<uint32_t>(u[2]) << 8) | static_cast<uint32_t>(u[3]);
}

uint64_t GetFixed64BE(const char* p) {
  auto u = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | u[i];
  return v;
}

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

uint32_t GetFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t GetFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void PutVarint32(std::string* dst, uint32_t v) {
  PutVarint64(dst, v);
}

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

void PutVarintSigned(std::string* dst, int64_t v) {
  PutVarint64(dst, ZigZagEncode(v));
}

void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

uint64_t OrderedDoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  // Flip sign bit for non-negatives; flip all bits for negatives. This maps
  // the IEEE754 total order onto unsigned integer order.
  if (bits & (1ull << 63)) {
    bits = ~bits;
  } else {
    bits |= (1ull << 63);
  }
  return bits;
}

double OrderedBitsToDouble(uint64_t bits) {
  if (bits & (1ull << 63)) {
    bits &= ~(1ull << 63);
  } else {
    bits = ~bits;
  }
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

}  // namespace just
