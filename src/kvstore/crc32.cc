// kv::Crc32 (declared in kvstore/wal.h): the reflected IEEE CRC-32 that
// guards WAL records, SSTable blocks and footers, and wire frames.
//
// Two kernels give the same values. On x86-64 CPUs with PCLMULQDQ and
// SSE4.1, spans of 64 bytes or more fold 64 bytes per step with carry-less
// multiplies; everything else (the tail under 16 bytes, short spans, other
// CPUs and other architectures) runs slicing-by-8 tables. The CPU is probed
// once, so one binary serves every host with no build flag or setting.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "kvstore/wal.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace just::kv {

namespace {
/// Slicing-by-8 tables for the reflected IEEE CRC-32: tables[0] is the
/// classic byte table, tables[k] advances a byte's CRC through k more zero
/// bytes, so eight input bytes fold in per step instead of one.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// Advances the raw (pre- and post-inverted) CRC state `c` over n bytes.
uint32_t SliceBy8(uint32_t c, const unsigned char* p, size_t n) {
  static const CrcTables t = MakeCrcTables();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)
#define JUST_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

JUST_CLMUL_TARGET inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds the 128 bits `x` forward onto `next`: the low half is multiplied
/// by the low constant of `k`, the high half by its high constant.
JUST_CLMUL_TARGET inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Advances the raw CRC state `c` over n bytes, n >= 64 and a multiple of
/// 16, by folding with carry-less multiplies: Intel's "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ" in its bit-reflected form. Four
/// 128-bit lanes fold 64 bytes per step (k1, k2), fold into one lane (k3,
/// k4) and then 16 bytes per step, reduce 128 -> 64 bits (k5) and finish
/// with a Barrett reduction (P and mu). The constants are the ones
/// zlib-chromium uses for this polynomial.
JUST_CLMUL_TARGET uint32_t FoldClmul(uint32_t c, const unsigned char* p,
                                     size_t n) {
  alignas(16) static const uint64_t k1k2[] = {0x0154442bd4, 0x01c6e41596};
  alignas(16) static const uint64_t k3k4[] = {0x01751997d0, 0x00ccaa009e};
  alignas(16) static const uint64_t k5k0[] = {0x0163cd6124, 0x0000000000};
  alignas(16) static const uint64_t poly[] = {0x01db710641, 0x01f7011641};

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;

  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k, Load128(p));
    x2 = Fold(x2, k, Load128(p + 16));
    x3 = Fold(x3, k, Load128(p + 32));
    x4 = Fold(x4, k, Load128(p + 48));
  }

  k = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
  x1 = Fold(x1, k, x2);
  x1 = Fold(x1, k, x3);
  x1 = Fold(x1, k, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold(x1, k, Load128(p));

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k, 0x10));
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5k0));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x00),
      _mm_srli_si128(x1, 4));

  // Barrett reduction to 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(poly));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), k, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#undef JUST_CLMUL_TARGET
#endif

const unsigned char* Bytes(std::string_view data) {
  return reinterpret_cast<const unsigned char*>(data.data());
}
}  // namespace

// The kernels and the CPU probe behind Crc32. Only Crc32 is declared in a
// header: tests and bench_storage declare these themselves to reach each
// kernel directly.
namespace internal {
bool CpuHasClmul() {
#if defined(__x86_64__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
#else
  return false;
#endif
}

uint32_t Crc32Portable(uint32_t crc, std::string_view data) {
  return ~SliceBy8(~crc, Bytes(data), data.size());
}

/// Folds the 16-byte-aligned bulk of a span of 64 bytes or more with
/// carry-less multiplies and leaves the rest to the tables.
uint32_t Crc32Clmul(uint32_t crc, std::string_view data) {
  const unsigned char* p = Bytes(data);
  size_t n = data.size();
  uint32_t c = ~crc;
#if defined(__x86_64__)
  if (n >= 64) {
    const size_t bulk = n & ~size_t{15};
    c = FoldClmul(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return ~SliceBy8(c, p, n);
}
}  // namespace internal

uint32_t Crc32(std::string_view data) { return Crc32(0, data); }

uint32_t Crc32(uint32_t crc, std::string_view data) {
  return internal::CpuHasClmul() ? internal::Crc32Clmul(crc, data)
                                 : internal::Crc32Portable(crc, data);
}

}  // namespace just::kv
