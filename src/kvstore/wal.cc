#include "kvstore/wal.h"

#include <array>

#include "common/bytes.h"

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
}  // namespace

uint32_t Crc32(std::string_view data) { return Crc32(0, data); }

uint32_t Crc32(uint32_t crc, std::string_view data) {
  static const CrcTables t = MakeCrcTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Open(const std::string& path, bool truncate, Env* env) {
  Close();
  if (env == nullptr) env = Env::Default();
  JUST_ASSIGN_OR_RETURN(file_, env->NewWritableFile(path, truncate));
  return Status::OK();
}

void EncodeWalRecord(std::string* dst, WalRecordType type,
                     std::string_view key, std::string_view value) {
  std::string payload;
  payload.push_back(static_cast<char>(type));
  PutLengthPrefixed(&payload, key);
  PutLengthPrefixed(&payload, value);
  PutFixed32(dst, Crc32(payload));
  PutVarint64(dst, payload.size());
  *dst += payload;
}

Status WalWriter::Append(WalRecordType type, std::string_view key,
                         std::string_view value) {
  if (file_ == nullptr) return Status::IOError("WAL not open");
  std::string record;
  EncodeWalRecord(&record, type, key, value);
  return file_->Append(record);
}

Status WalWriter::AppendEncoded(std::string_view records) {
  if (file_ == nullptr) return Status::IOError("WAL not open");
  return file_->Append(records);
}

Status WalWriter::Sync() {
  if (file_ == nullptr) return Status::IOError("WAL not open");
  return file_->Sync();
}

void WalWriter::Close() {
  if (file_ != nullptr) {
    file_->Close();
    file_ = nullptr;
  }
}

Status ReplayWal(const std::string& path,
                 const std::function<void(WalRecordType, std::string_view,
                                          std::string_view)>& fn,
                 Env* env) {
  if (env == nullptr) env = Env::Default();
  if (!env->FileExists(path)) return Status::OK();  // no WAL: nothing to do
  std::string content;
  JUST_RETURN_NOT_OK(env->ReadFileToString(path, &content));

  const char* p = content.data();
  const char* limit = p + content.size();
  while (p < limit) {
    if (static_cast<size_t>(limit - p) < 5) break;  // torn tail
    uint32_t crc = GetFixed32(p);
    const char* q = p + 4;
    uint64_t payload_len;
    if (!GetVarint64(&q, limit, &payload_len)) break;
    if (static_cast<uint64_t>(limit - q) < payload_len) break;
    std::string_view payload(q, payload_len);
    if (Crc32(payload) != crc) break;  // corrupt tail: stop replay
    const char* r = payload.data();
    const char* rlimit = r + payload.size();
    if (r >= rlimit) break;
    auto type = static_cast<WalRecordType>(*r++);
    std::string_view key, value;
    if (!GetLengthPrefixed(&r, rlimit, &key) ||
        !GetLengthPrefixed(&r, rlimit, &value)) {
      break;
    }
    fn(type, key, value);
    p = q + payload_len;
  }
  return Status::OK();
}

}  // namespace just::kv
