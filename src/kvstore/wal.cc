#include "kvstore/wal.h"

#include "common/bytes.h"

namespace just::kv {

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
