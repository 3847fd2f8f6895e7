#include "kvstore/fault_env.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace just::kv {

namespace {
Status InjectedWriteFault() {
  return Status::IOError("injected write fault");
}
Status InjectedReadFault() { return Status::IOError("injected read fault"); }
}  // namespace

/// Buffers appends until Sync/Close so the decorator, not the OS, decides
/// which bytes a simulated crash preserves.
class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env, std::string path,
                    std::unique_ptr<WritableFile> base, uint64_t initial_size)
      : env_(env),
        path_(std::move(path)),
        base_(std::move(base)),
        flushed_size_(initial_size) {}

  ~FaultWritableFile() override {
    // Destruction without Close: unsynced buffer is dropped, mirroring a
    // process that exits before the OS saw the bytes.
    if (base_ != nullptr) base_->Close();
  }

  Status Append(std::string_view data) override {
    JUST_RETURN_NOT_OK(env_->CheckWriteOp());
    buffer_.append(data.data(), data.size());
    return Status::OK();
  }

  Status Sync() override {
    JUST_RETURN_NOT_OK(env_->CheckWriteOp());
    JUST_RETURN_NOT_OK(Forward());
    JUST_RETURN_NOT_OK(base_->Sync());
    env_->MarkSynced(path_, flushed_size_);
    return Status::OK();
  }

  Status Close() override {
    if (base_ == nullptr) return Status::OK();
    // A failed (or post-crash) close abandons the buffer: the bytes never
    // reached the OS.
    Status fault = env_->CheckWriteOp();
    if (fault.ok()) fault = Forward();
    Status close_st = base_->Close();
    base_ = nullptr;
    if (!fault.ok()) return fault;
    return close_st;
  }

 private:
  Status Forward() {
    if (buffer_.empty()) return Status::OK();
    JUST_RETURN_NOT_OK(base_->Append(buffer_));
    flushed_size_ += buffer_.size();
    buffer_.clear();
    return Status::OK();
  }

  FaultInjectionEnv* env_;
  std::string path_;
  std::unique_ptr<WritableFile> base_;
  std::string buffer_;          ///< appended but not yet handed to the OS
  uint64_t flushed_size_;       ///< bytes the underlying file has received
};

class FaultRandomAccessFile : public RandomAccessFile {
 public:
  FaultRandomAccessFile(FaultInjectionEnv* env,
                        std::unique_ptr<RandomAccessFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Read(uint64_t offset, uint64_t n, char* dst) const override {
    JUST_RETURN_NOT_OK(env_->CheckReadOp());
    return base_->Read(offset, n, dst);
  }

 private:
  FaultInjectionEnv* env_;
  std::unique_ptr<RandomAccessFile> base_;
};

FaultInjectionEnv::FaultInjectionEnv(Env* base)
    : base_(base != nullptr ? base : Env::Default()) {}

void FaultInjectionEnv::FailWriteOp(int64_t n, bool all_after) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_at_write_op_ = n;
  fail_all_after_ = all_after;
}

void FaultInjectionEnv::FailNextReads(int64_t k) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_reads_remaining_ = k;
}

void FaultInjectionEnv::ClearFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  fail_at_write_op_ = -1;
  fail_reads_remaining_ = 0;
  write_lockout_ = false;
}

int64_t FaultInjectionEnv::write_ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_ops_;
}

int64_t FaultInjectionEnv::read_ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_ops_;
}

void FaultInjectionEnv::HoldFileCreation(std::string suffix, int skip) {
  std::lock_guard<std::mutex> lock(mu_);
  gate_armed_ = true;
  gate_suffix_ = std::move(suffix);
  gate_skip_ = skip;
}

bool FaultInjectionEnv::AwaitHeld(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return gate_cv_.wait_for(lock, timeout, [this] { return gate_holding_; });
}

void FaultInjectionEnv::ReleaseHeld() {
  std::lock_guard<std::mutex> lock(mu_);
  gate_armed_ = false;
  gate_cv_.notify_all();
}

void FaultInjectionEnv::MaybeHoldCreation(const std::string& path) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!gate_armed_ || !path.ends_with(gate_suffix_)) return;
  if (gate_skip_-- > 0) return;
  gate_holding_ = true;
  gate_cv_.notify_all();
  gate_cv_.wait(lock, [this] { return !gate_armed_; });
  gate_holding_ = false;
}

Status FaultInjectionEnv::CheckWriteOp() {
  std::lock_guard<std::mutex> lock(mu_);
  ++write_ops_;
  if (write_lockout_) return InjectedWriteFault();
  if (fail_at_write_op_ >= 0 && write_ops_ >= fail_at_write_op_) {
    if (!fail_all_after_) fail_at_write_op_ = -1;  // one-shot: disk recovers
    return InjectedWriteFault();
  }
  return Status::OK();
}

Status FaultInjectionEnv::CheckReadOp() {
  std::lock_guard<std::mutex> lock(mu_);
  ++read_ops_;
  if (fail_reads_remaining_ > 0) {
    --fail_reads_remaining_;
    return InjectedReadFault();
  }
  return Status::OK();
}

void FaultInjectionEnv::MarkSynced(const std::string& path,
                                   uint64_t durable_size) {
  std::lock_guard<std::mutex> lock(mu_);
  durable_size_[path] = static_cast<int64_t>(durable_size);
}

void FaultInjectionEnv::DropUnsyncedWrites() {
  std::map<std::string, int64_t> tracked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    write_lockout_ = true;
    tracked = durable_size_;
  }
  for (const auto& [path, durable] : tracked) {
    if (durable < 0) {
      (void)base_->RemoveFile(path);  // created, never synced: gone
      std::lock_guard<std::mutex> lock(mu_);
      durable_size_.erase(path);
    } else {
      (void)base_->TruncateFile(path, static_cast<uint64_t>(durable));
    }
  }
}

Status FaultInjectionEnv::FlipByte(const std::string& path, uint64_t offset) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IOError("FlipByte cannot open " + path + ": " +
                           std::strerror(errno));
  }
  char byte;
  if (::pread(fd, &byte, 1, static_cast<off_t>(offset)) != 1) {
    ::close(fd);
    return Status::IOError("FlipByte offset out of range in " + path);
  }
  byte = static_cast<char>(byte ^ 0xFF);
  ssize_t wrote = ::pwrite(fd, &byte, 1, static_cast<off_t>(offset));
  ::close(fd);
  if (wrote != 1) return Status::IOError("FlipByte write failed on " + path);
  return Status::OK();
}

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  MaybeHoldCreation(path);
  JUST_RETURN_NOT_OK(CheckWriteOp());
  bool existed = base_->FileExists(path);
  JUST_ASSIGN_OR_RETURN(auto base_file, base_->NewWritableFile(path, truncate));
  uint64_t initial_size = 0;
  if (!truncate && existed) {
    auto size = base_->GetFileSize(path);
    if (size.ok()) initial_size = size.value();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = durable_size_.find(path);
    if (truncate) {
      // Overwriting an existing file leaves a durable empty file; a brand-new
      // file is not durable until first synced (its directory entry could be
      // lost with the crash).
      durable_size_[path] = existed ? 0 : -1;
    } else if (it == durable_size_.end()) {
      // Append to an untracked file: bytes already on disk count as durable.
      durable_size_[path] = static_cast<int64_t>(initial_size);
    }
  }
  return std::unique_ptr<WritableFile>(std::make_unique<FaultWritableFile>(
      this, path, std::move(base_file), initial_size));
}

Result<std::unique_ptr<RandomAccessFile>>
FaultInjectionEnv::NewRandomAccessFile(const std::string& path) {
  JUST_ASSIGN_OR_RETURN(auto base_file, base_->NewRandomAccessFile(path));
  return std::unique_ptr<RandomAccessFile>(
      std::make_unique<FaultRandomAccessFile>(this, std::move(base_file)));
}

Status FaultInjectionEnv::ReadFileToString(const std::string& path,
                                           std::string* out) {
  JUST_RETURN_NOT_OK(CheckReadOp());
  return base_->ReadFileToString(path, out);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<uint64_t> FaultInjectionEnv::GetFileSize(const std::string& path) {
  return base_->GetFileSize(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  JUST_RETURN_NOT_OK(CheckWriteOp());
  JUST_RETURN_NOT_OK(base_->RenameFile(from, to));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = durable_size_.find(from);
  if (it != durable_size_.end()) {
    durable_size_[to] = it->second;
    durable_size_.erase(it);
  }
  return Status::OK();
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  JUST_RETURN_NOT_OK(CheckWriteOp());
  JUST_RETURN_NOT_OK(base_->RemoveFile(path));
  std::lock_guard<std::mutex> lock(mu_);
  durable_size_.erase(path);
  return Status::OK();
}

Status FaultInjectionEnv::TruncateFile(const std::string& path,
                                       uint64_t size) {
  JUST_RETURN_NOT_OK(CheckWriteOp());
  JUST_RETURN_NOT_OK(base_->TruncateFile(path, size));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = durable_size_.find(path);
  if (it != durable_size_.end() &&
      it->second > static_cast<int64_t>(size)) {
    it->second = static_cast<int64_t>(size);
  }
  return Status::OK();
}

Status FaultInjectionEnv::CreateDirs(const std::string& path) {
  // Not counted as a data-path op: directory creation happens once at store
  // open, before any acknowledged write exists.
  return base_->CreateDirs(path);
}

Result<std::vector<std::string>> FaultInjectionEnv::ListDir(
    const std::string& path) {
  return base_->ListDir(path);
}

}  // namespace just::kv
