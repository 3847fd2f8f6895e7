#include "kvstore/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace just::kv {

namespace {

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(std::string_view data) override {
    if (file_ == nullptr) return Status::IOError("file closed: " + path_);
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return ErrnoStatus("write failed on", path_);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (file_ == nullptr) return Status::IOError("file closed: " + path_);
    if (std::fflush(file_) != 0) return ErrnoStatus("flush failed on", path_);
    if (::fsync(::fileno(file_)) != 0) {
      return ErrnoStatus("fsync failed on", path_);
    }
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::OK();
    int rc = std::fclose(file_);
    file_ = nullptr;
    if (rc != 0) return ErrnoStatus("close failed on", path_);
    return Status::OK();
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, uint64_t n, char* dst) const override {
    ssize_t got = ::pread(fd_, dst, n, static_cast<off_t>(offset));
    if (got < 0 || static_cast<uint64_t>(got) != n) {
      return Status::IOError("pread failed on " + path_);
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    std::FILE* f = std::fopen(path.c_str(), truncate ? "wb" : "ab");
    if (f == nullptr) return ErrnoStatus("cannot open", path);
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(f, path));
  }

  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoStatus("cannot open", path);
    return std::unique_ptr<RandomAccessFile>(
        std::make_unique<PosixRandomAccessFile>(fd, path));
  }

  Status ReadFileToString(const std::string& path, std::string* out) override {
    out->clear();
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return ErrnoStatus("cannot open", path);
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
    bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad) return Status::IOError("read failed on " + path);
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Result<uint64_t> GetFileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return ErrnoStatus("stat failed", path);
    return static_cast<uint64_t>(st.st_size);
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename failed", from + " -> " + to);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink failed", path);
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("truncate failed", path);
    }
    return Status::OK();
  }

  Status CreateDirs(const std::string& path) override {
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec) {
      return Status::IOError("cannot create dir " + path + ": " +
                             ec.message());
    }
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
      names.push_back(entry.path().filename().string());
    }
    if (ec) {
      return Status::IOError("cannot list dir " + path + ": " + ec.message());
    }
    return names;
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

}  // namespace just::kv
