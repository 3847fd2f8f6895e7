#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

namespace just::net {

namespace {

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

Status SetTimeout(int fd, int optname, int timeout_ms) {
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt timeout");
  }
  return Status::OK();
}

Status MakeAddr(const std::string& host, int port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  return Status::OK();
}

}  // namespace

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    Close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Status Socket::SetRecvTimeout(int timeout_ms) {
  return SetTimeout(fd_, SO_RCVTIMEO, timeout_ms);
}

Status Socket::SetSendTimeout(int timeout_ms) {
  return SetTimeout(fd_, SO_SNDTIMEO, timeout_ms);
}

Status Socket::SetNoDelay(bool on) {
  int v = on ? 1 : 0;
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v)) != 0) {
    return Errno("setsockopt TCP_NODELAY");
  }
  return Status::OK();
}

Status Socket::ReadFully(void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    ssize_t r = ::recv(fd_, p, n, 0);
    if (r > 0) {
      p += r;
      n -= static_cast<size_t>(r);
      continue;
    }
    if (r == 0) return Status::Unavailable("connection closed by peer");
    if (errno == EINTR) continue;
    return Errno("recv");
  }
  return Status::OK();
}

Status Socket::WriteFully(const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    ssize_t r = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (r > 0) {
      p += r;
      n -= static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return Status::OK();
}

Status Socket::WriteFully(std::string_view head, std::string_view body) {
  iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                  {const_cast<char*>(body.data()), body.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  ssize_t r;
  do {
    r = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
  } while (r < 0 && errno == EINTR);
  if (r < 0) return Errno("sendmsg");
  // A full send buffer took part of it: write the rest piece by piece.
  const auto sent = static_cast<size_t>(r);
  if (sent < head.size()) {
    JUST_RETURN_NOT_OK(WriteFully(head.data() + sent, head.size() - sent));
    return WriteFully(body.data(), body.size());
  }
  return WriteFully(body.data() + (sent - head.size()),
                    body.size() - (sent - head.size()));
}

Result<Socket> Connect(const std::string& host, int port) {
  sockaddr_in addr;
  JUST_RETURN_NOT_OK(MakeAddr(host, port, &addr));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("connect to " + host + ":" + std::to_string(port));
  }
  (void)sock.SetNoDelay(true);
  return sock;
}

Result<Listener> Listener::Listen(const std::string& host, int port,
                                  int backlog) {
  sockaddr_in addr;
  JUST_RETURN_NOT_OK(MakeAddr(host, port, &addr));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Listener listener;
  listener.fd_ = fd;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) return Errno("listen");
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Errno("getsockname");
  }
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Result<Socket> Listener::Accept() {
  // Announce before reading the fd: Close() swaps the fd out first and then
  // waits for this count to drain, so it never closes an fd in use here.
  accepting_.fetch_add(1);
  const int listen_fd = fd_.load();
  for (;;) {
    if (listen_fd < 0) break;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      accepting_.fetch_sub(1);
      Socket sock(fd);
      (void)sock.SetNoDelay(true);
      return sock;
    }
    if (errno == EINTR) continue;
    if (fd_.load() >= 0) {
      Status st = Errno("accept");
      accepting_.fetch_sub(1);
      return st;
    }
    break;  // woken by Close()
  }
  accepting_.fetch_sub(1);
  return Status::Unavailable("listener closed");
}

void Listener::Close() {
  const int fd = fd_.exchange(-1);
  if (fd < 0) return;
  // shutdown() wakes a thread blocked in accept() (close() alone does not
  // reliably do so on Linux); the fd is released once none is left inside.
  ::shutdown(fd, SHUT_RDWR);
  while (accepting_.load() > 0) std::this_thread::yield();
  ::close(fd);
}

}  // namespace just::net
