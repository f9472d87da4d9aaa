#include "util/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace atlas::util {
namespace {

[[noreturn]] void raise_errno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

sockaddr_in make_inet_addr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw SocketError("invalid IPv4 address: " + host);
  }
  return addr;
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw SocketError("unix socket path empty or too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Socket::send_all(const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that disconnected mid-response must surface as
    // an error on this connection, not a process-wide SIGPIPE.
    const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw SocketError("send timed out");
      }
      raise_errno("send");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

std::size_t Socket::recv_exact(void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw SocketError("recv timed out");
      }
      raise_errno("recv");
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

void Socket::set_io_timeout_ms(int timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    raise_errno("setsockopt SO_RCVTIMEO");
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    raise_errno("setsockopt SO_SNDTIMEO");
  }
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(Listener&& o) noexcept
    : fd_(o.fd_), unlink_path_(std::move(o.unlink_path_)) {
  o.fd_ = -1;
  o.unlink_path_.clear();
}

Listener& Listener::operator=(Listener&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    unlink_path_ = std::move(o.unlink_path_);
    o.fd_ = -1;
    o.unlink_path_.clear();
  }
  return *this;
}

Listener Listener::tcp(const std::string& host, int& port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) raise_errno("socket");
  Listener l;
  l.fd_ = fd;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_inet_addr(host, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    raise_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) raise_errno("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    raise_errno("getsockname");
  }
  port = ntohs(bound.sin_port);
  return l;
}

Listener Listener::unix_domain(const std::string& path, int backlog) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) raise_errno("socket");
  Listener l;
  l.fd_ = fd;
  sockaddr_un addr = make_unix_addr(path);
  ::unlink(path.c_str());  // stale socket file from a previous run
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    raise_errno("bind " + path);
  }
  if (::listen(fd, backlog) != 0) raise_errno("listen");
  l.unlink_path_ = path;
  return l;
}

std::optional<Socket> Listener::accept(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  const int n = ::poll(&pfd, 1, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return std::nullopt;
    raise_errno("poll");
  }
  if (n == 0) return std::nullopt;
  const int cfd = ::accept(fd_, nullptr, nullptr);
  if (cfd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return std::nullopt;
    raise_errno("accept");
  }
  // Request/response framing: flush small frames immediately (mirrors
  // connect_tcp). Harmless ENOTSUP on AF_UNIX listeners.
  const int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(cfd);
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
}

namespace {

/// Connect `fd` to `addr`, optionally bounded by a timeout. A bounded
/// connect runs non-blocking (connect + poll for writability + SO_ERROR
/// check) and restores the blocking flag before returning, so callers see
/// an ordinary blocking socket either way.
void connect_fd(int fd, const sockaddr* addr, socklen_t len,
                const std::string& what, int timeout_ms) {
  if (timeout_ms <= 0) {
    while (::connect(fd, addr, len) != 0) {
      if (errno == EINTR) continue;
      raise_errno("connect " + what);
    }
    return;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) raise_errno("fcntl F_GETFL");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    raise_errno("fcntl F_SETFL O_NONBLOCK");
  }
  int rc = ::connect(fd, addr, len);
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    raise_errno("connect " + what);
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0) raise_errno("poll");
    if (n == 0) {
      throw SocketError("connect " + what + " timed out after " +
                        std::to_string(timeout_ms) + "ms");
    }
    int err = 0;
    socklen_t errlen = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &errlen) != 0) {
      raise_errno("getsockopt SO_ERROR");
    }
    if (err != 0) {
      throw SocketError("connect " + what + ": " + std::strerror(err));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) raise_errno("fcntl F_SETFL restore");
}

}  // namespace

Socket connect_tcp(const std::string& host, int port, int connect_timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) raise_errno("socket");
  Socket s(fd);
  sockaddr_in addr = make_inet_addr(host, port);
  connect_fd(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr),
             host + ":" + std::to_string(port), connect_timeout_ms);
  const int one = 1;
  // Request/response framing: flush small frames immediately.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return s;
}

Socket connect_unix(const std::string& path, int connect_timeout_ms) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) raise_errno("socket");
  Socket s(fd);
  sockaddr_un addr = make_unix_addr(path);
  connect_fd(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr), path,
             connect_timeout_ms);
  return s;
}

}  // namespace atlas::util
