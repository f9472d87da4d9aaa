// Thin RAII wrappers over POSIX stream sockets (TCP and Unix-domain).
//
// Built for the serve subsystem's length-prefixed framing: blocking
// `send_all` / `recv_exact` primitives with EINTR handling, SIGPIPE
// suppressed per send, and a poll-based `accept` with timeout so accept
// loops can observe a stop flag without racing fd teardown from another
// thread. A listener bound to TCP port 0 reports the kernel-chosen port,
// which is how the tests run servers on ephemeral loopback ports.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>

namespace atlas::util {

class SocketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A connected stream socket (move-only; closes on destruction).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Write exactly n bytes; throws SocketError on failure.
  void send_all(const void* data, std::size_t n);

  /// Read exactly n bytes unless the peer closes first: returns the count
  /// read — n, or fewer (0 for EOF before the first byte) when the peer
  /// closed. Throws SocketError on errors and timeouts.
  std::size_t recv_exact(void* data, std::size_t n);

  /// Bound every subsequent recv/send (SO_RCVTIMEO / SO_SNDTIMEO): a peer
  /// that stops reading or never answers surfaces as SocketError("... timed
  /// out") instead of blocking the caller forever. 0 restores blocking
  /// forever. Routing-tier probers and failover paths depend on this — a
  /// wedged backend must cost a bounded wait, not a stuck thread.
  void set_io_timeout_ms(int timeout_ms);

  /// Half-close the read side: a peer (or another thread) blocked in
  /// recv_exact observes EOF while pending writes still flush.
  void shutdown_read();
  /// Full shutdown (both directions).
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
};

/// A listening socket; `accept` polls so callers can check a stop flag.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(Listener&& o) noexcept;
  Listener& operator=(Listener&& o) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Bind + listen on host:port. Port 0 picks an ephemeral port; the
  /// resolved port is returned through `port`.
  static Listener tcp(const std::string& host, int& port, int backlog = 64);

  /// Bind + listen on a Unix-domain socket path (unlinks a stale file).
  static Listener unix_domain(const std::string& path, int backlog = 64);

  bool valid() const { return fd_ >= 0; }

  /// Wait up to timeout_ms for a connection; nullopt on timeout.
  std::optional<Socket> accept(int timeout_ms);

  void close();

 private:
  int fd_ = -1;
  std::string unlink_path_;  // UDS file removed on close
};

/// Connect to host:port. `connect_timeout_ms > 0` bounds the handshake
/// (non-blocking connect + poll) and throws SocketError on expiry; 0 blocks
/// until the kernel gives up. The returned socket is blocking either way.
Socket connect_tcp(const std::string& host, int port,
                   int connect_timeout_ms = 0);
Socket connect_unix(const std::string& path, int connect_timeout_ms = 0);

}  // namespace atlas::util
