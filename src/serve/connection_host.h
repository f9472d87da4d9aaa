// The socket front end atlas_serve and atlas_router share: listeners, one
// accept thread per listener, one thread per connection running the frame
// loop, and the client stop latch. The owner supplies a handler factory that
// each connection thread calls once, so per-connection state lives on that
// thread. Shutdown is two steps (stop_accepting, then close_connections) so
// each owner can drain its own work in between.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "util/socket.h"

namespace atlas::serve {

/// The Error frame a failed request is answered with.
Frame error_reply(ErrorCode code, const std::string& message);

/// Where a daemon listens; ServerConfig and RouterConfig extend it.
struct ListenConfig {
  /// TCP endpoint; port 0 binds an ephemeral port, port < 0 disables TCP.
  std::string host = "127.0.0.1";
  int port = 0;
  /// Unix-domain socket path; empty disables.
  std::string unix_path;
};

class ConnectionHost {
 public:
  /// Answers one frame; the host writes the reply. An exception drops that
  /// connection only. A frame that cannot be read is answered kBadRequest
  /// by the host and the peer dropped (the stream cannot resynchronize).
  using FrameHandler = std::function<Frame(Frame& frame)>;
  using HandlerFactory = std::function<FrameHandler()>;

  /// `component` names the daemon in errors and, when `verbose`, in the
  /// "listening" / "stopped" log lines.
  ConnectionHost(const char* component, ListenConfig listen, bool verbose);
  ~ConnectionHost();

  /// Throws util::SocketError when both endpoints are disabled or a bind
  /// fails, std::logic_error on a second call.
  void bind();
  void start(HandlerFactory factory);
  /// Joins the accept threads; live connections keep being served.
  void stop_accepting();
  /// Stops accepting, unblocks idle readers, joins every connection thread
  /// and closes the listeners. Idempotent.
  void close_connections();

  /// Resolved TCP port after bind(); -1 when TCP is disabled.
  int port() const { return port_; }
  bool running() const { return started_ && !closed_; }
  bool stopping() const { return stopping_.load(); }

  /// Latch a client Shutdown request; call before acknowledging it.
  void request_stop();
  bool stop_requested() const { return stop_requested_.load(); }
  /// Block until stop_requested(). request_stop() notifies, so the wakeup
  /// is prompt; `poll` (an async-signal flag cannot notify) is checked
  /// every ~50 ms.
  void wait_for_stop_request(const std::function<bool()>& poll);

 private:
  struct Connection {
    util::Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  using Connections = std::vector<std::unique_ptr<Connection>>;

  void accept_loop(util::Listener* listener);
  void connection_loop(Connection* conn);
  /// Join and free the connections whose thread has finished (`all`: every
  /// connection, after shutting down its reader).
  void reap_connections(bool all);

  const char* const component_;
  const ListenConfig listen_;
  const bool verbose_;
  HandlerFactory factory_;

  util::Listener tcp_listener_;
  util::Listener unix_listener_;
  int port_ = -1;
  bool bound_ = false;
  bool started_ = false;
  bool closed_ = false;

  std::vector<std::thread> accept_threads_;
  std::mutex conns_mu_;
  Connections conns_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> stop_requested_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
};

}  // namespace atlas::serve
