#include "serve/connection_host.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "obs/log.h"

namespace atlas::serve {

Frame error_reply(ErrorCode code, const std::string& message) {
  ErrorResponse err;
  err.code = code;
  err.message = message;
  return {MsgType::kError, err.encode()};
}

ConnectionHost::ConnectionHost(const char* component, ListenConfig listen,
                               bool verbose)
    : component_(component), listen_(std::move(listen)), verbose_(verbose) {}

ConnectionHost::~ConnectionHost() { close_connections(); }

void ConnectionHost::bind() {
  const std::string who = component_;
  if (bound_) throw std::logic_error(who + ": start called twice");
  if (listen_.port < 0 && listen_.unix_path.empty()) {
    throw util::SocketError(who + ": no endpoint (TCP and UDS disabled)");
  }
  bound_ = true;
  if (listen_.port >= 0) {
    int port = listen_.port;
    tcp_listener_ = util::Listener::tcp(listen_.host, port);
    port_ = port;
  }
  if (!listen_.unix_path.empty()) {
    unix_listener_ = util::Listener::unix_domain(listen_.unix_path);
  }
}

void ConnectionHost::start(HandlerFactory factory) {
  factory_ = std::move(factory);
  started_ = true;
  for (util::Listener* l : {&tcp_listener_, &unix_listener_}) {
    if (l->valid()) {
      accept_threads_.emplace_back([this, l] { accept_loop(l); });
    }
  }
  if (verbose_) {
    obs::LogLine line(obs::LogLevel::kInfo, component_);
    line.kv("event", "listening");
    // UDS-only: no host/port kvs to mislead an operator grepping for them.
    if (port_ >= 0) line.kv("host", listen_.host).kv("port", port_);
    if (!listen_.unix_path.empty()) line.kv("uds", listen_.unix_path);
  }
}

void ConnectionHost::stop_accepting() {
  stopping_.store(true);
  for (std::thread& t : accept_threads_) t.join();
  accept_threads_.clear();
}

void ConnectionHost::close_connections() {
  if (closed_) return;
  stop_accepting();
  reap_connections(/*all=*/true);
  tcp_listener_.close();
  unix_listener_.close();
  closed_ = true;
  if (verbose_ && started_) {
    obs::LogLine(obs::LogLevel::kInfo, component_).kv("event", "stopped");
  }
}

void ConnectionHost::request_stop() {
  {
    // Set under stop_mu_ so a waiter between its check and its wait cannot
    // sleep through the notify.
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_.store(true);
  }
  stop_cv_.notify_all();
}

void ConnectionHost::wait_for_stop_request(
    const std::function<bool()>& poll) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_requested_.load() && !(poll && poll())) {
    if (poll) {
      stop_cv_.wait_for(lock, std::chrono::milliseconds(50));
    } else {
      stop_cv_.wait(lock);
    }
  }
}

void ConnectionHost::accept_loop(util::Listener* listener) {
  while (!stopping_.load()) {
    std::optional<util::Socket> sock;
    try {
      sock = listener->accept(/*timeout_ms=*/100);
    } catch (const util::SocketError&) {
      // Listener failure (fd limit, ...): back off rather than spin.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    reap_connections(/*all=*/false);
    if (!sock) continue;
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(*sock);
    conn->thread = std::thread([this, c = conn.get()] { connection_loop(c); });
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(std::move(conn));
  }
}

void ConnectionHost::reap_connections(bool all) {
  Connections finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (all) {
      for (auto& c : conns_) c->sock.shutdown_read();
    }
    auto it = std::partition(conns_.begin(), conns_.end(), [all](auto& c) {
      return !all && !c->done.load();
    });
    std::move(it, conns_.end(), std::back_inserter(finished));
    conns_.erase(it, conns_.end());
  }
  for (auto& c : finished) c->thread.join();
}

void ConnectionHost::connection_loop(Connection* conn) {
  util::Socket& sock = conn->sock;
  try {
    const FrameHandler handle = factory_();
    for (;;) {
      Frame frame;
      try {
        if (!read_frame(sock, frame)) break;
      } catch (const ProtocolError& e) {
        // Bad magic / hostile length / truncation: answer best-effort and
        // drop the peer.
        const Frame reply = error_reply(ErrorCode::kBadRequest, e.what());
        try {
          write_frame(sock, reply.type, reply.payload);
        } catch (const util::SocketError&) {
        }
        break;
      }
      const Frame reply = handle(frame);
      write_frame(sock, reply.type, reply.payload, reply.ext);
    }
  } catch (const std::exception&) {
    // Peer vanished mid-write or similar: drop this connection only.
  }
  // Signal EOF to the peer but leave the fd to the Connection's destructor
  // (after join): closing here would race close_connections()'
  // shutdown_read() on a possibly recycled descriptor.
  sock.shutdown_both();
  conn->done.store(true);
}

}  // namespace atlas::serve
