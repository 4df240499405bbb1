#include "server/baselines.h"

#include <csignal>
#include <unistd.h>

#include "common/logging.h"

namespace swala::server {

// ---- MiniServer ----

MiniServer::MiniServer(BaselineOptions options,
                       std::shared_ptr<cgi::HandlerRegistry> registry)
    : options_(std::move(options)), registry_(std::move(registry)) {
  ctx_.docroot = options_.docroot;
  ctx_.registry = registry_;
  ctx_.cache = nullptr;
  ctx_.clock = RealClock::instance();
  ctx_.allow_keep_alive = options_.allow_keep_alive;
  ctx_.recv_timeout_ms = options_.recv_timeout_ms;
  ctx_.counters = &counters_;
  ctx_.running = &running_;
}

MiniServer::~MiniServer() { stop(); }

Status MiniServer::start() {
  if (running_.exchange(true)) return Status::ok();
  auto listener = net::TcpListener::listen(options_.listen);
  if (!listener) {
    running_ = false;
    return listener.status();
  }
  listener_ = std::move(listener.value());
  acceptor_ = std::thread([this] { accept_loop(); });
  return Status::ok();
}

void MiniServer::stop() {
  if (!running_.exchange(false)) return;
  listener_.close();
  if (acceptor_.joinable()) acceptor_.join();
  workers_.join_all();
}

void MiniServer::accept_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    auto conn = listener_.accept(/*timeout_ms=*/200);
    if (!conn) {
      if (conn.status().code() == StatusCode::kTimeout) continue;
      return;
    }
    workers_.spawn([this, stream = std::move(conn.value())]() mutable {
      handle_connection(std::move(stream), ctx_);
    });
  }
}

// ---- ForkingServer ----

ForkingServer::ForkingServer(BaselineOptions options,
                             std::shared_ptr<cgi::HandlerRegistry> registry)
    : options_(std::move(options)), registry_(std::move(registry)) {
  ctx_.docroot = options_.docroot;
  ctx_.registry = registry_;
  ctx_.cache = nullptr;
  ctx_.clock = RealClock::instance();
  ctx_.allow_keep_alive = options_.allow_keep_alive;
  ctx_.recv_timeout_ms = options_.recv_timeout_ms;
  ctx_.counters = &counters_;
  ctx_.running = &running_;
}

ForkingServer::~ForkingServer() { stop(); }

Status ForkingServer::start() {
  if (running_.exchange(true)) return Status::ok();
  ::signal(SIGCHLD, SIG_IGN);  // auto-reap children
  auto listener = net::TcpListener::listen(options_.listen);
  if (!listener) {
    running_ = false;
    return listener.status();
  }
  listener_ = std::move(listener.value());
  acceptor_ = std::thread([this] { accept_loop(); });
  return Status::ok();
}

void ForkingServer::stop() {
  if (!running_.exchange(false)) return;
  listener_.close();
  if (acceptor_.joinable()) acceptor_.join();
}

void ForkingServer::accept_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    auto conn = listener_.accept(/*timeout_ms=*/200);
    if (!conn) {
      if (conn.status().code() == StatusCode::kTimeout) continue;
      return;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: serve the connection, then exit without running destructors
      // (the parent's listener etc. must stay untouched).
      listener_.close();
      handle_connection(std::move(conn.value()), ctx_);
      _exit(0);
    }
    if (pid < 0) {
      SWALA_LOG(Error) << "fork failed; dropping connection";
    }
    // Parent: TcpStream destructor closes our copy of the connection fd.
  }
}

}  // namespace swala::server
