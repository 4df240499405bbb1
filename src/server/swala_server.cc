#include "server/swala_server.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "server/reactor.h"

namespace swala::server {

SwalaServer::SwalaServer(SwalaServerOptions options,
                         std::shared_ptr<cgi::HandlerRegistry> registry,
                         core::CacheManager* cache, const Clock* clock)
    : options_(std::move(options)), registry_(std::move(registry)) {
  ctx_.docroot = options_.docroot;
  ctx_.registry = registry_;
  ctx_.cache = cache;
  ctx_.clock = clock;
  ctx_.allow_keep_alive = options_.allow_keep_alive;
  ctx_.enable_admin = options_.enable_admin;
  ctx_.recv_timeout_ms = options_.recv_timeout_ms;
  ctx_.counters = &counters_;
  ctx_.running = &running_;
  ctx_.latency = &latency_;
  ctx_.request_timeout_ms = options_.request_timeout_ms;
  ctx_.retry_after_seconds = options_.retry_after_seconds;
  ctx_.draining = &draining_;
  if (options_.max_concurrent_cgi > 0) {
    cgi_gate_ = std::make_unique<cgi::ExecGate>(options_.max_concurrent_cgi);
    ctx_.cgi_gate = cgi_gate_.get();
  }
}

SwalaServer::~SwalaServer() { stop(); }

Status SwalaServer::start() {
  if (running_.exchange(true)) return Status::ok();
  if (!options_.access_log_path.empty()) {
    if (auto st = access_log_.open(options_.access_log_path); !st.is_ok()) {
      running_ = false;
      return st;
    }
    ctx_.access_log = &access_log_;
  }
  auto listener =
      net::TcpListener::listen(options_.listen, options_.listen_backlog);
  if (!listener) {
    running_ = false;
    return listener.status();
  }
  listener_ = std::move(listener.value());
  if (options_.io_model == IoModel::kEpoll) {
    // Event-driven connection path: the reactor owns the listener and every
    // connection fd; request_threads sizes its worker pool. Admission
    // control sheds inline at accept (the loop is never pinned inside a
    // connection), so the dedicated shedder thread is not needed.
    ctx_.io_model = "epoll";
    ReactorOptions ro;
    ro.worker_threads = options_.request_threads;
    ro.max_connections = options_.max_connections;
    ro.shed_resume_percent = options_.shed_resume_percent;
    ro.timer_resolution_ms = options_.timer_resolution_ms;
    reactor_ = std::make_unique<EpollReactor>(&ctx_, &listener_, ro);
    if (auto st = reactor_->start(); !st.is_ok()) {
      reactor_.reset();
      listener_.close();
      running_ = false;
      return st;
    }
    SWALA_LOG(Info) << "SwalaServer listening on port " << port()
                    << " (epoll reactor, " << options_.request_threads
                    << " workers)";
    return Status::ok();
  }
  threads_.reserve(options_.request_threads);
  for (std::size_t i = 0; i < options_.request_threads; ++i) {
    threads_.emplace_back([this] { request_thread_loop(); });
  }
  if (options_.max_connections > 0) {
    shedder_ = std::thread([this] { shed_loop(); });
  }
  SWALA_LOG(Info) << "SwalaServer listening on port " << port() << " with "
                  << options_.request_threads << " request threads";
  return Status::ok();
}

void SwalaServer::stop() {
  if (!running_.exchange(false)) return;
  if (reactor_ != nullptr) {
    // The reactor flushes in-flight responses (mid-request connections get
    // a 503 "server shutting down") before its loop exits; the listener is
    // closed by its stop sweep.
    reactor_->stop();
    reactor_.reset();
  }
  listener_.close();
  if (shedder_.joinable()) shedder_.join();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

bool SwalaServer::drain() {
  if (!running_.load(std::memory_order_relaxed)) return true;
  draining_.store(true, std::memory_order_relaxed);
  // Closing the listener stops new work at the front door; handlers see
  // ctx.draining and send "Connection: close", so keep-alive connections
  // wind down one in-flight response at a time.
  if (reactor_ != nullptr) {
    // The loop thread closes the listener itself (it owns the epoll
    // registration) and sweeps idle keep-alive connections; wait for that
    // acknowledgment so callers observe refused connects on return.
    reactor_->begin_drain();
    const auto ack_by = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(1000);
    while (listener_.valid() &&
           std::chrono::steady_clock::now() < ack_by) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } else {
    listener_.close();
  }
  SWALA_LOG(Info) << "SwalaServer draining: waiting up to "
                  << options_.drain_timeout_ms << "ms for "
                  << counters_.active_connections.load(
                         std::memory_order_relaxed)
                  << " active connections";
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options_.drain_timeout_ms);
  while (counters_.active_connections.load(std::memory_order_relaxed) > 0) {
    if (std::chrono::steady_clock::now() >= give_up) {
      SWALA_LOG(Warn) << "drain timeout: "
                      << counters_.active_connections.load(
                             std::memory_order_relaxed)
                      << " connections still active; stopping anyway";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

bool SwalaServer::should_shed() {
  if (options_.max_connections == 0) return false;
  const auto active =
      counters_.active_connections.load(std::memory_order_relaxed);
  if (shedding_.load(std::memory_order_relaxed)) {
    const std::size_t resume =
        options_.max_connections *
        static_cast<std::size_t>(std::max(0, options_.shed_resume_percent)) /
        100;
    if (active <= resume) {
      shedding_.store(false, std::memory_order_relaxed);
      SWALA_LOG(Info) << "admission control: resumed at " << active
                      << " active connections";
      return false;
    }
    return true;
  }
  if (active >= options_.max_connections) {
    shedding_.store(true, std::memory_order_relaxed);
    SWALA_LOG(Warn) << "admission control: shedding at " << active << "/"
                    << options_.max_connections << " active connections";
    return true;
  }
  return false;
}

void SwalaServer::shed_connection(net::TcpStream stream) {
  counters_.requests_shed.fetch_add(1, std::memory_order_relaxed);
  http::Response resp = overload_response(503, "server at connection limit",
                                          options_.retry_after_seconds);
  (void)stream.set_send_timeout(1000);
  (void)stream.write_vec(resp.serialize_head(), resp.body);
  // stream destructor closes the socket.
}

void SwalaServer::request_thread_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    net::TcpStream stream;
    {
      // Take turns listening (§4.1): only one thread blocks in accept.
      std::lock_guard<std::mutex> lock(accept_mutex_);
      if (!running_.load(std::memory_order_relaxed)) return;
      auto conn = listener_.accept(/*timeout_ms=*/200);
      if (!conn) {
        if (conn.status().code() == StatusCode::kTimeout) continue;
        return;  // listener closed
      }
      stream = std::move(conn.value());
    }
    if (should_shed()) {
      shed_connection(std::move(stream));
      continue;
    }
    // Handle outside the accept lock so other threads can accept.
    handle_connection(std::move(stream), ctx_);
  }
}

void SwalaServer::shed_loop() {
  // Only active while the admission gate is closed: in the take-turns
  // model every request thread may be pinned inside a keep-alive
  // connection, leaving nobody in accept() to refuse overflow arrivals.
  // Evaluates should_shed() itself (off the active-connections gauge), so
  // it engages even when no request thread reaches an accept point.
  while (running_.load(std::memory_order_relaxed)) {
    if (!should_shed()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    net::TcpStream stream;
    {
      std::lock_guard<std::mutex> lock(accept_mutex_);
      if (!running_.load(std::memory_order_relaxed)) return;
      if (!should_shed()) continue;  // gate reopened while waiting
      auto conn = listener_.accept(/*timeout_ms=*/50);
      if (!conn) {
        if (conn.status().code() == StatusCode::kTimeout) continue;
        return;  // listener closed
      }
      stream = std::move(conn.value());
    }
    shed_connection(std::move(stream));
  }
}

}  // namespace swala::server
