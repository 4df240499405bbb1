// EpollReactor: the event-driven server core (server.io_model = epoll).
//
// The paper's §4.1 take-turns model pins one thread per keep-alive
// connection, which caps a node at a few hundred concurrent connections
// before admission control has to shed. The reactor replaces that
// connection path with a single non-blocking event loop that owns the
// listener and every connection fd; tens of thousands of idle keep-alive
// connections then cost one fd + ~one parser buffer each, no threads.
//
//   state machine per connection (driven by epoll readiness + timers):
//
//       accept ──> kReading ──(request complete)──> kExecuting
//                     ^                                  │ worker pool runs
//                     │ keep-alive                       │ handle_request
//                     │                                  v (eventfd wakeup)
//                    close <──(Connection: close)── kWriting
//
// CPU-bound / blocking work (CGI spawns via the ExecGate, disk store
// reads, single-flight waits) never runs on the loop: a completed request
// is handed to a small worker pool; the worker posts the serialized
// response to a completion queue and signals an eventfd the loop has
// registered, which re-arms the connection for writing.
//
// PR 5 overload semantics are preserved exactly, relocated to where the
// reactor naturally enforces them:
//   - admission control with hysteresis sheds inline at accept (the
//     dedicated shedder thread the threaded model needed is retired: the
//     loop is never pinned inside a connection, so it always reaches
//     accept);
//   - per-request deadlines arm at the first request byte and live on a
//     hashed timer wheel instead of SO_RCVTIMEO (slow-loris → 408);
//   - a stalled response write is cut when its deadline (or the idle-cap
//     fallback) fires on the same wheel;
//   - drain closes idle connections immediately and winds down in-flight
//     ones with "Connection: close".
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/queue.h"
#include "http/parser.h"
#include "net/poller.h"
#include "server/context.h"
#include "server/timer_wheel.h"

namespace swala::server {

struct ReactorOptions {
  /// Worker pool executing handle_request (CGI, cache, disk). In epoll mode
  /// this is what server.threads configures.
  std::size_t worker_threads = 4;
  /// Admission control (same semantics as the threaded model): above this
  /// many open connections, new arrivals get a fast 503. 0 = unlimited.
  std::size_t max_connections = 0;
  int shed_resume_percent = 75;
  /// Timer wheel granularity; timers fire up to one tick late.
  int timer_resolution_ms = 50;
  /// Backstop for stop(): how long the loop keeps flushing in-flight
  /// responses after the workers have drained.
  int stop_flush_ms = 1000;
};

/// Event-driven connection path for SwalaServer. Owns the event-loop thread
/// and the worker pool; borrows the listener and the ServeContext (with its
/// counters, cache, registry, drain/running flags) from the server.
class EpollReactor {
 public:
  EpollReactor(const ServeContext* ctx, net::TcpListener* listener,
               ReactorOptions options);
  ~EpollReactor();

  EpollReactor(const EpollReactor&) = delete;
  EpollReactor& operator=(const EpollReactor&) = delete;

  Status start();

  /// Stop accepting and close idle connections; in-flight exchanges finish
  /// with "Connection: close" (ctx->draining must already be true). The
  /// caller watches ctx->counters->active_connections reach zero.
  void begin_drain();

  /// Drains workers, flushes in-flight responses briefly, joins the loop.
  /// Idempotent.
  void stop();

 private:
  struct Conn {
    std::uint64_t id = 0;
    net::TcpStream stream;
    http::RequestParser parser;
    enum class State { kReading, kExecuting, kWriting } state = State::kReading;
    std::uint32_t armed = 0;  ///< epoll events currently registered
    std::size_t served = 0;   ///< completed exchanges (keep-alive budget)
    // Per-request deadline (armed at first byte; kept for the write phase).
    Deadline deadline;
    TimeNs deadline_at = 0;      ///< absolute expiry; 0 = unlimited
    TimeNs last_activity = 0;    ///< last byte read (idle timeout base)
    TimeNs write_cut_at = 0;     ///< stalled-writer cut point (kWriting)
    // Response being written (serialized head + body with progress).
    std::string head;
    std::string body;
    std::size_t head_off = 0;
    std::size_t body_off = 0;
    bool keep = false;  ///< keep-alive after the current response
  };

  struct Job {
    std::uint64_t conn_id = 0;
    std::size_t served = 0;
    http::Request request;
    Deadline deadline;
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::string head;
    std::string body;
    bool keep = false;
  };

  void loop();
  void worker_loop();

  void accept_ready();
  bool should_shed();
  void shed_new_connection(net::TcpStream stream);

  Conn* find(std::uint64_t id);
  void close_conn(Conn* conn);
  void drive_read(Conn* conn);
  void dispatch(Conn* conn);
  void start_response(Conn* conn, std::string head, std::string body,
                      bool keep);
  void respond_and_close(Conn* conn, const http::Response& resp);
  void drive_write(Conn* conn);
  void arm(Conn* conn, std::uint32_t events);
  void schedule_read_timer(Conn* conn, TimeNs now);
  void handle_timer(std::uint64_t id, TimeNs now);
  void process_completions();
  void sweep_idle(bool respond_mid_request);

  const ServeContext* ctx_;
  net::TcpListener* listener_;
  ReactorOptions options_;
  const Clock* clock_;

  net::Poller poller_;
  net::WakeupFd wakeup_;
  TimerWheel wheel_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_;

  BoundedQueue<Job> jobs_;
  std::mutex completions_mutex_;
  std::vector<Completion> completions_;  // guarded by completions_mutex_

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> drain_requested_{false};
  bool drain_swept_ = false;     // loop-thread only
  bool accepting_ = true;        // loop-thread only
  bool shedding_ = false;        // loop-thread only (hysteresis latch)
  TimeNs stop_flush_until_ = 0;  // loop-thread only

  std::vector<std::thread> workers_;
  std::thread loop_thread_;
};

}  // namespace swala::server
