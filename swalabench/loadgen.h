// Load generator: a minimal HTTP/1.x client and the closed- and open-loop
// generators built on it. Written against raw sockets rather than the
// program's own http/net modules, so the yardstick does not move when the
// code under test does.
//
// Every response is checked byte for byte against the generated request's
// expected body, and its X-Swala-Cache outcome is tallied.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "requests.h"

namespace swalabench {

/// X-Swala-Cache outcome of a response (kStatic when the header is absent).
enum class Outcome : std::uint8_t {
  kStatic,
  kHitLocal,
  kHitRemote,
  kHitCoalesced,
  kMiss,
  kFailedFast,
  kAdmin,
  kOther,
  kCount,
};
const char* outcome_name(Outcome outcome);

enum class Failure : std::uint8_t {
  kNone,
  kStatus,   ///< non-2xx other than a shed 503
  kShed,     ///< 503 (admission shed, gate timeout, deadline)
  kTimeout,  ///< no complete response within the client timeout
  kConnect,  ///< connection refused/reset or torn response
  kBytes,    ///< 2xx with the wrong body
  kCount,
};
const char* failure_name(Failure failure);

struct Sample {
  std::int64_t due_ns = 0;   ///< when the schedule wanted it sent
  std::int64_t send_ns = 0;  ///< when the client started sending
  std::int64_t done_ns = 0;  ///< when the full response was read
  std::uint64_t req = 0;     ///< X-Bench-Req id
  Kind kind = Kind::kCgi;
  Outcome outcome = Outcome::kOther;
  Failure failure = Failure::kNone;
  std::uint8_t node = 0;
};

/// Blocking HTTP client connection to one port.
class HttpConn {
 public:
  HttpConn(std::uint16_t port, int timeout_ms) : port_(port), timeout_ms_(timeout_ms) {}
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  struct Response {
    int status = 0;
    std::string cache_state;  ///< X-Swala-Cache value, "" when absent
    std::string body;
  };

  /// Sends one GET and reads the whole response. keep_alive selects
  /// HTTP/1.1 persistent connections, else HTTP/1.0 with one connection per
  /// request. `req_id` goes out as X-Bench-Req (0 = omitted).
  Failure get(const std::string& target, bool keep_alive, std::uint64_t req_id,
              Response* out);

 private:
  Failure exchange(const std::string& wire, Response* out, bool* reused_and_empty);
  bool connect_now();
  void close_now();

  std::uint16_t port_;
  int timeout_ms_;
  int fd_ = -1;
  bool reused_ = false;  // fd_ already carried a request
  std::string buf_;
};

struct LoadOptions {
  std::vector<std::uint16_t> ports;  ///< one HTTP port per node
  bool keep_alive = true;
  int threads = 4;
  int timeout_ms = 10000;
};

/// Drives one cluster from `threads` worker threads, each with at most one
/// request in flight. Requests come from `requests` in order through one
/// shared cursor, so the sequence the cluster sees is the seeded one.
class LoadGen {
 public:
  LoadGen(LoadOptions options, const std::vector<Request>* requests,
          const StaticFiles* files);
  ~LoadGen();

  /// Runs every request of `list` once (untimed warm-up). With
  /// `spread_seconds` > 0 the list is paced evenly over that time instead
  /// of sent back to back.
  std::vector<Sample> run_list(const std::vector<Request>& list,
                               std::uint64_t first_req_id, double spread_seconds = 0);
  /// Closed loop for `seconds`: each worker sends its next request as soon
  /// as the previous one completes.
  std::vector<Sample> run_closed(double seconds);
  /// Open loop: request k is due at start + k / rate. A worker takes the
  /// next due request, sleeps until it is due, and the sample's latency is
  /// measured from the due time, so a stall delays every later request too.
  std::vector<Sample> run_open(double rate, double seconds);

  /// True when the request stream ran out before a phase ended.
  bool exhausted() const { return exhausted_.load(); }
  std::uint64_t wrong_bytes() const { return wrong_bytes_.load(); }

  /// Checks a response against what the request must return.
  Failure check(const Request& r, const HttpConn::Response& resp) const;

 private:
  struct Worker;
  Sample issue(Worker& w, const Request& r, std::uint64_t req_id,
               std::int64_t due_ns);
  template <typename Body>
  std::vector<Sample> run_workers(Body body);

  LoadOptions options_;
  const std::vector<Request>* requests_;
  const StaticFiles* files_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::size_t> cursor_{0};
  std::atomic<bool> exhausted_{false};
  std::atomic<std::uint64_t> wrong_bytes_{0};
};

Outcome parse_outcome(const std::string& cache_state);

}  // namespace swalabench
