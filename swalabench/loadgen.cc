#include "loadgen.h"

#include <arpa/inet.h>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "spans.h"

namespace swalabench {
namespace {

bool iequals_prefix(std::string_view line, std::string_view name) {
  if (line.size() < name.size()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) !=
        std::tolower(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\r')) s.remove_suffix(1);
  return s;
}

void sleep_until_ns(std::int64_t t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t / 1000000000LL);
  ts.tv_nsec = static_cast<long>(t % 1000000000LL);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

}  // namespace

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kStatic: return "static";
    case Outcome::kHitLocal: return "hit_local";
    case Outcome::kHitRemote: return "hit_remote";
    case Outcome::kHitCoalesced: return "hit_coalesced";
    case Outcome::kMiss: return "miss";
    case Outcome::kFailedFast: return "failed_fast";
    case Outcome::kAdmin: return "admin";
    case Outcome::kOther: return "other";
    case Outcome::kCount: break;
  }
  return "?";
}

const char* failure_name(Failure failure) {
  switch (failure) {
    case Failure::kNone: return "none";
    case Failure::kStatus: return "status";
    case Failure::kShed: return "shed";
    case Failure::kTimeout: return "timeout";
    case Failure::kConnect: return "connect";
    case Failure::kBytes: return "bytes";
    case Failure::kCount: break;
  }
  return "?";
}

Outcome parse_outcome(const std::string& cache_state) {
  if (cache_state.empty()) return Outcome::kStatic;
  if (cache_state == "hit-local") return Outcome::kHitLocal;
  if (cache_state == "hit-remote") return Outcome::kHitRemote;
  if (cache_state == "hit-coalesced") return Outcome::kHitCoalesced;
  if (cache_state == "miss") return Outcome::kMiss;
  if (cache_state == "failed-fast") return Outcome::kFailedFast;
  return Outcome::kOther;
}

// ---- HttpConn ----

HttpConn::~HttpConn() { close_now(); }

void HttpConn::close_now() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  reused_ = false;
}

bool HttpConn::connect_now() {
  close_now();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close_now();
    return false;
  }
  return true;
}

Failure HttpConn::get(const std::string& target, bool keep_alive,
                      std::uint64_t req_id, Response* out) {
  std::string wire = "GET " + target;
  wire += keep_alive ? " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     : " HTTP/1.0\r\nConnection: close\r\n";
  if (req_id != 0) wire += "X-Bench-Req: " + std::to_string(req_id) + "\r\n";
  wire += "\r\n";
  if (!keep_alive) close_now();
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0 && !connect_now()) return Failure::kConnect;
    // A keep-alive connection the server already closed fails before any
    // response byte; that is the one case a client retries on a fresh one.
    bool stale = false;
    const Failure f = exchange(wire, out, &stale);
    if (f == Failure::kConnect && stale && attempt == 0) {
      close_now();
      continue;
    }
    if (f != Failure::kNone || !keep_alive) close_now();
    return f;
  }
  return Failure::kConnect;
}

Failure HttpConn::exchange(const std::string& wire, Response* out,
                           bool* reused_and_empty) {
  const bool reused = reused_;
  *reused_and_empty = false;
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms_} * 1000000;
  for (std::size_t sent = 0; sent < wire.size();) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *reused_and_empty = reused;
      return Failure::kConnect;
    }
    sent += static_cast<std::size_t>(n);
  }

  buf_.clear();
  std::size_t header_end = std::string::npos;
  std::size_t need = std::string::npos;  // total bytes once headers known
  bool until_eof = false;
  bool server_closes = false;
  char chunk[65536];
  while (true) {
    if (header_end != std::string::npos && !until_eof && buf_.size() >= need) break;
    const std::int64_t left_ms = (deadline - now_ns()) / 1000000;
    if (left_ms <= 0) return Failure::kTimeout;
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(left_ms));
    if (pr < 0 && errno == EINTR) continue;
    if (pr == 0) return Failure::kTimeout;
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      *reused_and_empty = reused && buf_.empty();
      return Failure::kConnect;
    }
    if (n == 0) {
      if (until_eof) break;
      *reused_and_empty = reused && buf_.empty();
      return Failure::kConnect;  // torn: closed before the response ended
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
    if (header_end != std::string::npos) continue;
    header_end = buf_.find("\r\n\r\n");
    if (header_end == std::string::npos) continue;

    // Status line and the three headers the benchmark needs.
    const std::string_view head(buf_.data(), header_end);
    const auto sp = head.find(' ');
    if (sp == std::string_view::npos || head.size() < sp + 4) return Failure::kConnect;
    out->status = std::atoi(std::string(head.substr(sp + 1, 3)).c_str());
    out->cache_state.clear();
    std::size_t content_length = std::string::npos;
    if (head.substr(0, sp) == "HTTP/1.0") server_closes = true;
    std::size_t pos = head.find("\r\n");
    while (pos != std::string_view::npos) {
      const std::size_t next = head.find("\r\n", pos + 2);
      const std::string_view line =
          head.substr(pos + 2, next == std::string_view::npos ? std::string_view::npos
                                                              : next - pos - 2);
      const auto colon = line.find(':');
      if (colon != std::string_view::npos) {
        const std::string_view value = trim(line.substr(colon + 1));
        if (iequals_prefix(line, "content-length:")) {
          content_length = static_cast<std::size_t>(std::atoll(std::string(value).c_str()));
        } else if (iequals_prefix(line, "x-swala-cache:")) {
          out->cache_state = std::string(value);
        } else if (iequals_prefix(line, "connection:")) {
          server_closes = iequals_prefix(value, "close");
          if (iequals_prefix(value, "keep-alive")) server_closes = false;
        }
      }
      pos = next;
    }
    if (content_length == std::string::npos) {
      until_eof = true;
      server_closes = true;
    } else {
      need = header_end + 4 + content_length;
    }
  }
  out->body.assign(buf_, header_end + 4,
                   until_eof ? std::string::npos : need - header_end - 4);
  reused_ = true;
  if (server_closes) close_now();
  return Failure::kNone;
}

// ---- LoadGen ----

struct LoadGen::Worker {
  std::vector<std::unique_ptr<HttpConn>> conns;  // one per node
};

LoadGen::LoadGen(LoadOptions options, const std::vector<Request>* requests,
                 const StaticFiles* files)
    : options_(std::move(options)), requests_(requests), files_(files) {
  for (int t = 0; t < options_.threads; ++t) {
    auto w = std::make_unique<Worker>();
    for (const auto port : options_.ports) {
      w->conns.push_back(std::make_unique<HttpConn>(port, options_.timeout_ms));
    }
    workers_.push_back(std::move(w));
  }
}

LoadGen::~LoadGen() = default;

Failure LoadGen::check(const Request& r, const HttpConn::Response& resp) const {
  if (resp.status == 503) return Failure::kShed;
  if (resp.status < 200 || resp.status >= 300) return Failure::kStatus;
  bool same = false;
  switch (r.kind) {
    case Kind::kCgi:
      same = resp.body.size() == r.bytes &&
             resp.body == expected_cgi_body(r.q, r.bytes);
      break;
    case Kind::kStatic: {
      const auto it = files_->find(r.target);
      same = it != files_->end() && it->second == resp.body;
      break;
    }
    case Kind::kInvalidate:
      same = resp.body.rfind("{", 0) == 0 &&
             resp.body.find("\"removed\"") != std::string::npos;
      break;
  }
  return same ? Failure::kNone : Failure::kBytes;
}

Sample LoadGen::issue(Worker& w, const Request& r, std::uint64_t req_id,
                      std::int64_t due_ns) {
  Sample s;
  s.due_ns = due_ns;
  s.req = req_id;
  s.kind = r.kind;
  s.node = static_cast<std::uint8_t>(r.node);
  HttpConn::Response resp;
  s.send_ns = now_ns();
  if (s.due_ns == 0) s.due_ns = s.send_ns;
  s.failure = w.conns[static_cast<std::size_t>(r.node)]->get(
      r.target, options_.keep_alive, req_id, &resp);
  s.done_ns = now_ns();
  if (s.failure == Failure::kNone) s.failure = check(r, resp);
  if (s.failure == Failure::kBytes) wrong_bytes_.fetch_add(1);
  s.outcome = r.kind == Kind::kInvalidate ? Outcome::kAdmin
                                          : parse_outcome(resp.cache_state);
  return s;
}

template <typename Body>
std::vector<Sample> LoadGen::run_workers(Body body) {
  std::vector<std::vector<Sample>> per(workers_.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    threads.emplace_back([&, i] {
      // The default 50 us timer slack would delay every open-loop wake-up
      // and count the delay as server latency; ask for the tightest.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      body(*workers_[i], per[i]);
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Sample> all;
  for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
  return all;
}

std::vector<Sample> LoadGen::run_list(const std::vector<Request>& list,
                                      std::uint64_t first_req_id, double spread_seconds) {
  const std::int64_t start = now_ns();
  const double step_ns = list.empty() ? 0 : spread_seconds * 1e9 / static_cast<double>(list.size());
  std::atomic<std::size_t> next{0};
  return run_workers([&](Worker& w, std::vector<Sample>& out) {
    for (std::size_t i = next++; i < list.size(); i = next++) {
      const auto due = start + static_cast<std::int64_t>(static_cast<double>(i) * step_ns);
      if (due > now_ns()) sleep_until_ns(due);
      out.push_back(issue(w, list[i], first_req_id + i, 0));
    }
  });
}

std::vector<Sample> LoadGen::run_closed(double seconds) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  return run_workers([&](Worker& w, std::vector<Sample>& out) {
    while (now_ns() < end) {
      const std::size_t k = cursor_++;
      if (k >= requests_->size()) {
        exhausted_ = true;
        return;
      }
      out.push_back(issue(w, (*requests_)[k], k + 1, 0));
    }
  });
}

std::vector<Sample> LoadGen::run_open(double rate, double seconds) {
  const std::int64_t start = now_ns() + 1000000;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const double interval_ns = 1e9 / rate;
  std::atomic<std::uint64_t> slot{0};
  return run_workers([&](Worker& w, std::vector<Sample>& out) {
    while (true) {
      const std::uint64_t j = slot++;
      const auto due = start + static_cast<std::int64_t>(static_cast<double>(j) * interval_ns);
      if (due >= end) return;
      const std::size_t k = cursor_++;
      if (k >= requests_->size()) {
        exhausted_ = true;
        return;
      }
      if (due > now_ns()) sleep_until_ns(due);
      out.push_back(issue(w, (*requests_)[k], k + 1, due));
    }
  });
}

}  // namespace swalabench
