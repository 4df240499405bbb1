// Tests of the benchmark's own machinery: self-time arithmetic, seeded
// request generation, and open-loop due-time accounting against a fake
// server that stalls.
#include <arpa/inet.h>
#include <atomic>
#include <netinet/in.h>
#include <set>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "requests.h"
#include "spans.h"

namespace swalabench {
namespace {

TEST(SelfTime, NoChildrenIsWholeSpan) {
  EXPECT_EQ(self_time_ns({100, 400}, {}), 300);
}

TEST(SelfTime, DisjointChildrenAreSubtracted) {
  EXPECT_EQ(self_time_ns({0, 1000}, {{100, 200}, {500, 800}}), 600);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // [100,300) and [200,400) cover [100,400): 300 ns, in either order.
  EXPECT_EQ(self_time_ns({0, 1000}, {{200, 400}, {100, 300}}), 700);
  EXPECT_EQ(self_time_ns({0, 1000}, {{100, 900}, {200, 300}}), 200);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(self_time_ns({100, 200}, {{0, 150}}), 50);
  EXPECT_EQ(self_time_ns({100, 200}, {{150, 500}}), 50);
  EXPECT_EQ(self_time_ns({100, 200}, {{300, 400}}), 100);
  EXPECT_EQ(self_time_ns({100, 200}, {{0, 500}}), 0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile({}, 50), 0);
}

bool same_sequence(const std::vector<Request>& a, const std::vector<Request>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].target != b[i].target || a[i].node != b[i].node || a[i].kind != b[i].kind) {
      return false;
    }
  }
  return true;
}

TEST(Requests, SameSeedSameSequenceOtherSeedDiffers) {
  for (const auto& name : workload_names()) {
    const WorkloadSpec* w = find_workload(name);
    ASSERT_NE(w, nullptr);
    const auto a = make_requests(*w, 7, 2000);
    const auto b = make_requests(*w, 7, 2000);
    const auto c = make_requests(*w, 8, 2000);
    ASSERT_EQ(a.size(), 2000u) << name;
    EXPECT_TRUE(same_sequence(a, b)) << name;
    EXPECT_FALSE(same_sequence(a, c)) << name;
    EXPECT_TRUE(same_sequence(warmup_requests(*w, a, 7), warmup_requests(*w, b, 7))) << name;
  }
}

TEST(Requests, WorkloadShapes) {
  const auto miss = make_requests(*find_workload("cgi-miss"), 3, 5000);
  std::set<std::string> distinct;
  for (const auto& r : miss) {
    EXPECT_EQ(r.kind, Kind::kCgi);
    EXPECT_EQ(r.node, 0);
    distinct.insert(r.target);
  }
  EXPECT_GT(distinct.size(), 4900u);  // a cold stream: almost no repeats

  const auto hit = make_requests(*find_workload("hit-cluster"), 3, 5000);
  std::size_t cgi = 0;
  std::set<int> nodes;
  for (const auto& r : hit) {
    cgi += r.kind == Kind::kCgi ? 1 : 0;
    nodes.insert(r.node);
  }
  EXPECT_NEAR(static_cast<double>(cgi) / 5000, 0.413, 0.03);
  EXPECT_EQ(nodes.size(), 3u);

  // expiry-write: the same ADL mix, with 0.1% of CGI draws replaced by
  // invalidations (about 8 in 20000 requests).
  const auto expiry = make_requests(*find_workload("expiry-write"), 3, 20000);
  std::size_t inv = 0;
  for (const auto& r : expiry) inv += r.kind == Kind::kInvalidate ? 1 : 0;
  EXPECT_GT(inv, 0u);
  EXPECT_LT(inv, 30u);
}

TEST(Requests, ExpectedBodyIsDeterministic) {
  const auto a = expected_cgi_body(42, 5000);
  EXPECT_EQ(a.size(), 5000u);
  EXPECT_EQ(a, expected_cgi_body(42, 5000));
  EXPECT_NE(a, expected_cgi_body(43, 5000));
  EXPECT_EQ(a.rfind("adl q=42\n", 0), 0u);
}

/// Single-connection keep-alive HTTP server answering "hello"; request
/// number `stall_at` (0-based) is answered `stall_ms` late.
class StallingServer {
 public:
  StallingServer(int stall_at, int stall_ms) : stall_at_(stall_at), stall_ms_(stall_ms) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(fd_, 8);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~StallingServer() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    thread_.join();
  }
  std::uint16_t port() const { return port_; }

 private:
  void serve() {
    int n = 0;
    while (true) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;
      std::string buf;
      char chunk[4096];
      while (true) {
        const ssize_t got = ::recv(conn, chunk, sizeof chunk, 0);
        if (got <= 0) break;
        buf.append(chunk, static_cast<std::size_t>(got));
        std::size_t end;
        while ((end = buf.find("\r\n\r\n")) != std::string::npos) {
          buf.erase(0, end + 4);
          if (n++ == stall_at_) {
            std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
          }
          static const char kResp[] = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
          ::send(conn, kResp, sizeof kResp - 1, MSG_NOSIGNAL);
        }
      }
      ::close(conn);
    }
  }

  int stall_at_;
  int stall_ms_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(OpenLoop, StallShowsInDueTimeLatencyAndLateness) {
  StallingServer server(/*stall_at=*/20, /*stall_ms=*/300);
  std::vector<Request> requests(400);
  for (auto& r : requests) {
    r.kind = Kind::kStatic;
    r.target = "/f";
  }
  const StaticFiles files = {{"/f", "hello"}};
  LoadOptions lo;
  lo.ports = {server.port()};
  lo.threads = 1;
  LoadGen lg(lo, &requests, &files);
  // 200 req/s for 1 s: request 20 is due at 100 ms; the 300 ms stall holds
  // back the ~60 requests due behind it.
  const auto samples = lg.run_open(200, 1.0);
  ASSERT_GE(samples.size(), 190u);
  std::vector<double> due_ms, service_ms, late_ms;
  std::size_t delayed = 0;
  for (const auto& s : samples) {
    EXPECT_EQ(s.failure, Failure::kNone);
    due_ms.push_back((s.done_ns - s.due_ns) / 1e6);
    service_ms.push_back((s.done_ns - s.send_ns) / 1e6);
    late_ms.push_back((s.send_ns - s.due_ns) / 1e6);
    if ((s.done_ns - s.due_ns) / 1e6 > 100) ++delayed;
  }
  // Timing from the send would show one slow request; timing from the due
  // time shows the whole backlog the stall caused.
  EXPECT_GE(percentile(due_ms, 100), 280);
  EXPECT_GT(delayed, 20u);
  EXPECT_LT(percentile(service_ms, 90), 50);
  EXPECT_GT(percentile(late_ms, 99), 150);  // workload.late_p99_ms sees it
}

TEST(Check, WrongBytesAreFailures) {
  const StaticFiles files = {{"/f", "hello"}};
  std::vector<Request> none;
  LoadGen lg(LoadOptions{}, &none, &files);
  Request cgi;
  cgi.kind = Kind::kCgi;
  cgi.q = 5;
  cgi.bytes = 4096;
  HttpConn::Response resp;
  resp.status = 200;
  resp.body = expected_cgi_body(5, 4096);
  EXPECT_EQ(lg.check(cgi, resp), Failure::kNone);
  resp.body[100] ^= 1;
  EXPECT_EQ(lg.check(cgi, resp), Failure::kBytes);
  resp.status = 503;
  EXPECT_EQ(lg.check(cgi, resp), Failure::kShed);
  Request stat;
  stat.kind = Kind::kStatic;
  stat.target = "/f";
  resp.status = 200;
  resp.body = "hellp";
  EXPECT_EQ(lg.check(stat, resp), Failure::kBytes);
}

}  // namespace
}  // namespace swalabench
