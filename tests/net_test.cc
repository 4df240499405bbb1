// Tests for the socket layer: listener/stream roundtrips, timeouts, EOF
// semantics, partial reads.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "net/socket.h"

namespace swala::net {
namespace {

TEST(TcpTest, EphemeralPortAssigned) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  EXPECT_GT(listener.value().local_port(), 0);
}

TEST(TcpTest, ConnectAcceptRoundtrip) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};

  std::thread client([&] {
    auto stream = TcpStream::connect(addr, 2000);
    ASSERT_TRUE(stream.is_ok()) << stream.status().to_string();
    ASSERT_TRUE(stream.value().write_all("hello").is_ok());
    char buf[16];
    ASSERT_TRUE(stream.value().read_exact(buf, 5).is_ok());
    EXPECT_EQ(std::string(buf, 5), "world");
  });

  auto conn = listener.value().accept(2000);
  ASSERT_TRUE(conn.is_ok()) << conn.status().to_string();
  char buf[16];
  ASSERT_TRUE(conn.value().read_exact(buf, 5).is_ok());
  EXPECT_EQ(std::string(buf, 5), "hello");
  ASSERT_TRUE(conn.value().write_all("world").is_ok());
  client.join();
}

TEST(TcpTest, AcceptTimesOut) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  auto conn = listener.value().accept(/*timeout_ms=*/50);
  ASSERT_FALSE(conn.is_ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kTimeout);
}

TEST(TcpTest, RecvTimeout) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};

  auto client = TcpStream::connect(addr, 2000);
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value().accept(2000);
  ASSERT_TRUE(server.is_ok());

  ASSERT_TRUE(server.value().set_recv_timeout(50).is_ok());
  char buf[8];
  auto n = server.value().read_some(buf, sizeof(buf));
  ASSERT_FALSE(n.is_ok());
  EXPECT_EQ(n.status().code(), StatusCode::kTimeout);
}

TEST(TcpTest, ReadSomeSeesEofAsZero) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};

  auto client = TcpStream::connect(addr, 2000);
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value().accept(2000);
  ASSERT_TRUE(server.is_ok());

  client.value().close();
  char buf[8];
  auto n = server.value().read_some(buf, sizeof(buf));
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 0u);
}

TEST(TcpTest, ReadExactFailsOnEarlyClose) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};

  auto client = TcpStream::connect(addr, 2000);
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value().accept(2000);
  ASSERT_TRUE(server.is_ok());

  ASSERT_TRUE(client.value().write_all("ab").is_ok());
  client.value().close();
  char buf[8];
  auto st = server.value().read_exact(buf, 5);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kClosed);
}

TEST(TcpTest, WriteToResetConnectionIsClosedNotIoError) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};

  auto client = TcpStream::connect(addr, 2000);
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value().accept(2000);
  ASSERT_TRUE(server.is_ok());

  // Force an RST: close with unread data pending (SO_LINGER 0 is not
  // needed — closing a socket with data in the receive queue resets).
  ASSERT_TRUE(client.value().write_all("unread").is_ok());
  server.value().close();

  // First write may succeed (fills the kernel buffer before the RST is
  // seen); keep writing until the peer-gone error surfaces. It must be
  // kClosed — EPIPE/ECONNRESET are "peer is gone", not generic I/O faults.
  Status last = Status::ok();
  for (int i = 0; i < 200 && last.is_ok(); ++i) {
    last = client.value().write_all(std::string(4096, 'x'));
  }
  ASSERT_FALSE(last.is_ok()) << "peer close never surfaced";
  EXPECT_EQ(last.code(), StatusCode::kClosed) << last.to_string();
}

TEST(TcpTest, ReadFromResetConnectionIsClosedNotIoError) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};

  auto client = TcpStream::connect(addr, 2000);
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value().accept(2000);
  ASSERT_TRUE(server.is_ok());

  // Close with unread inbound data → RST instead of orderly FIN.
  ASSERT_TRUE(client.value().write_all("x").is_ok());
  ASSERT_TRUE(server.value().write_all("unread-by-client").is_ok());
  client.value().close();

  char buf[64];
  // Drain whatever was buffered; the reset must arrive as kClosed (or an
  // orderly EOF if the kernel raced the close), never kIoError.
  for (int i = 0; i < 10; ++i) {
    auto n = server.value().read_some(buf, sizeof(buf));
    if (n.is_ok()) {
      if (n.value() == 0) return;  // orderly EOF — acceptable
      continue;
    }
    EXPECT_EQ(n.status().code(), StatusCode::kClosed) << n.status().to_string();
    return;
  }
  FAIL() << "neither EOF nor reset surfaced";
}

TEST(TcpTest, ConnectToClosedPortFails) {
  // Bind then immediately close to get a (very likely) dead port.
  std::uint16_t port;
  {
    auto listener = TcpListener::listen({"127.0.0.1", 0});
    ASSERT_TRUE(listener.is_ok());
    port = listener.value().local_port();
  }
  auto stream = TcpStream::connect({"127.0.0.1", port}, 500);
  EXPECT_FALSE(stream.is_ok());
}

TEST(TcpTest, BadAddressRejected) {
  auto stream = TcpStream::connect({"not-an-ip", 80}, 100);
  ASSERT_FALSE(stream.is_ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
}

TEST(TcpTest, LargeTransfer) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};
  const std::string payload(2 * 1024 * 1024, 'z');

  std::thread sender([&] {
    auto stream = TcpStream::connect(addr, 2000);
    ASSERT_TRUE(stream.is_ok());
    ASSERT_TRUE(stream.value().write_all(payload).is_ok());
  });

  auto conn = listener.value().accept(2000);
  ASSERT_TRUE(conn.is_ok());
  std::string received(payload.size(), '\0');
  ASSERT_TRUE(conn.value().read_exact(received.data(), received.size()).is_ok());
  EXPECT_EQ(received, payload);
  sender.join();
}

TEST(UniqueFdTest, MoveTransfersOwnership) {
  UniqueFd a(::dup(0));
  ASSERT_TRUE(a.valid());
  const int raw = a.get();
  UniqueFd b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.get(), raw);
}

TEST(InetAddressTest, ToString) {
  InetAddress addr{"10.0.0.1", 8080};
  EXPECT_EQ(addr.to_string(), "10.0.0.1:8080");
}

// ---------------------------------------------------------------------------
// EINTR discipline. A handler installed without SA_RESTART makes every
// blocking syscall on the signalled thread return EINTR; the layer must
// resume with the *remaining* time, not restart the full timeout. Under the
// old restart-on-EINTR behaviour a steady signal storm pushed the return
// past the storm's end, so these tests bound total elapsed time.
// ---------------------------------------------------------------------------

void eintr_noop_handler(int) {}

/// Pummels `victim` with SIGUSR1 every few ms until told to stop.
class SignalStorm {
 public:
  explicit SignalStorm(pthread_t victim) : victim_(victim) {
    struct sigaction sa {};
    sa.sa_handler = eintr_noop_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // deliberately no SA_RESTART
    sigaction(SIGUSR1, &sa, &old_);
    storm_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        pthread_kill(victim_, SIGUSR1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  ~SignalStorm() {
    stop_.store(true, std::memory_order_relaxed);
    storm_.join();
    sigaction(SIGUSR1, &old_, nullptr);
  }

 private:
  pthread_t victim_;
  struct sigaction old_ {};
  std::atomic<bool> stop_{false};
  std::thread storm_;
};

TEST(EintrTest, WaitReadableHonorsTotalTimeoutUnderSignalStorm) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};
  auto client = TcpStream::connect(addr, 2000);
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value().accept(2000);
  ASSERT_TRUE(server.is_ok());

  SignalStorm storm(pthread_self());
  const auto start = std::chrono::steady_clock::now();
  // Nothing is ever written, so this must time out — after ~300 ms, not
  // after the storm ends (a signal lands every 20 ms, so restarting the
  // full timeout on each EINTR would keep this polling forever).
  EXPECT_FALSE(wait_readable(client.value().raw_fd(), 300));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 250);
  EXPECT_LT(elapsed.count(), 1500) << "EINTR restarted the full timeout";
}

TEST(EintrTest, ReadSomeBoundsTotalTimeUnderSignalStorm) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};
  auto client = TcpStream::connect(addr, 2000);
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value().accept(2000);
  ASSERT_TRUE(server.is_ok());
  ASSERT_TRUE(server.value().set_recv_timeout(300).is_ok());

  SignalStorm storm(pthread_self());
  const auto start = std::chrono::steady_clock::now();
  char buf[8];
  auto n = server.value().read_some(buf, sizeof(buf));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(n.is_ok());
  EXPECT_EQ(n.status().code(), StatusCode::kTimeout);
  EXPECT_GE(elapsed.count(), 250);
  EXPECT_LT(elapsed.count(), 1500)
      << "SO_RCVTIMEO restarts per recv; the wrapper must bound the total";
}

TEST(EintrTest, ConnectTimeoutSurvivesSignalStorm) {
  // A listener whose accept queue is full drops further SYNs, so the next
  // connect() blocks in retransmission until its timeout.
  auto listener = TcpListener::listen({"127.0.0.1", 0}, /*backlog=*/1);
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};
  std::vector<TcpStream> fillers;
  for (int i = 0; i < 8; ++i) {
    auto filler = TcpStream::connect(addr, 200);
    if (!filler.is_ok()) break;  // queue full — exactly the state we want
    fillers.push_back(std::move(filler.value()));
  }

  SignalStorm storm(pthread_self());
  const auto start = std::chrono::steady_clock::now();
  auto stream = TcpStream::connect(addr, 300);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_FALSE(stream.is_ok());
  EXPECT_LT(elapsed.count(), 1500)
      << "EINTR restarted connect's full timeout";
}

TEST(TimeoutClampTest, NegativeTimeoutMeansUnlimitedNotGarbage) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};
  auto client = TcpStream::connect(addr, 2000);
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value().accept(2000);
  ASSERT_TRUE(server.is_ok());

  // Negative clamps to 0 = unlimited (consistent with Deadline); the old
  // code fed the raw value into timeval where it could truncate into a
  // sub-second timeout or fail outright.
  ASSERT_TRUE(server.value().set_recv_timeout(-7).is_ok());
  ASSERT_TRUE(server.value().set_send_timeout(-7).is_ok());
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_TRUE(client.value().write_all("late").is_ok());
  });
  char buf[8];
  auto n = server.value().read_some(buf, sizeof(buf));
  writer.join();
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(n.value(), 4u);
}

int kernel_timeout_ms(int fd, int optname) {
  timeval tv{};
  socklen_t len = sizeof(tv);
  if (::getsockopt(fd, SOL_SOCKET, optname, &tv, &len) != 0) return -1;
  return static_cast<int>(tv.tv_sec * 1000 + tv.tv_usec / 1000);
}

TEST(TimeoutClampTest, RepeatedTimeoutSkipsSyscallButNeverHidesChange) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};
  auto client = TcpStream::connect(addr, 2000);
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value().accept(2000);
  ASSERT_TRUE(server.is_ok());
  const int fd = server.value().raw_fd();

  // The first call on a stream always reaches the kernel, even for the
  // value the stream starts out assuming (0 = unlimited).
  const timeval preset{0, 50 * 1000};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &preset, sizeof(preset)),
            0);
  ASSERT_TRUE(server.value().set_recv_timeout(0).is_ok());
  EXPECT_EQ(kernel_timeout_ms(fd, SO_RCVTIMEO), 0);

  ASSERT_TRUE(server.value().set_recv_timeout(2000).is_ok());
  ASSERT_TRUE(server.value().set_recv_timeout(2000).is_ok());
  EXPECT_EQ(kernel_timeout_ms(fd, SO_RCVTIMEO), 2000);
  ASSERT_TRUE(server.value().set_recv_timeout(100).is_ok());
  EXPECT_EQ(kernel_timeout_ms(fd, SO_RCVTIMEO), 100);

  const auto start = std::chrono::steady_clock::now();
  char buf[8];
  auto n = server.value().read_some(buf, sizeof(buf));
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(n.is_ok());
  EXPECT_EQ(n.status().code(), StatusCode::kTimeout);
  EXPECT_GE(waited.count(), 80);
  EXPECT_LT(waited.count(), 1000) << "the shorter timeout never took effect";

  ASSERT_TRUE(server.value().set_send_timeout(300).is_ok());
  ASSERT_TRUE(server.value().set_send_timeout(300).is_ok());
  EXPECT_EQ(kernel_timeout_ms(fd, SO_SNDTIMEO), 300);
  ASSERT_TRUE(server.value().set_send_timeout(0).is_ok());
  EXPECT_EQ(kernel_timeout_ms(fd, SO_SNDTIMEO), 0);
}

TEST(TimeoutClampTest, HugeTimeoutDoesNotOverflowTimeval) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};
  auto client = TcpStream::connect(addr, 2000);
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value().accept(2000);
  ASSERT_TRUE(server.is_ok());

  // INT_MAX ms is ~24.8 days; the seconds/microseconds split must not
  // truncate through a narrower field and wrap into "immediate timeout".
  ASSERT_TRUE(server.value()
                  .set_recv_timeout(std::numeric_limits<int>::max())
                  .is_ok());
  ASSERT_TRUE(client.value().write_all("ok").is_ok());
  char buf[8];
  auto n = server.value().read_some(buf, sizeof(buf));
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 2u);
}

TEST(NonBlockingTest, ReadNbReportsWouldBlockThenData) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  const InetAddress addr{"127.0.0.1", listener.value().local_port()};
  auto client = TcpStream::connect(addr, 2000);
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value().accept(2000);
  ASSERT_TRUE(server.is_ok());
  ASSERT_TRUE(server.value().set_nonblocking(true).is_ok());

  char buf[8];
  auto n = server.value().read_nb(buf, sizeof(buf));
  ASSERT_FALSE(n.is_ok());
  EXPECT_EQ(n.status().code(), StatusCode::kWouldBlock);

  ASSERT_TRUE(client.value().write_all("now").is_ok());
  ASSERT_TRUE(wait_readable(server.value().raw_fd(), 2000));
  n = server.value().read_nb(buf, sizeof(buf));
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 3u);
}

TEST(NonBlockingTest, TryAcceptReportsWouldBlockThenConnection) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  ASSERT_TRUE(listener.value().set_nonblocking(true).is_ok());

  auto none = listener.value().try_accept();
  ASSERT_FALSE(none.is_ok());
  EXPECT_EQ(none.status().code(), StatusCode::kWouldBlock);

  const InetAddress addr{"127.0.0.1", listener.value().local_port()};
  auto client = TcpStream::connect(addr, 2000);
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(wait_readable(listener.value().raw_fd(), 2000));
  auto conn = listener.value().try_accept();
  ASSERT_TRUE(conn.is_ok()) << conn.status().to_string();
}

}  // namespace
}  // namespace swala::net
