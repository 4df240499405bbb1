#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

// Every socket is close-on-exec from the call that creates it: a CGI that
// another thread spawns in between would otherwise inherit it, and an
// inherited listening socket keeps the port bound after the server dies
// (blocking a crash-restart) and holds client connections open past their
// response.

namespace swala::net {
namespace {

Status errno_status(StatusCode code, const std::string& what) {
  return Status(code, what + ": " + std::strerror(errno));
}

Result<sockaddr_in> make_sockaddr(const InetAddress& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    return Status(StatusCode::kInvalidArgument,
                  "bad IPv4 address: " + addr.host);
  }
  return sa;
}

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status set_fd_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return errno_status(StatusCode::kIoError, "F_GETFL");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) != 0) {
    return errno_status(StatusCode::kIoError, "F_SETFL");
  }
  return Status::ok();
}

}  // namespace

bool wait_readable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  // EINTR must not restart the full timeout: repeated signals would extend
  // the wait unboundedly (and blow through request deadlines). Recompute
  // the remaining time from a monotonic start before every re-poll.
  const std::int64_t start = timeout_ms >= 0 ? steady_now_ms() : 0;
  int remaining = timeout_ms;
  for (;;) {
    const int rc = ::poll(&pfd, 1, remaining);
    if (rc > 0) return (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
    if (timeout_ms >= 0) {
      const std::int64_t elapsed = steady_now_ms() - start;
      if (elapsed >= timeout_ms) return false;
      remaining = static_cast<int>(timeout_ms - elapsed);
    }
  }
}

Result<TcpStream> TcpStream::connect(const InetAddress& addr, int timeout_ms) {
  auto sa = make_sockaddr(addr);
  if (!sa) return sa.status();

  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return errno_status(StatusCode::kIoError, "socket");

  if (timeout_ms <= 0) {
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa.value()),
                  sizeof(sockaddr_in)) != 0) {
      return errno_status(StatusCode::kUnavailable, "connect " + addr.to_string());
    }
    return TcpStream(std::move(fd));
  }

  // Non-blocking connect with poll-based timeout.
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa.value()),
                     sizeof(sockaddr_in));
  if (rc != 0 && errno != EINPROGRESS) {
    return errno_status(StatusCode::kUnavailable, "connect " + addr.to_string());
  }
  if (rc != 0) {
    pollfd pfd{fd.get(), POLLOUT, 0};
    // Same EINTR discipline as wait_readable: re-poll with the remaining
    // time, never the full original timeout.
    const std::int64_t start = steady_now_ms();
    int remaining = timeout_ms;
    for (;;) {
      rc = ::poll(&pfd, 1, remaining);
      if (rc > 0) break;
      if (rc == 0) {
        return Status(StatusCode::kTimeout,
                      "connect timeout to " + addr.to_string());
      }
      if (errno != EINTR) return errno_status(StatusCode::kIoError, "poll");
      const std::int64_t elapsed = steady_now_ms() - start;
      if (elapsed >= timeout_ms) {
        return Status(StatusCode::kTimeout,
                      "connect timeout to " + addr.to_string());
      }
      remaining = static_cast<int>(timeout_ms - elapsed);
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      errno = err;
      return errno_status(StatusCode::kUnavailable, "connect " + addr.to_string());
    }
  }
  ::fcntl(fd.get(), F_SETFL, flags);  // back to blocking
  return TcpStream(std::move(fd));
}

Status TcpStream::set_no_delay(bool on) {
  const int v = on ? 1 : 0;
  if (::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v)) != 0) {
    return errno_status(StatusCode::kIoError, "TCP_NODELAY");
  }
  return Status::ok();
}

namespace {
Status set_timeout(int fd, int optname, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  if (::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv)) != 0) {
    return errno_status(StatusCode::kIoError, "SO_*TIMEO");
  }
  return Status::ok();
}
}  // namespace

Status TcpStream::set_recv_timeout(int timeout_ms) {
  return apply_timeout(SO_RCVTIMEO, timeout_ms, &recv_timeout_ms_,
                       &recv_timeout_applied_);
}

Status TcpStream::set_send_timeout(int timeout_ms) {
  return apply_timeout(SO_SNDTIMEO, timeout_ms, &send_timeout_ms_,
                       &send_timeout_applied_);
}

Status TcpStream::apply_timeout(int optname, int timeout_ms, int* current_ms,
                                bool* applied) {
  // 0 = unlimited, matching Deadline's "0 disables" idiom. Negative values
  // are clamped to unlimited as well: a negative timeval is EINVAL on Linux
  // and a silent sign-wrapped tv_sec elsewhere, neither of which anyone
  // asked for.
  if (timeout_ms < 0) timeout_ms = 0;
  // The hit path re-arms the same budget on every request; the kernel
  // already holds it, so skip the syscall. The first call on a stream
  // always reaches the kernel (an accepted socket may inherit the
  // listener's timeouts).
  if (*applied && *current_ms == timeout_ms) return Status::ok();
  *current_ms = timeout_ms;
  Status st = set_timeout(fd_.get(), optname, timeout_ms);
  *applied = st.is_ok();
  return st;
}

Status TcpStream::set_nonblocking(bool on) {
  return set_fd_nonblocking(fd_.get(), on);
}

Result<std::size_t> TcpStream::read_some(char* buf, std::size_t len) {
  // SO_RCVTIMEO restarts in full on every recv() call, so an EINTR retry
  // loop alone would let a signal storm stretch one logical read far past
  // its budget. Bound the total against the configured timeout.
  const std::int64_t start = recv_timeout_ms_ > 0 ? steady_now_ms() : 0;
  for (;;) {
    const ssize_t n = ::recv(fd_.get(), buf, len, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) {
      if (recv_timeout_ms_ > 0 &&
          steady_now_ms() - start >= recv_timeout_ms_) {
        return Status(StatusCode::kTimeout, "recv timeout");
      }
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status(StatusCode::kTimeout, "recv timeout");
    }
    if (errno == ECONNRESET || errno == EPIPE) {
      return Status(StatusCode::kClosed, "connection reset by peer");
    }
    return errno_status(StatusCode::kIoError, "recv");
  }
}

Result<std::size_t> TcpStream::read_nb(char* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::recv(fd_.get(), buf, len, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status(StatusCode::kWouldBlock, "read would block");
    }
    if (errno == ECONNRESET || errno == EPIPE) {
      return Status(StatusCode::kClosed, "connection reset by peer");
    }
    return errno_status(StatusCode::kIoError, "recv");
  }
}

Status TcpStream::read_exact(char* buf, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    auto n = read_some(buf + got, len - got);
    if (!n) return n.status();
    if (n.value() == 0) {
      return Status(StatusCode::kClosed, "peer closed during read_exact");
    }
    got += n.value();
  }
  return Status::ok();
}

Status TcpStream::write_all(std::string_view data) {
  const std::int64_t start = send_timeout_ms_ > 0 ? steady_now_ms() : 0;
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_.get(), data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        // Same EINTR audit as read_some: SO_SNDTIMEO restarts per call.
        if (send_timeout_ms_ > 0 &&
            steady_now_ms() - start >= send_timeout_ms_) {
          return Status(StatusCode::kTimeout, "send timeout");
        }
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status(StatusCode::kTimeout, "send timeout");
      }
      if (errno == ECONNRESET || errno == EPIPE) {
        return Status(StatusCode::kClosed, "connection reset by peer");
      }
      return errno_status(StatusCode::kIoError, "send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Status TcpStream::write_vec(std::string_view head, std::string_view body) {
  // sendmsg rather than writev: writev has no MSG_NOSIGNAL, and a peer
  // reset mid-response must surface as kClosed, not kill the process.
  const std::int64_t start = send_timeout_ms_ > 0 ? steady_now_ms() : 0;
  iovec iov[2];
  iov[0] = {const_cast<char*>(head.data()), head.size()};
  iov[1] = {const_cast<char*>(body.data()), body.size()};
  std::size_t idx = head.empty() ? 1 : 0;
  std::size_t count = 2;
  if (body.empty()) count = 1;
  while (idx < count) {
    msghdr msg{};
    msg.msg_iov = &iov[idx];
    msg.msg_iovlen = count - idx;
    const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        if (send_timeout_ms_ > 0 &&
            steady_now_ms() - start >= send_timeout_ms_) {
          return Status(StatusCode::kTimeout, "send timeout");
        }
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status(StatusCode::kTimeout, "send timeout");
      }
      if (errno == ECONNRESET || errno == EPIPE) {
        return Status(StatusCode::kClosed, "connection reset by peer");
      }
      return errno_status(StatusCode::kIoError, "sendmsg");
    }
    // Advance the iovecs past the bytes the kernel took (partial writes
    // happen under send timeouts and small socket buffers).
    std::size_t taken = static_cast<std::size_t>(n);
    while (idx < count && taken >= iov[idx].iov_len) {
      taken -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < count && taken > 0) {
      iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + taken;
      iov[idx].iov_len -= taken;
    }
  }
  return Status::ok();
}

Result<std::size_t> TcpStream::write_some_vec(std::string_view head,
                                              std::string_view body) {
  iovec iov[2];
  std::size_t count = 0;
  if (!head.empty()) {
    iov[count++] = {const_cast<char*>(head.data()), head.size()};
  }
  if (!body.empty()) {
    iov[count++] = {const_cast<char*>(body.data()), body.size()};
  }
  if (count == 0) return std::size_t{0};
  for (;;) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status(StatusCode::kWouldBlock, "write would block");
    }
    if (errno == ECONNRESET || errno == EPIPE) {
      return Status(StatusCode::kClosed, "connection reset by peer");
    }
    return errno_status(StatusCode::kIoError, "sendmsg");
  }
}

Status TcpStream::shutdown_write() {
  if (::shutdown(fd_.get(), SHUT_WR) != 0) {
    return errno_status(StatusCode::kIoError, "shutdown");
  }
  return Status::ok();
}

Result<TcpListener> TcpListener::listen(const InetAddress& addr, int backlog) {
  auto sa = make_sockaddr(addr);
  if (!sa) return sa.status();

  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return errno_status(StatusCode::kIoError, "socket");

  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa.value()),
             sizeof(sockaddr_in)) != 0) {
    return errno_status(StatusCode::kIoError, "bind " + addr.to_string());
  }
  if (::listen(fd.get(), backlog) != 0) {
    return errno_status(StatusCode::kIoError, "listen");
  }

  TcpListener listener;
  // Discover the actual port (needed when binding port 0).
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return errno_status(StatusCode::kIoError, "getsockname");
  }
  listener.port_ = ntohs(bound.sin_port);
  listener.fd_ = std::move(fd);
  return listener;
}

Result<TcpStream> TcpListener::accept(int timeout_ms) {
  if (!fd_.valid()) return Status(StatusCode::kClosed, "listener closed");
  if (timeout_ms >= 0 && !wait_readable(fd_.get(), timeout_ms)) {
    return Status(StatusCode::kTimeout, "accept timeout");
  }
  for (;;) {
    const int client = ::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (client >= 0) return TcpStream(UniqueFd(client));
    if (errno == EINTR) continue;
    if (errno == EBADF || errno == EINVAL) {
      return Status(StatusCode::kClosed, "listener closed");
    }
    return errno_status(StatusCode::kIoError, "accept");
  }
}

Result<TcpStream> TcpListener::try_accept() {
  if (!fd_.valid()) return Status(StatusCode::kClosed, "listener closed");
  for (;;) {
    const int client =
        ::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (client >= 0) return TcpStream(UniqueFd(client));
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status(StatusCode::kWouldBlock, "no pending connection");
    }
    if (errno == EBADF || errno == EINVAL) {
      return Status(StatusCode::kClosed, "listener closed");
    }
    return errno_status(StatusCode::kIoError, "accept");
  }
}

Status TcpListener::set_nonblocking(bool on) {
  return set_fd_nonblocking(fd_.get(), on);
}

}  // namespace swala::net
