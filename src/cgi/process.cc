#include "cgi/process.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "common/logging.h"
#include "net/fd.h"

namespace swala::cgi {
namespace {

/// Builds the RFC 3875 environment block for a request.
std::vector<std::string> build_env(const http::Request& request,
                                   const std::string& executable,
                                   const ProcessOptions& options) {
  std::vector<std::string> env;
  env.push_back("GATEWAY_INTERFACE=CGI/1.1");
  env.push_back("SERVER_SOFTWARE=swala/1.0");
  env.push_back(std::string("SERVER_PROTOCOL=") +
                http::version_name(request.version));
  env.push_back(std::string("REQUEST_METHOD=") +
                http::method_name(request.method));
  env.push_back("SCRIPT_NAME=" + request.uri.path);
  env.push_back("SCRIPT_FILENAME=" + executable);
  env.push_back("QUERY_STRING=" + request.uri.raw_query);
  if (!request.body.empty()) {
    env.push_back("CONTENT_LENGTH=" + std::to_string(request.body.size()));
    if (const auto ct = request.headers.get("Content-Type")) {
      env.push_back("CONTENT_TYPE=" + std::string(*ct));
    }
  }
  if (const auto host = request.headers.get("Host")) {
    env.push_back("HTTP_HOST=" + std::string(*host));
  }
  env.push_back("PATH=/usr/bin:/bin");
  for (const auto& [key, value] : options.extra_env) {
    env.push_back(key + "=" + value);
  }
  return env;
}

/// Holds SIGPIPE blocked for the calling thread while the request body is
/// written to the child's stdin. A write into a pipe whose reader has exited
/// fails with EPIPE and also queues SIGPIPE for the writing thread; without
/// this guard that signal's default action kills the whole server.
/// `consume()` takes the queued signal back before the mask is restored,
/// unless one was already pending when the guard was made.
class SigpipeGuard {
 public:
  SigpipeGuard() {
    sigemptyset(&pipe_set_);
    sigaddset(&pipe_set_, SIGPIPE);
    sigset_t pending;
    sigemptyset(&pending);
    ::sigpending(&pending);
    was_pending_ = sigismember(&pending, SIGPIPE) == 1;
    ::pthread_sigmask(SIG_BLOCK, &pipe_set_, &saved_);
  }
  ~SigpipeGuard() { ::pthread_sigmask(SIG_SETMASK, &saved_, nullptr); }
  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;

  void consume() {
    if (was_pending_) return;
    const timespec zero{};
    while (::sigtimedwait(&pipe_set_, nullptr, &zero) < 0 && errno == EINTR) {
    }
  }

 private:
  sigset_t pipe_set_;
  sigset_t saved_;
  bool was_pending_ = false;
};

Status errno_status(StatusCode code, const char* what, int err) {
  return Status(code, std::string(what) + ": " + std::strerror(err));
}

/// Process groups of the CGI children not yet reaped. A group id is the
/// leader's pid, which cannot be reused while the leader is unreaped, so a
/// registered id always names this process's own CGI.
std::mutex g_groups_mutex;
std::unordered_set<pid_t> g_live_groups;

}  // namespace

std::size_t kill_live_process_groups() {
  std::lock_guard<std::mutex> lock(g_groups_mutex);
  for (const pid_t pgid : g_live_groups) ::kill(-pgid, SIGKILL);
  return g_live_groups.size();
}

Result<ProcessResult> run_cgi_process(const std::string& executable,
                                      const http::Request& request,
                                      const ProcessOptions& options) {
  // The child of posix_spawn runs on this process's memory until it execs,
  // so everything it needs is built here, before the spawn.
  const auto env_strings = build_env(request, executable, options);
  std::vector<char*> envp;
  envp.reserve(env_strings.size() + 1);
  for (const auto& e : env_strings) envp.push_back(const_cast<char*>(e.c_str()));
  envp.push_back(nullptr);
  char* argv[] = {const_cast<char*>(executable.c_str()), nullptr};

  // Every end is close-on-exec: the child keeps only the dup2'd copies on
  // fds 0 and 1, and a CGI spawned concurrently by another thread inherits
  // none of them.
  int in_pipe[2];   // parent -> child stdin
  int out_pipe[2];  // child stdout -> parent
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
    return errno_status(StatusCode::kIoError, "pipe2", errno);
  }
  net::UniqueFd child_stdin(in_pipe[1]);
  net::UniqueFd child_in_end(in_pipe[0]);
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    return errno_status(StatusCode::kIoError, "pipe2", errno);
  }
  net::UniqueFd child_stdout(out_pipe[0]);
  net::UniqueFd child_out_end(out_pipe[1]);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  int spawn_rc = posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
  if (spawn_rc == 0) {
    spawn_rc = posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  }

  // The child starts with no signal blocked, and with default SIGPIPE and
  // SIGCHLD even where the server ignores them (ForkingServer ignores
  // SIGCHLD to auto-reap its per-connection children). It leads its own
  // process group, so a kill at the deadline also reaches whatever the
  // script started itself (a `sleep` would otherwise outlive it and hold
  // the output pipe open).
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETSIGMASK | POSIX_SPAWN_SETSIGDEF |
                                      POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);
  sigset_t signals;
  sigemptyset(&signals);
  posix_spawnattr_setsigmask(&attr, &signals);
  sigaddset(&signals, SIGPIPE);
  sigaddset(&signals, SIGCHLD);
  posix_spawnattr_setsigdefault(&attr, &signals);

  pid_t pid = -1;
  if (spawn_rc == 0) {
    spawn_rc = ::posix_spawn(&pid, executable.c_str(), &actions, &attr, argv,
                             envp.data());
  }
  posix_spawn_file_actions_destroy(&actions);
  posix_spawnattr_destroy(&attr);
  child_in_end.reset();
  child_out_end.reset();

  ProcessResult result;
  if (spawn_rc != 0) {
    if (spawn_rc == EAGAIN || spawn_rc == ENOMEM) {
      return errno_status(StatusCode::kResourceExhausted, "posix_spawn", spawn_rc);
    }
    // glibc reports a failed exec (ENOENT, EACCES, ENOEXEC, ...) here rather
    // than through a child that exits; report it as the shell does.
    result.exit_code = 127;
    return result;
  }
  {
    std::lock_guard<std::mutex> lock(g_groups_mutex);
    g_live_groups.insert(pid);
  }

  // The body is written inside the deadline loop, through a non-blocking
  // pipe, so a child that neither reads stdin nor exits is killed at the
  // deadline instead of holding this thread in write().
  std::size_t body_off = 0;
  std::optional<SigpipeGuard> sigpipe_guard;
  if (request.body.empty()) {
    child_stdin.reset();
  } else {
    ::fcntl(child_stdin.get(), F_SETFL, O_NONBLOCK);
    sigpipe_guard.emplace();
  }

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(options.timeout_seconds);
  char buf[64 * 1024];
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      result.timed_out = true;
      break;
    }
    pollfd pfds[2] = {{child_stdout.get(), POLLIN, 0},
                      {child_stdin.get(), POLLOUT, 0}};  // ignored once -1
    const int rc = ::poll(pfds, 2, static_cast<int>(remaining.count()));
    if (rc == 0) {
      result.timed_out = true;
      break;
    }
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[1].revents != 0) {
      const ssize_t n = ::write(child_stdin.get(), request.body.data() + body_off,
                                request.body.size() - body_off);
      if (n >= 0) {
        body_off += static_cast<std::size_t>(n);
        if (body_off == request.body.size()) child_stdin.reset();  // EOF
      } else if (errno != EINTR && errno != EAGAIN) {
        // The child exited or closed stdin without reading it all. Not
        // fatal: its output is still read below.
        if (errno == EPIPE) sigpipe_guard->consume();
        child_stdin.reset();
      }
    }
    if (pfds[0].revents == 0) continue;
    const ssize_t n = ::read(child_stdout.get(), buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // EOF: child closed stdout
    result.stdout_data.append(buf, static_cast<std::size_t>(n));
    if (result.stdout_data.size() > options.max_output_bytes) {
      result.oversized = true;
      break;
    }
  }
  // A child still reading stdin sees EOF rather than waiting on us forever.
  child_stdin.reset();

  if (result.timed_out || result.oversized) ::kill(-pid, SIGKILL);
  {
    std::lock_guard<std::mutex> lock(g_groups_mutex);
    g_live_groups.erase(pid);
  }
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(wstatus)) {
    result.exit_code = WEXITSTATUS(wstatus);
  } else {
    result.exit_code = -1;
  }
  return result;
}

ProcessCgi::ProcessCgi(std::string executable, ProcessOptions options)
    : executable_(std::move(executable)), options_(std::move(options)) {}

Result<CgiOutput> ProcessCgi::run(const http::Request& request) {
  return run(request, Deadline());
}

Result<CgiOutput> ProcessCgi::run(const http::Request& request,
                                  const Deadline& deadline) {
  ProcessOptions effective = options_;
  if (!deadline.unlimited()) {
    effective.timeout_seconds =
        std::min(effective.timeout_seconds,
                 std::max(0.001, deadline.remaining_seconds()));
  }
  auto result = run_cgi_process(executable_, request, effective);
  if (!result) return result.status();
  const auto& proc = result.value();
  if (proc.timed_out) {
    CgiOutput out;
    out.success = false;
    out.http_status = 504;
    out.body = "CGI timeout\n";
    return out;
  }
  if (proc.oversized) {
    CgiOutput out;
    out.success = false;
    out.http_status = 500;
    out.body = "CGI output exceeded limit\n";
    return out;
  }
  return parse_cgi_document(proc.stdout_data, proc.exit_code);
}

}  // namespace swala::cgi
