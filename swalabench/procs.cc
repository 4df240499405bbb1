#include "procs.h"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <ftw.h>
#include <netinet/in.h>
#include <pthread.h>
#include <random>
#include <sched.h>
#include <set>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "loadgen.h"
#include "spans.h"

namespace swalabench {
namespace {

// ---- child registry (read by signal handlers: fixed-size, lock-free) ----
constexpr int kMaxChildren = 64;
volatile sig_atomic_t g_children[kMaxChildren];

void register_child(pid_t pid) {
  for (auto& slot : g_children) {
    if (slot == 0) {
      slot = pid;
      return;
    }
  }
}

void unregister_child(pid_t pid) {
  for (auto& slot : g_children) {
    if (slot == pid) slot = 0;
  }
}

void sleep_ms(int ms) {
  timespec ts{ms / 1000, static_cast<long>(ms % 1000) * 1000000L};
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

/// SIGTERM, a bounded wait, then SIGKILL and reap. Async-signal-safe.
void terminate_children(int grace_ms) {
  for (const auto pid : g_children) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  for (int waited = 0; waited <= grace_ms; waited += 10) {
    bool any = false;
    for (auto& slot : g_children) {
      if (slot <= 0) continue;
      if (::waitpid(slot, nullptr, WNOHANG) != 0) {
        slot = 0;
      } else {
        any = true;
      }
    }
    if (!any) return;
    sleep_ms(10);
  }
  for (auto& slot : g_children) {
    if (slot <= 0) continue;
    ::kill(slot, SIGKILL);
    ::waitpid(slot, nullptr, 0);
    slot = 0;
  }
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

void on_fatal_signal(int signo) {
  terminate_children(2000);
  ::_exit(signo == SIGALRM ? 4 : 3);
}

bool read_file(const std::string& path, std::string* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[8192];
  std::size_t n = 0;
  out->clear();
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

NodeStatus parse_status(const std::string& body) {
  NodeStatus st;
  std::size_t pos = 0;
  while ((pos = body.find('"', pos)) != std::string::npos) {
    const std::size_t end = body.find('"', pos + 1);
    if (end == std::string::npos) break;
    const std::string key = body.substr(pos + 1, end - pos - 1);
    pos = end + 1;
    if (body.compare(pos, 2, ": ") != 0) continue;
    const std::size_t v = pos + 2;
    if (v < body.size() && body[v] >= '0' && body[v] <= '9') {
      st.values[key] = std::strtod(body.c_str() + v, nullptr);
    } else if (key == "state" && v < body.size() && body[v] == '"') {
      ++st.peers;
      if (body.compare(v, 9, "\"healthy\"") == 0) ++st.peers_healthy;
    }
  }
  return st;
}

bool fetch_status(std::uint16_t port, NodeStatus* out) {
  HttpConn conn(port, 2000);
  HttpConn::Response resp;
  if (conn.get("/swala-status", false, 0, &resp) != Failure::kNone ||
      resp.status != 200) {
    return false;
  }
  *out = parse_status(resp.body);
  return true;
}

Cluster::Cluster(const WorkloadSpec& w, std::string bin_dir, std::string root,
                 bool traced, int generation)
    : w_(w),
      bin_dir_(std::move(bin_dir)),
      root_(std::move(root)),
      traced_(traced),
      generation_(generation) {}

Cluster::~Cluster() { stop(); }

std::string Cluster::write_config(std::size_t i) const {
  const NodeProc& n = nodes_[i];
  std::string c;
  c += "[server]\nhost = 127.0.0.1\nport = " + std::to_string(n.http_port) + "\n";
  c += "docroot = " + root_ + "/www\n";
  c += "cgi_dir = " + root_ + "/cgi-bin\n";
  c += "admin = true\n";
  c += "\n[cache]\n";
  c += "disk_dir = " + n.dir + "/cache\n";
  c += "state_file = " + n.dir + "/cache/state.manifest\n";
  c += "store = " + w_.store + "\n";
  if (w_.store == "volume") c += "volume_bytes = 67108864\n";
  c += "\n[cacheability]\n";
  c += "rule = /cgi-bin/* cache ttl=" + fmt_double(w_.ttl_seconds) +
       " min_exec=" + fmt_double(1.0 * kCostScale) + "\n";
  c += "default = nocache\n";
  if (nodes_.size() > 1) {
    c += "\n[cluster]\nnode_id = " + std::to_string(i) + "\n";
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      c += "member = " + std::to_string(j) + " 127.0.0.1 " +
           std::to_string(nodes_[j].info_port) + " " +
           std::to_string(nodes_[j].data_port) + "\n";
    }
    c += "directory_mode = " + w_.directory_mode + "\n";
  }
  const std::string path = n.dir + "/node.conf";
  return write_file(path, c) ? path : std::string();
}

double Cluster::start(double timeout_seconds) {
  nodes_.assign(static_cast<std::size_t>(w_.nodes), NodeProc{});
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto& n = nodes_[i];
    n.dir = root_ + "/gen" + std::to_string(generation_) + "-node" + std::to_string(i);
    if (!make_dir(n.dir)) return -1;
    n.http_port = free_port();
    if (w_.nodes > 1) {
      n.info_port = free_port();
      n.data_port = free_port();
    }
    if (n.http_port == 0 || (w_.nodes > 1 && (n.info_port == 0 || n.data_port == 0))) {
      return -1;
    }
  }
  std::vector<std::string> configs;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    configs.push_back(write_config(i));
    if (configs.back().empty()) return -1;
  }

  const std::int64_t t0 = now_ns();
  const pid_t parent = ::getpid();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto& n = nodes_[i];
    const std::string bin = bin_dir_ + (traced_ ? "/trace_node" : "/swalad");
    const std::string spans = n.dir + "/trace";
    const std::string index = std::to_string(i);
    const std::string log = n.dir + "/log";
    const pid_t pid = ::fork();
    if (pid < 0) return -1;
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      if (::chdir(n.dir.c_str()) != 0) ::_exit(127);
      if (traced_) {
        ::execl(bin.c_str(), bin.c_str(), configs[i].c_str(), spans.c_str(),
                index.c_str(), static_cast<char*>(nullptr));
      } else {
        ::execl(bin.c_str(), bin.c_str(), configs[i].c_str(),
                static_cast<char*>(nullptr));
      }
      ::_exit(127);
    }
    n.pid = pid;
    register_child(pid);
  }

  const std::int64_t limit = t0 + static_cast<std::int64_t>(timeout_seconds * 1e9);
  std::vector<bool> ready(nodes_.size(), false);
  std::size_t remaining = nodes_.size();
  while (remaining > 0) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (ready[i]) continue;
      int wstatus = 0;
      if (::waitpid(nodes_[i].pid, &wstatus, WNOHANG) == nodes_[i].pid) {
        std::fprintf(stderr, "node %zu exited during start-up (see %s/log)\n",
                     i, nodes_[i].dir.c_str());
        unregister_child(nodes_[i].pid);
        nodes_[i].pid = -1;
        return -1;
      }
      NodeStatus st;
      if (fetch_status(nodes_[i].http_port, &st) &&
          st.peers == w_.nodes - 1 && st.peers_healthy == st.peers) {
        ready[i] = true;
        --remaining;
      }
    }
    if (remaining == 0) break;
    if (now_ns() > limit) {
      std::fprintf(stderr, "cluster not ready after %.1f s\n", timeout_seconds);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

void Cluster::stop(double grace_seconds) {
  for (const auto& n : nodes_) {
    if (n.pid > 0) ::kill(n.pid, SIGTERM);
  }
  const std::int64_t limit = now_ns() + static_cast<std::int64_t>(grace_seconds * 1e9);
  for (auto& n : nodes_) {
    if (n.pid <= 0) continue;
    while (::waitpid(n.pid, nullptr, WNOHANG) == 0) {
      if (now_ns() > limit) {
        ::kill(n.pid, SIGKILL);
        ::waitpid(n.pid, nullptr, 0);
        break;
      }
      sleep_ms(5);
    }
    unregister_child(n.pid);
    n.pid = -1;
  }
}

void Cluster::mark() {
  for (const auto& n : nodes_) {
    if (n.pid > 0) ::kill(n.pid, SIGUSR1);
  }
}

std::vector<std::uint16_t> Cluster::http_ports() const {
  std::vector<std::uint16_t> ports;
  for (const auto& n : nodes_) ports.push_back(n.http_port);
  return ports;
}

std::vector<std::uint16_t> Cluster::all_ports() const {
  std::vector<std::uint16_t> ports;
  for (const auto& n : nodes_) {
    for (const auto p : {n.http_port, n.info_port, n.data_port}) {
      if (p != 0) ports.push_back(p);
    }
  }
  return ports;
}

double Cluster::cpu_seconds() const {
  static const double kTicks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  double total = 0;
  for (const auto& n : nodes_) {
    std::string stat;
    if (n.pid <= 0 || !read_file("/proc/" + std::to_string(n.pid) + "/stat", &stat)) {
      continue;
    }
    // Fields after the parenthesised command, counted from 1 at state
    // (field 3 of proc(5)): utime 12, stime 13, cutime 14 (reaped CGI
    // children), cstime 15.
    const auto close = stat.rfind(')');
    if (close == std::string::npos) continue;
    double fields[16] = {};
    const char* p = stat.c_str() + close + 1;
    for (int f = 1; f <= 15 && p != nullptr; ++f) {
      while (*p == ' ') ++p;
      fields[f] = std::strtod(p, nullptr);
      p = std::strchr(p, ' ');
    }
    total += (fields[12] + fields[13] + fields[14] + fields[15]) / kTicks;
  }
  return total;
}

double Cluster::peak_rss_mb() const {
  double peak = 0;
  for (const auto& n : nodes_) {
    std::string status;
    if (n.pid <= 0 ||
        !read_file("/proc/" + std::to_string(n.pid) + "/status", &status)) {
      continue;
    }
    const auto pos = status.find("VmHWM:");
    if (pos == std::string::npos) continue;
    const double kb = std::strtod(status.c_str() + pos + 6, nullptr);
    peak = std::max(peak, kb / 1024.0);
  }
  return peak;
}

void install_cleanup_handlers(unsigned watchdog_seconds) {
  struct sigaction sa{};
  sa.sa_handler = on_fatal_signal;
  sigemptyset(&sa.sa_mask);
  for (const int signo : {SIGINT, SIGTERM, SIGHUP, SIGALRM}) {
    ::sigaction(signo, &sa, nullptr);
  }
  std::signal(SIGPIPE, SIG_IGN);
  ::alarm(watchdog_seconds);
}

bool no_leftovers(const std::vector<std::uint16_t>& ports, std::string* why) {
  const pid_t left = ::waitpid(-1, nullptr, WNOHANG);
  if (left != -1 || errno != ECHILD) {
    *why = "a child process is still running";
    return false;
  }
  for (const auto port : ports) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const bool bound = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    ::close(fd);
    if (!bound) {
      *why = "port " + std::to_string(port) + " is still bound";
      return false;
    }
  }
  return true;
}

std::uint16_t free_port() {
  // Ports come from below the kernel's ephemeral range, so no outgoing
  // connection (the load generator's, the nodes' peer links) can be holding
  // one, and never twice from one process.
  static std::set<std::uint16_t> handed_out;
  static std::mt19937 rng(static_cast<std::uint32_t>(::getpid()) ^
                          static_cast<std::uint32_t>(now_ns()));
  int ephemeral_lo = 32768;
  if (FILE* f = std::fopen("/proc/sys/net/ipv4/ip_local_port_range", "r")) {
    if (std::fscanf(f, "%d", &ephemeral_lo) != 1) ephemeral_lo = 32768;
    std::fclose(f);
  }
  const int lo = 10000;
  const int hi = std::max(lo + 1000, ephemeral_lo) - 1;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const auto port = static_cast<std::uint16_t>(lo + static_cast<int>(rng() % (hi - lo + 1)));
    if (handed_out.count(port) != 0) continue;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    ::close(fd);
    if (ok) {
      handed_out.insert(port);
      return port;
    }
  }
  return 0;
}

IdleSpinners::IdleSpinners() {
  cpu_set_t usable;
  CPU_ZERO(&usable);
  if (::sched_getaffinity(0, sizeof usable, &usable) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &usable)) continue;
    threads_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      const sched_param idle{};
      // Without both, a spinner would compete with the threads it serves.
      if (::pthread_setaffinity_np(::pthread_self(), sizeof one, &one) != 0 ||
          ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &idle) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) cpu_relax();
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_ = true;
  for (auto& t : threads_) t.join();
}

bool make_dir(const std::string& path) {
  return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

void remove_tree(const std::string& path) {
  ::nftw(
      path.c_str(),
      [](const char* p, const struct stat*, int, FTW*) { return ::remove(p); },
      16, FTW_DEPTH | FTW_PHYS);
}

}  // namespace swalabench
