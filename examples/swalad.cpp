// swalad — the deployable Swala daemon.
//
// Reads an INI configuration (see examples/swala.conf), mounts every
// executable found in the configured cgi-bin directory as a fork/exec CGI
// program, and serves until SIGINT/SIGTERM. Multi-node groups are declared
// in the [cluster] section; run one swalad per node.
//
//   ./swalad examples/swala.conf
//   ./swalad examples/swala.conf --selftest   # start, self-probe, exit
//
// Signals are handled via a self-pipe so shutdown is clean (daemons joined,
// cache files removed).
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "cgi/process.h"
#include "cgi/registry.h"
#include "http/client.h"
#include "server/node.h"

using namespace swala;

namespace {

int g_signal_pipe[2] = {-1, -1};

// One byte per signal, distinct per intent: 'D' asks for a graceful
// decommission (hand cached state to the cluster before leaving), anything
// else is a plain drain-and-exit.
void on_signal(int signo) {
  const char byte = signo == SIGUSR2 ? 'D' : 'T';
  ssize_t rc = ::write(g_signal_pipe[1], &byte, 1);
  (void)rc;
}

/// Mounts every executable regular file in `dir` at `/cgi-bin/<name>`.
std::size_t mount_cgi_dir(cgi::HandlerRegistry& registry,
                          const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return 0;
  std::size_t mounted = 0;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode) ||
        (st.st_mode & S_IXUSR) == 0) {
      continue;
    }
    registry.mount("/cgi-bin/" + name, std::make_shared<cgi::ProcessCgi>(path));
    std::printf("  mounted /cgi-bin/%s -> %s\n", name.c_str(), path.c_str());
    ++mounted;
  }
  ::closedir(handle);
  return mounted;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <config.ini> [--selftest]\n", argv[0]);
    return 2;
  }
  const bool selftest = argc > 2 && std::strcmp(argv[2], "--selftest") == 0;

  auto config = Config::load(argv[1]);
  if (!config) {
    std::fprintf(stderr, "config error: %s\n",
                 config.status().to_string().c_str());
    return 1;
  }

  auto registry = std::make_shared<cgi::HandlerRegistry>();
  const std::string cgi_dir =
      config.value().get_string("server", "cgi_dir", "");
  if (!cgi_dir.empty()) {
    std::printf("scanning CGI directory %s:\n", cgi_dir.c_str());
    mount_cgi_dir(*registry, cgi_dir);
  }

  auto node = server::SwalaNode::from_config(config.value(), registry);
  if (!node) {
    std::fprintf(stderr, "configuration rejected: %s\n",
                 node.status().to_string().c_str());
    return 1;
  }
  if (auto st = node.value()->start(); !st.is_ok()) {
    std::fprintf(stderr, "startup failed: %s\n", st.to_string().c_str());
    return 1;
  }
  std::printf("swalad serving on 127.0.0.1:%u (cache %s)\n",
              node.value()->http().port(),
              node.value()->cache() != nullptr ? "enabled" : "disabled");

  if (selftest) {
    http::HttpClient client(node.value()->http().address());
    auto resp = client.get("/swala-status");
    const bool ok = resp.is_ok() && (resp.value().status == 200 ||
                                     resp.value().status == 404);
    std::printf("selftest: %s\n", ok ? "OK" : "FAILED");
    node.value()->stop();
    return ok ? 0 : 1;
  }

  if (::pipe2(g_signal_pipe, O_CLOEXEC) != 0) return 1;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGUSR2, on_signal);  // graceful decommission, then exit
  char byte = 'T';
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  if (byte == 'D') {
    // Decommission before draining: in-flight requests may still serve
    // cache hits, but every cached entry is already on its way to a
    // successor and peers stop routing to this node.
    std::printf("\ndecommissioning...\n");
    const auto handed = node.value()->decommission();
    std::printf("handed off %zu directory records, %zu entries\n",
                handed.records, handed.entries);
  }
  std::printf("draining...\n");
  // Graceful drain: stop accepting, finish in-flight requests (bounded by
  // server.drain_timeout_ms), then stop() saves the manifest and joins.
  if (!node.value()->drain()) {
    std::printf("drain timed out; closing remaining connections\n");
  }
  // CGI children lead their own process groups, so the signal that stopped
  // this process never reached them; kill those a timed-out drain left.
  cgi::kill_live_process_groups();
  std::printf("shutting down...\n");
  node.value()->stop();
  return 0;
}
