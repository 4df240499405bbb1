// Figure 3 — "Null-CGI request response time comparison."
//
// 24 simultaneous clients repeatedly request the paper's nullcgi (a CGI
// program that does no work, <100 bytes of output) against five
// configurations:
//   Enterprise stand-in (MiniServer + posix_spawn CGI)
//   HTTPd stand-in      (ForkingServer: fork per connection, then
//                        posix_spawn CGI from the forked child)
//   Swala, no cache     (posix_spawn CGI per request)
//   Swala, remote fetch (two nodes; cache warmed on node A, load on node B)
//   Swala, local fetch  (cache warmed and loaded on the same node)
// This measures the process-creation overhead of a CGI call that caching
// eliminates, and the extra cost of a remote vs local cache fetch.
//
// Usage: fig3_nullcgi [path-to-nullcgi]   (defaults to ./nullcgi, then the
// build-tree path compiled in).
#include "bench/bench_util.h"
#include "cgi/process.h"
#include "cgi/registry.h"
#include "cluster/local_cluster.h"
#include "http/client.h"
#include "server/baselines.h"
#include "server/swala_server.h"
#include "workload/webstone.h"

#ifndef SWALA_NULLCGI_PATH
#define SWALA_NULLCGI_PATH "./nullcgi"
#endif

using namespace swala;

namespace {

constexpr int kClients = 24;
constexpr int kRequestsPerClient = 30;

std::shared_ptr<cgi::HandlerRegistry> null_registry(const std::string& path) {
  auto registry = std::make_shared<cgi::HandlerRegistry>();
  registry->mount("/cgi-bin/null", std::make_shared<cgi::ProcessCgi>(path));
  return registry;
}

core::ManagerOptions cache_all(core::NodeId) {
  core::ManagerOptions options;
  options.limits = {100, 0};
  core::RuleDecision rule;
  rule.cacheable = true;  // no min_exec: even the null CGI is cached
  options.rules.add_rule("/cgi-bin/*", rule);
  return options;
}

double drive(const net::InetAddress& addr) {
  workload::LoadOptions options;
  options.clients = kClients;
  options.requests_per_client = kRequestsPerClient;
  options.keep_alive = false;
  auto result = workload::run_load(
      addr, options, [](Rng&, std::size_t) { return "/cgi-bin/null"; });
  return result.latency.mean();
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Figure 3", "null-CGI response time, 24 concurrent clients");
  const std::string nullcgi = argc > 1 ? argv[1] : SWALA_NULLCGI_PATH;

  TablePrinter table({"configuration", "mean response (s)"});

  {  // Enterprise stand-in: threaded server, CGI executed every time.
    server::BaselineOptions options;
    server::MiniServer server(options, null_registry(nullcgi));
    if (!server.start().is_ok()) return 1;
    table.add_row({"Enterprise (threaded, no cache)",
                   fmt_double(drive(server.address()), 5)});
    server.stop();
    std::printf("  Enterprise stand-in done\n");
  }

  {  // HTTPd stand-in: a fork per connection plus a spawn per CGI.
    server::BaselineOptions options;
    server::ForkingServer server(options, null_registry(nullcgi));
    if (!server.start().is_ok()) return 1;
    table.add_row({"HTTPd (forking, no cache)",
                   fmt_double(drive(server.address()), 5)});
    server.stop();
    std::printf("  HTTPd stand-in done\n");
  }

  {  // Swala with caching disabled.
    server::SwalaServerOptions options;
    options.request_threads = 24;
    server::SwalaServer server(options, null_registry(nullcgi), nullptr);
    if (!server.start().is_ok()) return 1;
    table.add_row({"Swala, no cache", fmt_double(drive(server.address()), 5)});
    server.stop();
    std::printf("  Swala no-cache done\n");
  }

  {  // Swala remote fetch: warm node 0, load node 1.
    cluster::LocalCluster cluster(2, cache_all);
    server::SwalaServerOptions options;
    options.request_threads = 24;
    server::SwalaServer node0(options, null_registry(nullcgi),
                              &cluster.manager(0));
    server::SwalaServer node1(options, null_registry(nullcgi),
                              &cluster.manager(1));
    if (!node0.start().is_ok() || !node1.start().is_ok()) return 1;

    http::HttpClient warm(node0.address());
    auto prime = warm.get("/cgi-bin/null");
    if (!prime) return 1;
    // Wait for the insert broadcast to reach node 1.
    for (int i = 0; i < 200; ++i) {
      if (cluster.manager(1).directory().lookup("GET /cgi-bin/null")) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    table.add_row(
        {"Swala, remote cache fetch", fmt_double(drive(node1.address()), 5)});
    const auto stats = cluster.manager(1).stats();
    if (stats.remote_hits < kClients * kRequestsPerClient) {
      std::printf("  (warning: only %llu of %d requests were remote hits)\n",
                  static_cast<unsigned long long>(stats.remote_hits),
                  kClients * kRequestsPerClient);
    }
    node0.stop();
    node1.stop();
    std::printf("  Swala remote-fetch done\n");
  }

  {  // Swala local fetch.
    core::CacheManager manager(0, 1, cache_all(0), RealClock::instance());
    server::SwalaServerOptions options;
    options.request_threads = 24;
    server::SwalaServer server(options, null_registry(nullcgi), &manager);
    if (!server.start().is_ok()) return 1;
    http::HttpClient warm(server.address());
    if (!warm.get("/cgi-bin/null")) return 1;
    table.add_row(
        {"Swala, local cache fetch", fmt_double(drive(server.address()), 5)});
    server.stop();
    std::printf("  Swala local-fetch done\n");
  }

  std::printf("\n%s\n", table.render().c_str());
  std::printf(
      "Paper's shape (24 clients, heavy load): Swala-no-cache is comparable\n"
      "to HTTPd and faster than Enterprise; a local fetch is far cheaper\n"
      "than executing even a null CGI; remote fetch adds only a small,\n"
      "size-independent increment over local fetch.\n");
  return 0;
}
