// Cluster lifecycle for one benchmark run: a private directory inside the
// checkout, free loopback ports, one generated config per node, spawning
// swalad (or the traced node) and tearing everything down again.
//
// Every child is registered in a process-wide table so swala_bench's signal
// and watchdog handlers can stop it (SIGTERM, then SIGKILL) on any exit,
// and every child gets PR_SET_PDEATHSIG so it cannot outlive swala_bench.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <thread>
#include <vector>

#include "requests.h"

namespace swalabench {

struct NodeProc {
  pid_t pid = -1;
  std::uint16_t http_port = 0;
  std::uint16_t info_port = 0;
  std::uint16_t data_port = 0;
  std::string dir;
};

/// Numeric fields of one node's /swala-status, plus its peer states.
struct NodeStatus {
  std::map<std::string, double> values;
  int peers = 0;
  int peers_healthy = 0;
};

/// Parses the flat numeric fields (nested objects flattened by key name)
/// and counts the cluster_peers states of a /swala-status body.
NodeStatus parse_status(const std::string& body);

/// Fetches /swala-status; false when the node does not answer 200.
bool fetch_status(std::uint16_t port, NodeStatus* out);

class Cluster {
 public:
  /// `bin_dir` holds swalad, trace_node and adl_cgi; `root` is this run's
  /// private directory (docroot and cgi-bin already populated under it).
  Cluster(const WorkloadSpec& w, std::string bin_dir, std::string root,
          bool traced, int generation);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Writes configs, spawns every node and waits until each answers
  /// /swala-status and reports all its peers healthy. Returns the elapsed
  /// seconds from the first spawn, or a negative value on failure.
  double start(double timeout_seconds);

  /// SIGTERM every node, wait up to `grace_seconds`, then SIGKILL.
  void stop(double grace_seconds = 3.0);

  /// Sends SIGUSR1 (traced nodes snapshot their manager counters).
  void mark();

  std::vector<std::uint16_t> http_ports() const;
  std::vector<std::uint16_t> all_ports() const;
  const std::vector<NodeProc>& nodes() const { return nodes_; }

  /// CPU seconds of every node plus its reaped CGI children.
  double cpu_seconds() const;
  /// Largest peak resident set (VmHWM) over the nodes, in MiB.
  double peak_rss_mb() const;

 private:
  std::string write_config(std::size_t i) const;

  WorkloadSpec w_;
  std::string bin_dir_;
  std::string root_;
  bool traced_;
  int generation_;
  std::vector<NodeProc> nodes_;
};

/// One busy thread per usable CPU, at SCHED_IDLE priority, for the life of
/// the object. On a virtual machine an idle vCPU halts, and waking it goes
/// through the hypervisor's scheduler, whose delay depends on what else the
/// host runs at that moment. Every request crosses several threads (client,
/// node, peer node), so that delay would be multiplied into every figure
/// and make runs of the same code differ by the host's load. The spinners
/// keep each vCPU running; any runnable thread of the benchmark or of the
/// cluster preempts them at once, so they only take time nothing else
/// wants, and no node's CPU time includes them.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Installs SIGINT/SIGTERM/SIGHUP/SIGALRM handlers that stop every
/// registered child and exit(3), and arms a watchdog alarm.
void install_cleanup_handlers(unsigned watchdog_seconds);

/// True when no child of this process is left and none of `ports` is bound.
bool no_leftovers(const std::vector<std::uint16_t>& ports, std::string* why);

/// A loopback TCP port that was free a moment ago, below the ephemeral
/// range and not handed out before by this process (0 if none found).
std::uint16_t free_port();

bool make_dir(const std::string& path);
void remove_tree(const std::string& path);

}  // namespace swalabench
