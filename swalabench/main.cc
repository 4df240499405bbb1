// swala_bench: runs one workload of the benchmark.
//
//   swala_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --bin-dir <dir> --work-dir <dir>
//
// Starts the workload's real cluster (1 or 3 nodes) in a private directory
// under --work-dir, warms it, then alternates closed-loop phases
// (saturation throughput) and open-loop phases at the workload's fixed rate
// (latency) for --seconds in total. Every response is checked byte for
// byte.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// three times, each on a fresh cluster: on swalad (counters from
// /swala-status deltas and response headers), on trace_node (spans at the
// CGI, FsOps and bus seams), and on swalad again, so the traced run's
// p50_ms is compared with untraced runs on both sides of it. It prints the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "loadgen.h"
#include "procs.h"
#include "requests.h"
#include "spans.h"

using namespace swalabench;

namespace {

constexpr double kClosedShare = 0.4;  // rest of --seconds is the open loop
constexpr int kRounds = 6;            // closed and open phases alternate
constexpr double kWarmSeconds = 0.5;  // closed-loop warm-up, untimed
constexpr int kSetups = 51;           // start-ups per run for setup_s
constexpr double kSatWindow = 0.5;    // seconds per closed-loop rate window
constexpr std::size_t kMaxSlices = 15;       // open-loop slices for p50/p99
constexpr std::size_t kSamplesPerSlice = 1000;  // >= 10 beyond each p99
constexpr int kMaxThreads = 4;        // load-generator threads = connections
constexpr std::uint64_t kWarmReqBase = 1000000000ULL;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string bin_dir;
  std::string work_dir;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--bin-dir") a->bin_dir = v;
    else if (k == "--work-dir") a->work_dir = v;
    else return false;
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0 &&
         !a->bin_dir.empty() && !a->work_dir.empty();
}

/// One drive of one cluster: warm-up, then rounds of closed and open loop.
struct Drive {
  std::vector<Sample> closed, open;
  std::int64_t window_start = 0, window_end = 0;
  double open_seconds = 0;
  std::vector<double> sat_windows;  ///< closed-loop correct responses/s
  double cpu_seconds = 0;
  double peak_rss_mb = 0;
  std::vector<NodeStatus> before, after;
  std::uint64_t wrong_bytes = 0;  // includes warm-up responses
  bool exhausted = false;
  std::vector<Span> spans;                      // traced drives only
  std::map<std::string, double> node_counters;  // traced: summed deltas
};

bool statuses(const Cluster& c, std::vector<NodeStatus>* out) {
  out->clear();
  for (const auto port : c.http_ports()) {
    NodeStatus st;
    if (!fetch_status(port, &st)) return false;
    out->push_back(std::move(st));
  }
  return true;
}

bool drive(const WorkloadSpec& w, const Args& args,
           const std::vector<Request>& stream, const StaticFiles& files,
           Cluster& cluster, bool traced, Drive* d) {
  LoadOptions lo;
  lo.ports = cluster.http_ports();
  lo.keep_alive = w.hot_pool;  // the cold CGI stream is HTTP/1.0
  lo.threads = std::max(
      1, std::min<int>(kMaxThreads, static_cast<int>(std::thread::hardware_concurrency())));
  LoadGen lg(lo, &stream, &files);
  const IdleSpinners spinners;  // from warm-up to the end of the timed phases

  lg.run_list(warmup_requests(w, stream, args.seed), kWarmReqBase,
              w.ttl_seconds < kLongTtl ? w.ttl_seconds : 0);
  lg.run_closed(kWarmSeconds);
  // Let the warm-up's directory broadcasts reach every peer.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  if (!statuses(cluster, &d->before)) return false;
  const double cpu0 = cluster.cpu_seconds();
  if (traced) cluster.mark();
  // The phases alternate in rounds, so a slow spell of the shared host
  // lands in a few windows and slices of each, not in all of one phase.
  const double closed_seconds = args.seconds * kClosedShare / kRounds;
  const double open_seconds = args.seconds * (1 - kClosedShare) / kRounds;
  d->open_seconds = open_seconds * kRounds;
  d->window_start = now_ns();
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t t0 = now_ns();
    const auto closed = lg.run_closed(closed_seconds);
    std::vector<double> windows(
        std::max<std::size_t>(1, static_cast<std::size_t>(closed_seconds / kSatWindow)), 0.0);
    for (const auto& s : closed) {
      const auto k = static_cast<std::size_t>(static_cast<double>(s.done_ns - t0) / 1e9 / kSatWindow);
      if (s.failure == Failure::kNone && k < windows.size()) windows[k] += 1 / kSatWindow;
    }
    d->sat_windows.insert(d->sat_windows.end(), windows.begin(), windows.end());
    d->closed.insert(d->closed.end(), closed.begin(), closed.end());
    const auto open = lg.run_open(w.offered_rps, open_seconds);
    d->open.insert(d->open.end(), open.begin(), open.end());
  }
  d->window_end = now_ns();
  if (traced) cluster.mark();
  d->cpu_seconds = cluster.cpu_seconds() - cpu0;
  d->peak_rss_mb = cluster.peak_rss_mb();
  if (!statuses(cluster, &d->after)) return false;
  d->wrong_bytes = lg.wrong_bytes();
  d->exhausted = lg.exhausted();
  return true;
}

/// Reads every traced node's spans (inside the timed window) and counters.
bool collect_trace(const Cluster& c, Drive* d) {
  for (const auto& n : c.nodes()) {
    std::vector<Span> spans;
    if (!read_spans(n.dir + "/trace.spans", &spans)) return false;
    for (const auto& s : spans) {
      if (s.start_ns >= d->window_start && s.end_ns <= d->window_end) d->spans.push_back(s);
    }
    FILE* f = std::fopen((n.dir + "/trace.stats").c_str(), "r");
    if (f == nullptr) return false;
    char name[64];
    double first = 0, last = 0;
    while (std::fscanf(f, "%63s %lf %lf", name, &first, &last) == 3) {
      d->node_counters[name] += last - first;
    }
    std::fclose(f);
  }
  return true;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

bool is_failure(const Sample& s) { return s.failure != Failure::kNone; }

/// Sum over nodes of a /swala-status field's change across the window.
double delta(const Drive& d, const std::string& key) {
  double total = 0;
  for (std::size_t i = 0; i < d.after.size(); ++i) {
    const auto a = d.after[i].values.find(key);
    const auto b = d.before[i].values.find(key);
    if (a != d.after[i].values.end()) {
      total += a->second - (b != d.before[i].values.end() ? b->second : 0);
    }
  }
  return total;
}

double sum_after(const Drive& d, const std::string& key) {
  double total = 0;
  for (const auto& st : d.after) {
    const auto a = st.values.find(key);
    if (a != st.values.end()) total += a->second;
  }
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

// ---- metrics ----

/// Median, over equal slices of the open loop (consecutive requests in due
/// order, so equal spans of open-loop time), of each slice's p-th
/// percentile due-time latency. A stall of the shared host, or a burst of
/// expensive queries, confined to fewer than half the slices does not swing
/// the figure. Slices hold at least kSamplesPerSlice requests, so each
/// slice's p99 has ten or more samples beyond it.
double sliced_percentile(const Drive& d, double p) {
  if (d.open.empty()) return 0;
  std::vector<const Sample*> by_due;
  for (const auto& s : d.open) by_due.push_back(&s);
  std::sort(by_due.begin(), by_due.end(),
            [](const Sample* a, const Sample* b) { return a->due_ns < b->due_ns; });
  const std::size_t n = std::clamp<std::size_t>(by_due.size() / kSamplesPerSlice, 1, kMaxSlices);
  std::vector<double> per_slice;
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<double> slice;
    for (std::size_t i = k * by_due.size() / n; i < (k + 1) * by_due.size() / n; ++i) {
      slice.push_back(ms(by_due[i]->done_ns - by_due[i]->due_ns));
    }
    per_slice.push_back(percentile(std::move(slice), p));
  }
  return median(per_slice);
}

void end_to_end(const Drive& d, const std::vector<double>& setups, Report* r) {
  r->add("p50_ms", sliced_percentile(d, 50), "ms");
  // Saturation throughput: the median over fixed windows of the closed
  // loop, so a brief stall of the shared host moves one window, not the
  // whole figure.
  r->add("sat_rps", median(d.sat_windows), "1/s");
  std::size_t completed = 0;
  for (const auto* phase : {&d.closed, &d.open}) {
    for (const auto& s : *phase) {
      if (s.failure != Failure::kTimeout && s.failure != Failure::kConnect) ++completed;
    }
  }
  r->add("cpu_ms_per_req", ratio(d.cpu_seconds * 1e3, static_cast<double>(completed)), "ms");
  r->add("peak_rss_mb", d.peak_rss_mb, "MiB");
  r->add("setup_s", median(setups), "s");
}

double fail_frac(const Drive& d) {
  std::size_t failed = 0;
  for (const auto* phase : {&d.closed, &d.open}) {
    for (const auto& s : *phase) failed += is_failure(s) ? 1 : 0;
  }
  return ratio(static_cast<double>(failed),
               static_cast<double>(d.closed.size() + d.open.size()));
}

/// Per-layer metrics from the untraced drive: response headers and
/// /swala-status deltas.
void counter_layers(const Drive& d, Report* r) {
  std::vector<double> late;
  std::size_t done = 0;
  for (const auto& s : d.open) {
    late.push_back(ms(s.send_ns - s.due_ns));
    done += is_failure(s) ? 0 : 1;
  }
  // The generator's own share of the due-time latency: how late after its
  // due time each request left the client.
  r->add("workload.late_p50_ms", percentile(late, 50), "ms");
  r->add("workload.late_p99_ms", percentile(late, 99), "ms");
  r->add("workload.achieved_rps", done / d.open_seconds, "1/s");
  r->add("fail_frac", fail_frac(d), "ratio");
  r->add("p99_ms", sliced_percentile(d, 99), "ms");

  for (const Outcome o : {Outcome::kHitLocal, Outcome::kHitRemote, Outcome::kMiss,
                          Outcome::kStatic}) {
    std::vector<double> v;
    for (const auto& s : d.open) {
      if (s.outcome == o) v.push_back(ms(s.done_ns - s.due_ns));
    }
    const std::string base = std::string("server.") + outcome_name(o);
    r->add(base + ".p50_ms", percentile(v, 50), "ms");
    r->add(base + ".p99_ms", percentile(v, 99), "ms");
  }
  r->add("server.requests_shed", delta(d, "requests_shed"), "count");
  r->add("server.deadline_exceeded", delta(d, "deadline_exceeded"), "count");
  r->add("cgi.gate.queue_waits", delta(d, "cgi_queue_waits"), "count");
  r->add("cgi.gate.queue_timeouts", delta(d, "cgi_queue_timeouts"), "count");

  const double local = delta(d, "cache_local_hits");
  const double remote = delta(d, "cache_remote_hits");
  const double misses = delta(d, "cache_misses");
  const double hot_hits = delta(d, "cache_hot_hits");
  r->add("core.hit_ratio", ratio(local + remote, local + remote + misses), "ratio");
  r->add("core.remote_hit_share", ratio(remote, local + remote), "ratio");
  r->add("core.hot_hit_ratio", ratio(hot_hits, hot_hits + delta(d, "cache_hot_misses")),
         "ratio");
  r->add("core.coalesced_misses", delta(d, "cache_coalesced_misses"), "count");
  r->add("core.inserts", delta(d, "cache_inserts"), "count");
  r->add("core.false_hits", delta(d, "cache_false_hits"), "count");
  r->add("core.fallback_executions", delta(d, "cache_fallback_executions"), "count");
  r->add("core.store.flushes", delta(d, "volume_flushes"), "count");
  r->add("core.store.compactions", delta(d, "volume_compactions"), "count");
  r->add("core.store.dead_bytes", sum_after(d, "volume_dead_bytes"), "bytes");
  r->add("cluster.frames_sent", delta(d, "cluster_frames_sent"), "count");
  r->add("cluster.batched_broadcasts", delta(d, "cluster_batched_broadcasts"), "count");
  r->add("cluster.owner_updates_sent", delta(d, "cluster_owner_updates_sent"), "count");
  r->add("cluster.remote_dir_hit_ratio",
         ratio(delta(d, "cache_remote_dir_hits"), delta(d, "cache_remote_dir_lookups")),
         "ratio");
}

/// Per-layer metrics from the traced drive's spans.
void span_layers(const Drive& t, const Drive& before, const Drive& after, Report* r) {
  std::map<Seam, std::vector<double>> dur;  // ms per span, by seam
  std::map<std::uint64_t, std::vector<Interval>> linked;  // by request id
  for (const auto& s : t.spans) {
    dur[s.seam].push_back(ms(s.end_ns - s.start_ns));
    if (s.req != 0) linked[s.req].push_back({s.start_ns, s.end_ns});
  }
  const auto total = [&](Seam seam) {
    double sum = 0;
    for (const double v : dur[seam]) sum += v;
    return sum;
  };
  const auto count = [&](Seam seam) { return static_cast<double>(dur[seam].size()); };

  std::vector<const Sample*> timed;
  for (const auto* phase : {&t.closed, &t.open}) {
    for (const auto& s : *phase) timed.push_back(&s);
  }
  std::size_t dynamic = 0;
  std::map<Outcome, std::size_t> per_outcome;
  double service_total = 0, local_hit_service = 0;
  for (const auto* s : timed) {
    if (s->kind == Kind::kCgi) ++dynamic;
    ++per_outcome[s->outcome];
    service_total += ms(s->done_ns - s->send_ns);
    if (s->outcome == Outcome::kHitLocal) local_hit_service += ms(s->done_ns - s->send_ns);
  }

  r->add("cgi.run.count", count(Seam::kCgiRun), "count");
  r->add("cgi.run.p50_ms", percentile(dur[Seam::kCgiRun], 50), "ms");
  r->add("cgi.run.p99_ms", percentile(dur[Seam::kCgiRun], 99), "ms");
  r->add("cgi.run.total_ms", total(Seam::kCgiRun), "ms");
  r->add("cgi.exec_per_dynamic", ratio(count(Seam::kCgiRun), static_cast<double>(dynamic)),
         "ratio");
  r->add("core.below_threshold", t.node_counters.count("below_threshold")
                                     ? t.node_counters.at("below_threshold")
                                     : 0,
         "count");
  double fs_total = 0;
  for (const Seam seam : {Seam::kFsOpen, Seam::kFsRead, Seam::kFsPread, Seam::kFsWrite,
                          Seam::kFsPwrite, Seam::kFsFsync, Seam::kFsRename,
                          Seam::kFsUnlink}) {
    r->add(std::string(seam_name(seam)) + ".count", count(seam), "count");
    r->add(std::string(seam_name(seam)) + ".total_ms", total(seam), "ms");
  }
  for (int i = 0; i < static_cast<int>(Seam::kCount); ++i) {
    if (is_fs_seam(static_cast<Seam>(i))) fs_total += total(static_cast<Seam>(i));
  }
  r->add("cluster.fetch_remote.count", count(Seam::kBusFetchRemote), "count");
  r->add("cluster.fetch_remote.p50_ms", percentile(dur[Seam::kBusFetchRemote], 50), "ms");
  r->add("cluster.fetch_remote.p99_ms", percentile(dur[Seam::kBusFetchRemote], 99), "ms");
  r->add("cluster.lookup_at_owner.count", count(Seam::kBusLookupAtOwner), "count");
  r->add("cluster.lookup_at_owner.p50_ms", percentile(dur[Seam::kBusLookupAtOwner], 50),
         "ms");
  r->add("cluster.announce.count", count(Seam::kBusAnnounce), "count");
  r->add("cluster.announce.total_ms", total(Seam::kBusAnnounce), "ms");

  // server.self: each request's service time (send to last byte) minus its
  // linked child spans (cgi.run carries the request id), minus its
  // outcome's mean share of the unlinked blocking calls: remote fetches
  // serve hit-remote requests, owner lookups and peer queries serve every
  // request that missed its local directory table.
  const auto per = [&](Outcome o) { return static_cast<double>(per_outcome[o]); };
  const double probing =
      per(Outcome::kMiss) + per(Outcome::kHitRemote) + per(Outcome::kHitCoalesced);
  const double probe_mean =
      ratio(total(Seam::kBusLookupAtOwner) + total(Seam::kBusQueryPeers), probing);
  const double fetch_mean = ratio(total(Seam::kBusFetchRemote), per(Outcome::kHitRemote));
  std::vector<double> self;
  for (const auto* s : timed) {
    const auto it = linked.find(s->req);
    double v = ms(self_time_ns({s->send_ns, s->done_ns},
                               it == linked.end() ? std::vector<Interval>{} : it->second));
    if (s->outcome == Outcome::kHitRemote) v -= fetch_mean;
    if (s->outcome == Outcome::kMiss || s->outcome == Outcome::kHitRemote ||
        s->outcome == Outcome::kHitCoalesced) {
      v -= probe_mean;
    }
    self.push_back(std::max(0.0, v));
  }
  r->add("server.self.p50_ms", percentile(self, 50), "ms");
  r->add("server.self.p99_ms", percentile(self, 99), "ms");

  // Shares of the server-side time (sum of request service times) spent in
  // the layer each workload was chosen for.
  r->add("layer_share.cgi_run", ratio(total(Seam::kCgiRun), service_total), "ratio");
  // Not a single layer: local hits have no span of their own, so their
  // whole service time (server, core lookup and the hot-blob read) counts.
  r->add("layer_share.fetch_remote_and_local_hit_requests",
         ratio(total(Seam::kBusFetchRemote) + local_hit_service, service_total), "ratio");
  r->add("layer_share.fs_and_announce",
         ratio(fs_total + total(Seam::kBusAnnounce), service_total), "ratio");

  // The decorators' cost against the mean of the untraced runs before and
  // after, and the drift between those two, which bounds what the first
  // figure can resolve: an overhead smaller than the drift is noise.
  const double p50_before = sliced_percentile(before, 50);
  const double p50_after = sliced_percentile(after, 50);
  const double p50_plain = (p50_before + p50_after) / 2;
  r->add("trace.overhead.p50_frac",
         ratio(sliced_percentile(t, 50) - p50_plain, p50_plain), "ratio");
  r->add("trace.untraced_drift.p50_frac", ratio(p50_after - p50_before, p50_before), "ratio");
}

/// Prints the human-readable summary to stdout, one line per tally.
void print_tallies(const char* label, const Drive& d) {
  std::map<std::string, std::size_t> outcomes, failures;
  for (const auto* phase : {&d.closed, &d.open}) {
    for (const auto& s : *phase) {
      ++outcomes[outcome_name(s.outcome)];
      if (is_failure(s)) ++failures[failure_name(s.failure)];
    }
  }
  std::printf("%s: %zu closed-loop + %zu open-loop requests; X-Swala-Cache:", label,
              d.closed.size(), d.open.size());
  for (const auto& [k, v] : outcomes) std::printf(" %s=%zu", k.c_str(), v);
  std::printf("; failures:");
  if (failures.empty()) std::printf(" none");
  for (const auto& [k, v] : failures) std::printf(" %s=%zu", k.c_str(), v);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "--bin-dir <dir> --work-dir <dir>\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  install_cleanup_handlers(160);

  // Private run directory: docroot, cgi-bin, one directory per node.
  const std::string root = args.work_dir;
  const std::string adl = args.bin_dir + "/adl_cgi";
  if (!make_dir(root) || !make_dir(root + "/www") || !make_dir(root + "/cgi-bin") ||
      ::access(adl.c_str(), X_OK) != 0 ||
      ::symlink(adl.c_str(), (root + "/cgi-bin/adl").c_str()) != 0) {
    std::fprintf(stderr, "cannot prepare %s\n", root.c_str());
    return 1;
  }
  const StaticFiles files = make_static_files(root + "/www");
  if (files.empty()) {
    std::fprintf(stderr, "cannot write the static file set\n");
    return 1;
  }
  // Enough requests for the fastest workload to saturate for --seconds.
  const auto pool = static_cast<std::size_t>(std::max(20000.0, args.seconds * 40000.0));
  const std::vector<Request> stream = make_requests(*w, args.seed, pool);

  std::vector<std::uint16_t> ports;
  std::vector<double> setups;
  int generation = 0;
  // Starts a fresh cluster `starts` times (only the last one is kept and
  // driven), then stops it; a traced cluster's spans are read back. The
  // start-up-only clusters served nothing, so they are killed at once.
  const auto run_on = [&](bool traced_node, int starts, Drive* d) {
    std::unique_ptr<Cluster> cluster;
    for (int g = 0; g < starts; ++g) {
      if (cluster != nullptr) cluster->stop(0);
      cluster = std::make_unique<Cluster>(*w, args.bin_dir, root, traced_node, generation++);
      const double s = cluster->start(30);
      const auto p = cluster->all_ports();
      ports.insert(ports.end(), p.begin(), p.end());
      if (s < 0) return false;
      setups.push_back(s);
    }
    if (!drive(*w, args, stream, files, *cluster, traced_node, d)) return false;
    if (!traced_node) {
      cluster->stop();
      return true;
    }
    cluster->stop(10.0);  // the traced node writes its spans on the way out
    if (collect_trace(*cluster, d)) return true;
    std::fprintf(stderr, "cannot read the traced nodes' spans\n");
    return false;
  };
  Drive plain, traced, plain_after;
  if (!run_on(false, args.trace != 0 ? 1 : kSetups, &plain) ||
      (args.trace != 0 && (!run_on(true, 1, &traced) || !run_on(false, 1, &plain_after)))) {
    std::fprintf(stderr, "run failed\n");
    return 1;
  }
  std::string why;
  if (!no_leftovers(ports, &why)) {
    std::fprintf(stderr, "leftover after the run: %s\n", why.c_str());
    return 5;
  }
  const std::vector<const Drive*> drives = {&plain, &traced, &plain_after};
  for (const Drive* d : drives) {
    if (d->exhausted) {
      std::fprintf(stderr, "request stream exhausted; raise the pool size\n");
      return 1;
    }
  }

  Report report;
  if (args.trace == 0) {
    end_to_end(plain, setups, &report);
  } else {
    counter_layers(plain, &report);
    span_layers(traced, plain, plain_after, &report);
  }

  std::printf("workload %s, seed %llu, %.0f s (%.0f%% closed loop, open loop at %g req/s)\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              kClosedShare * 100, w->offered_rps);
  print_tallies("swalad", plain);
  if (args.trace != 0) {
    print_tallies("trace_node", traced);
    print_tallies("swalad again", plain_after);
  }
  if (args.trace == 0) {
    // Not gated (README.md says why), so printed here but not in the JSON;
    // the traced run reports both as per-layer metrics.
    std::printf("%-44s %14s %s\n", "p99_ms", num(sliced_percentile(plain, 99)).c_str(), "ms");
    std::printf("%-44s %14s %s\n", "fail_frac", num(fail_frac(plain)).c_str(), "ratio");
  }
  for (const auto& m : report.metrics()) {
    std::printf("%-44s %14s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
  }

  std::size_t attempted = 0, failed = 0;
  bool correct = true;
  for (const Drive* d : drives) {
    for (const auto* phase : {&d->closed, &d->open}) {
      attempted += phase->size();
      for (const auto& s : *phase) failed += is_failure(s) ? 1 : 0;
    }
    correct = correct && d->wrong_bytes == 0;
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : report.metrics()) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
