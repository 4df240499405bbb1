// trace_node: swalad's node assembly with timing decorators on three seams.
//
//   trace_node <config.ini> <trace-out-prefix> <node-index>
//
// Reads the same generated config as swalad and builds the same node, but
// wires the public seams through the benchmark's own wrappers:
//   * cgi::CgiHandler::run    — TracingCgi around each mounted ProcessCgi,
//                               tagged with the request's X-Bench-Req id;
//   * core::FsOps             — TracingFs via ManagerOptions::fs_ops;
//   * core::CooperationBus    — TracingBus wrapped around cluster::NodeGroup.
// SIGUSR1 snapshots the manager counters (swala_bench sends one at the start
// and one at the end of the timed phases); SIGTERM drains, stops, and writes
// <prefix>.spans and <prefix>.stats.
//
// The option parsing mirrors server/node.cc for the keys the benchmark's
// configs set; the defaults are node.cc's deployment defaults.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

#include "cgi/process.h"
#include "cgi/registry.h"
#include "common/strings.h"
#include "server/node.h"
#include "spans.h"

using namespace swala;
using swalabench::now_ns;
using swalabench::Seam;
using swalabench::SpanLog;

namespace {

SpanLog g_spans;
int g_pipe[2] = {-1, -1};

void on_signal(int signo) {
  const char byte = signo == SIGUSR1 ? 'M' : 'T';
  ssize_t rc = ::write(g_pipe[1], &byte, 1);
  (void)rc;
}

/// Runs one seam call and records its span; errno is the call's own.
template <typename Fn>
auto timed(Seam seam, Fn fn) {
  const auto t0 = now_ns();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    g_spans.record(seam, t0, now_ns());
  } else {
    auto out = fn();
    const int call_errno = errno;
    g_spans.record(seam, t0, now_ns());
    errno = call_errno;
    return out;
  }
}

/// Times each run() and tags it with the benchmark's request id.
class TracingCgi final : public cgi::CgiHandler {
 public:
  explicit TracingCgi(cgi::CgiHandlerPtr inner) : inner_(std::move(inner)) {}

  Result<cgi::CgiOutput> run(const http::Request& request) override {
    return run(request, Deadline());
  }
  Result<cgi::CgiOutput> run(const http::Request& request,
                             const Deadline& deadline) override {
    std::uint64_t req = 0;
    if (const auto id = request.headers.get("X-Bench-Req")) {
      req = std::strtoull(std::string(*id).c_str(), nullptr, 10);
    }
    const auto t0 = now_ns();
    auto out = inner_->run(request, deadline);
    g_spans.record(Seam::kCgiRun, t0, now_ns(), req);
    return out;
  }

 private:
  cgi::CgiHandlerPtr inner_;
};

/// Times every filesystem call of the store (both backends use this seam).
class TracingFs final : public core::FsOps {
 public:
  int open(const char* path, int flags, int mode) override {
    return timed(Seam::kFsOpen, [&] { return FsOps::open(path, flags, mode); });
  }
  ssize_t read(int fd, void* buf, std::size_t count) override {
    return timed(Seam::kFsRead, [&] { return FsOps::read(fd, buf, count); });
  }
  ssize_t write(int fd, const void* buf, std::size_t count) override {
    return timed(Seam::kFsWrite, [&] { return FsOps::write(fd, buf, count); });
  }
  ssize_t pread(int fd, void* buf, std::size_t count, off_t offset) override {
    return timed(Seam::kFsPread, [&] { return FsOps::pread(fd, buf, count, offset); });
  }
  ssize_t pwrite(int fd, const void* buf, std::size_t count, off_t offset) override {
    return timed(Seam::kFsPwrite, [&] { return FsOps::pwrite(fd, buf, count, offset); });
  }
  int fsync(int fd) override {
    return timed(Seam::kFsFsync, [&] { return FsOps::fsync(fd); });
  }
  int close(int fd) override {
    return timed(Seam::kFsClose, [&] { return FsOps::close(fd); });
  }
  int rename(const char* from, const char* to) override {
    return timed(Seam::kFsRename, [&] { return FsOps::rename(from, to); });
  }
  int unlink(const char* path) override {
    return timed(Seam::kFsUnlink, [&] { return FsOps::unlink(path); });
  }
  int mkdir(const char* path, int mode) override {
    return timed(Seam::kFsMkdir, [&] { return FsOps::mkdir(path, mode); });
  }
  int ftruncate(int fd, off_t length) override {
    return timed(Seam::kFsFtruncate, [&] { return FsOps::ftruncate(fd, length); });
  }
};

/// Forwards every CooperationBus call to the NodeGroup, timing each one.
class TracingBus final : public core::CooperationBus {
 public:
  explicit TracingBus(cluster::NodeGroup* group) : group_(group) {}

  void broadcast_insert(const core::EntryMeta& meta) override {
    timed(Seam::kBusAnnounce, [&] { group_->broadcast_insert(meta); });
  }
  void broadcast_erase(core::NodeId owner, const std::string& key,
                       std::uint64_t version) override {
    timed(Seam::kBusAnnounce, [&] { group_->broadcast_erase(owner, key, version); });
  }
  Result<core::CachedResult> fetch_remote(core::NodeId owner,
                                          const std::string& key) override {
    return timed(Seam::kBusFetchRemote, [&] { return group_->fetch_remote(owner, key); });
  }
  Result<core::CachedResult> fetch_remote(core::NodeId owner,
                                          const std::string& key,
                                          int budget_ms) override {
    return timed(Seam::kBusFetchRemote,
                 [&] { return group_->fetch_remote(owner, key, budget_ms); });
  }
  void broadcast_invalidate(const std::string& pattern) override {
    timed(Seam::kBusInvalidate, [&] { group_->broadcast_invalidate(pattern); });
  }
  void broadcast_invalidate(const std::string& pattern,
                            std::uint64_t epoch) override {
    timed(Seam::kBusInvalidate, [&] { group_->broadcast_invalidate(pattern, epoch); });
  }
  void send_owner_insert(core::NodeId ring_owner,
                         const core::EntryMeta& meta) override {
    timed(Seam::kBusAnnounce, [&] { group_->send_owner_insert(ring_owner, meta); });
  }
  void send_owner_erase(core::NodeId ring_owner, core::NodeId cache_node,
                        const std::string& key, std::uint64_t version) override {
    timed(Seam::kBusAnnounce,
          [&] { group_->send_owner_erase(ring_owner, cache_node, key, version); });
  }
  Result<core::EntryMeta> lookup_at_owner(core::NodeId ring_owner,
                                          const std::string& key,
                                          int budget_ms) override {
    return timed(Seam::kBusLookupAtOwner,
                 [&] { return group_->lookup_at_owner(ring_owner, key, budget_ms); });
  }
  Result<core::EntryMeta> query_peers(const std::string& key,
                                      int budget_ms) override {
    return timed(Seam::kBusQueryPeers, [&] { return group_->query_peers(key, budget_ms); });
  }
  void send_handoff(core::NodeId successor, const core::EntryMeta& meta,
                    const std::string& body) override {
    timed(Seam::kBusHandoff, [&] { group_->send_handoff(successor, meta, body); });
  }

 private:
  cluster::NodeGroup* group_;
};

/// Mounts every executable in `dir` at /cgi-bin/<name>, as swalad does,
/// each behind a TracingCgi.
void mount_cgi_dir(cgi::HandlerRegistry& registry, const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    const std::string path = dir + "/" + name;
    struct stat st{};
    if (name == "." || name == ".." || ::stat(path.c_str(), &st) != 0 ||
        !S_ISREG(st.st_mode) || (st.st_mode & S_IXUSR) == 0) {
      continue;
    }
    registry.mount("/cgi-bin/" + name,
                   std::make_shared<TracingCgi>(std::make_shared<cgi::ProcessCgi>(path)));
  }
  ::closedir(handle);
}

Result<std::vector<cluster::MemberAddress>> parse_members(const Config& config) {
  std::vector<cluster::MemberAddress> members;
  for (const auto& line : config.get_all("cluster", "member")) {
    const auto tokens = split_trimmed(line, ' ');
    std::uint64_t id = 0, info = 0, data = 0;
    if (tokens.size() != 4 || !parse_u64(tokens[0], &id) ||
        !parse_u64(tokens[2], &info) || !parse_u64(tokens[3], &data)) {
      return Status(StatusCode::kInvalidArgument, "bad member line: " + line);
    }
    cluster::MemberAddress m;
    m.id = static_cast<core::NodeId>(id);
    m.info_addr = {tokens[1], static_cast<std::uint16_t>(info)};
    m.data_addr = {tokens[1], static_cast<std::uint16_t>(data)};
    members.push_back(std::move(m));
  }
  return members;
}

std::string stats_line(const char* name, std::uint64_t a, std::uint64_t b) {
  return std::string(name) + " " + std::to_string(a) + " " + std::to_string(b) + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: %s <config.ini> <trace-prefix> <node-index>\n", argv[0]);
    return 2;
  }
  auto loaded = Config::load(argv[1]);
  if (!loaded) {
    std::fprintf(stderr, "config error: %s\n", loaded.status().to_string().c_str());
    return 1;
  }
  const Config& config = loaded.value();
  const std::string prefix = argv[2];
  g_spans.set_node(static_cast<std::uint8_t>(std::atoi(argv[3])));

  auto members = parse_members(config);
  if (!members) return 1;
  const auto node_id = static_cast<core::NodeId>(config.get_int("cluster", "node_id", 0));
  const std::size_t group_size = members.value().empty() ? 1 : members.value().size();

  // ---- cache manager (node.cc defaults) ----
  TracingFs fs;
  core::ManagerOptions mo;
  mo.limits.max_entries = static_cast<std::uint64_t>(config.get_int("cache", "max_entries", 2000));
  mo.limits.max_bytes = static_cast<std::uint64_t>(config.get_int("cache", "max_bytes", 0));
  mo.limits.hot_bytes =
      static_cast<std::uint64_t>(config.get_int("cache", "hot_bytes", 64 * 1024 * 1024));
  auto policy = core::policy_from_name(config.get_string("cache", "policy", "lru"));
  if (!policy) return 1;
  mo.policy = policy.value();
  mo.disk_dir = config.get_string("cache", "disk_dir", "");
  mo.fs_ops = &fs;
  if (config.get_string("cache", "store", "files") == "volume") {
    mo.store = core::StoreBackendKind::kVolume;
    mo.volume.volume_bytes = static_cast<std::uint64_t>(config.get_int("cache", "volume_bytes", 0));
    mo.volume.segment_bytes =
        static_cast<std::uint64_t>(config.get_int("cache", "segment_bytes", 4 * 1024 * 1024));
    mo.volume.write_buffer_bytes =
        static_cast<std::uint64_t>(config.get_int("cache", "write_buffer_bytes", 256 * 1024));
    mo.volume.flush_interval_ms =
        static_cast<std::uint64_t>(config.get_int("cache", "flush_interval_ms", 100));
  }
  auto rules = core::CacheabilityRules::from_config(config);
  if (!rules) return 1;
  mo.rules = std::move(rules.value());
  const auto mode =
      core::directory_mode_from_name(config.get_string("cluster", "directory_mode", "replicated"));
  if (!mode) return 1;
  mo.directory_mode = *mode;
  mo.state_file = config.get_string("cache", "state_file", "");
  mo.checkpoint_interval_seconds = config.get_double("cache", "checkpoint_interval", 10.0);
  mo.disk_failure_threshold = static_cast<int>(config.get_int("cache", "disk_failure_threshold", 5));
  mo.negative_ttl_seconds = config.get_double("cache", "negative_ttl", 1.0);
  mo.inv_log_entries = static_cast<std::size_t>(config.get_int("cluster", "inv_log_entries", 4096));
  const double purge_interval = config.get_double("cache", "purge_interval", 2.0);
  const std::string state_file = mo.state_file;

  std::unique_ptr<cluster::NodeGroup> group;
  std::unique_ptr<TracingBus> bus;
  if (!members.value().empty()) {
    cluster::GroupOptions go;
    go.purge_interval_seconds = purge_interval;
    go.batch_max_messages =
        static_cast<std::size_t>(config.get_int("cluster", "batch_max_messages", 64));
    go.batch_max_bytes =
        static_cast<std::size_t>(config.get_int("cluster", "batch_max_bytes", 256 * 1024));
    go.batch_linger_ms = static_cast<int>(config.get_int("cluster", "batch_linger_ms", 2));
    go.query_timeout_ms = static_cast<int>(config.get_int("cluster", "query_timeout_ms", 300));
    go.anti_entropy_interval_ms =
        static_cast<int>(config.get_int("cluster", "anti_entropy_interval_ms", 1000));
    group = std::make_unique<cluster::NodeGroup>(node_id, members.value(), go);
    bus = std::make_unique<TracingBus>(group.get());
  }
  auto manager = std::make_unique<core::CacheManager>(
      node_id, group_size, std::move(mo), RealClock::instance(), bus.get());
  if (group != nullptr) group->attach(manager.get());
  if (!manager->storage_status().is_ok()) return 1;

  // ---- HTTP server ----
  server::SwalaServerOptions so;
  so.listen.host = config.get_string("server", "host", "127.0.0.1");
  so.listen.port = static_cast<std::uint16_t>(config.get_int("server", "port", 0));
  so.request_threads = static_cast<std::size_t>(config.get_int("server", "threads", 16));
  so.docroot = config.get_string("server", "docroot", "");
  so.enable_admin = config.get_bool("server", "admin", false);
  so.request_timeout_ms = static_cast<int>(config.get_int("server", "request_timeout_ms", 30000));
  so.max_concurrent_cgi =
      static_cast<std::size_t>(config.get_int("server", "max_concurrent_cgi", 0));
  auto registry = std::make_shared<cgi::HandlerRegistry>();
  mount_cgi_dir(*registry, config.get_string("server", "cgi_dir", ""));
  server::SwalaServer http(std::move(so), registry, manager.get());
  http.set_group(group.get());

  if (::pipe(g_pipe) != 0) return 1;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGUSR1, on_signal);

  if (group != nullptr && !group->start().is_ok()) return 1;
  if (!http.start().is_ok()) return 1;
  if (!state_file.empty()) {
    auto restored = manager->restore_state(state_file);
    if (!restored && restored.status().code() != StatusCode::kNotFound) return 1;
  }

  // Stand-alone nodes run their own purge tick, as SwalaNode does.
  std::atomic<bool> stopping{false};
  std::thread housekeeping;
  if (group == nullptr) {
    housekeeping = std::thread([&] {
      auto next = std::chrono::steady_clock::now();
      while (!stopping.load()) {
        next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(purge_interval));
        while (!stopping.load() && std::chrono::steady_clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        if (!stopping.load()) manager->purge_expired();
      }
    });
  }

  std::vector<core::ManagerStats> marks;
  char byte = 0;
  while (true) {
    const ssize_t n = ::read(g_pipe[0], &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || byte == 'T') break;
    marks.push_back(manager->stats());
  }
  (void)http.drain();
  stopping = true;
  if (housekeeping.joinable()) housekeeping.join();
  if (!state_file.empty()) (void)manager->save_state(state_file);
  http.stop();
  if (group != nullptr) group->stop();

  // Counters that /swala-status does not expose, at the two marks.
  const core::ManagerStats first = marks.empty() ? core::ManagerStats{} : marks.front();
  const core::ManagerStats last = marks.empty() ? core::ManagerStats{} : marks.back();
  std::string stats;
  stats += stats_line("below_threshold", first.below_threshold, last.below_threshold);
  stats += stats_line("failed_exec", first.failed_exec, last.failed_exec);
  FILE* f = std::fopen((prefix + ".stats").c_str(), "wb");
  if (f != nullptr) {
    std::fwrite(stats.data(), 1, stats.size(), f);
    std::fclose(f);
  }
  return swalabench::write_spans(prefix + ".spans", g_spans.take()) ? 0 : 1;
}
