// Spans and the arithmetic over them.
//
// A span is one timed call across a layer seam: which seam, start and end
// on the shared monotonic clock (CLOCK_MONOTONIC, so spans from the node
// processes and the load generator line up), the thread, the node, and the
// benchmark request id when the seam could see it (0 otherwise). Spans are
// kept in memory and written out when a traced node stops.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace swalabench {

enum class Seam : std::uint8_t {
  kCgiRun,
  kFsOpen,
  kFsRead,
  kFsPread,
  kFsWrite,
  kFsPwrite,
  kFsFsync,
  kFsClose,
  kFsRename,
  kFsUnlink,
  kFsMkdir,
  kFsFtruncate,
  kBusFetchRemote,
  kBusLookupAtOwner,
  kBusQueryPeers,
  kBusAnnounce,    ///< directory updates: insert/erase broadcasts, owner updates
  kBusInvalidate,
  kBusHandoff,
  kCount,
};

/// Metric-style name: "cgi.run", "core.fs.pwrite", "cluster.fetch_remote".
const char* seam_name(Seam seam);
bool is_fs_seam(Seam seam);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t req = 0;  ///< benchmark request id; 0 = not visible here
  std::uint32_t tid = 0;
  Seam seam = Seam::kCgiRun;
  std::uint8_t node = 0;
};

/// Nanoseconds on the monotonic clock shared by every process on the host.
std::int64_t now_ns();

/// Thread-safe in-memory span buffer.
class SpanLog {
 public:
  void record(Seam seam, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t req = 0);
  std::vector<Span> take();
  void set_node(std::uint8_t node) { node_ = node; }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::uint8_t node_ = 0;
};

bool write_spans(const std::string& path, const std::vector<Span>& spans);
bool read_spans(const std::string& path, std::vector<Span>* out);

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// A layer's self time: the parent interval's length minus the part of it
/// covered by the union of its children (overlaps counted once, parts of a
/// child outside the parent not at all).
std::int64_t self_time_ns(Interval parent, std::vector<Interval> children);

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);

}  // namespace swalabench
