#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sys/syscall.h>
#include <unistd.h>

namespace swalabench {

const char* seam_name(Seam seam) {
  switch (seam) {
    case Seam::kCgiRun: return "cgi.run";
    case Seam::kFsOpen: return "core.fs.open";
    case Seam::kFsRead: return "core.fs.read";
    case Seam::kFsPread: return "core.fs.pread";
    case Seam::kFsWrite: return "core.fs.write";
    case Seam::kFsPwrite: return "core.fs.pwrite";
    case Seam::kFsFsync: return "core.fs.fsync";
    case Seam::kFsClose: return "core.fs.close";
    case Seam::kFsRename: return "core.fs.rename";
    case Seam::kFsUnlink: return "core.fs.unlink";
    case Seam::kFsMkdir: return "core.fs.mkdir";
    case Seam::kFsFtruncate: return "core.fs.ftruncate";
    case Seam::kBusFetchRemote: return "cluster.fetch_remote";
    case Seam::kBusLookupAtOwner: return "cluster.lookup_at_owner";
    case Seam::kBusQueryPeers: return "cluster.query_peers";
    case Seam::kBusAnnounce: return "cluster.announce";
    case Seam::kBusInvalidate: return "cluster.invalidate";
    case Seam::kBusHandoff: return "cluster.handoff";
    case Seam::kCount: break;
  }
  return "?";
}

bool is_fs_seam(Seam seam) {
  return seam >= Seam::kFsOpen && seam <= Seam::kFsFtruncate;
}

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

void SpanLog::record(Seam seam, std::int64_t start_ns, std::int64_t end_ns,
                     std::uint64_t req) {
  thread_local const auto tid =
      static_cast<std::uint32_t>(::syscall(SYS_gettid));
  Span s;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.req = req;
  s.tid = tid;
  s.seam = seam;
  s.node = node_;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(s);
}

std::vector<Span> SpanLog::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::uint64_t n = spans.size();
  bool ok = std::fwrite(&n, sizeof n, 1, f) == 1;
  if (ok && n > 0) ok = std::fwrite(spans.data(), sizeof(Span), n, f) == n;
  return std::fclose(f) == 0 && ok;
}

bool read_spans(const std::string& path, std::vector<Span>* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::uint64_t n = 0;
  bool ok = std::fread(&n, sizeof n, 1, f) == 1 && n < (1ULL << 32);
  if (ok) {
    const std::size_t base = out->size();
    out->resize(base + n);
    ok = n == 0 || std::fread(out->data() + base, sizeof(Span), n, f) == n;
  }
  std::fclose(f);
  return ok;
}

std::int64_t self_time_ns(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::int64_t covered = 0;
  std::int64_t cursor = parent.start;  // everything before is accounted for
  for (const auto& c : children) {
    const std::int64_t lo = std::max(c.start, cursor);
    const std::int64_t hi = std::min(c.end, parent.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return std::max<std::int64_t>(0, parent.end - parent.start - covered);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[idx];
}

}  // namespace swalabench
