// Workload definitions and their seeded request sequences.
//
// Each workload is a fixed cluster shape plus a request generator. The
// generator is a pure function of (workload, seed, count): the server sees
// only the generated requests, and the same seed always yields the same
// sequence. README.md says why each workload exists and what it predicts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace swalabench {

enum class Kind { kCgi, kStatic, kInvalidate };

struct Request {
  Kind kind = Kind::kCgi;
  int node = 0;            ///< index of the node the request is sent to
  std::string target;      ///< origin-form request target
  std::uint64_t q = 0;     ///< kCgi: query id, selects the expected body
  std::uint32_t bytes = 0; ///< kCgi: expected body size
};

/// Default cacheability TTL. A workload with a shorter one paces its
/// warm-up over one TTL, so the entries' expiries are spread out rather
/// than all falling due at once.
inline constexpr double kLongTtl = 3600;

struct WorkloadSpec {
  std::string name;
  int nodes = 1;
  std::string directory_mode;      ///< [cluster] directory_mode; "" = solo
  std::string store = "files";     ///< [cache] store
  double ttl_seconds = kLongTtl;   ///< cacheability rule ttl
  double offered_rps = 0;          ///< open-loop rate, fixed per workload
  /// true: the ADL mix (CGI from the Zipf hot pool plus WebStone files) on
  /// keep-alive connections, every hot target warmed once beforehand.
  /// false: a cold CGI-only stream over HTTP/1.0, one connection each.
  bool hot_pool = true;
  double invalidate_fraction = 0;  ///< share of /swala-admin/invalidate calls
};

/// Paper-to-benchmark scale: one second of ADL CGI service time becomes
/// 0.1 ms of CPU in adl_cgi (ADL's 110 s worst case becomes 11 ms), and the
/// paper's 1 s caching threshold becomes the rules' min_exec of 0.1 ms.
inline constexpr double kCostScale = 1e-4;

const WorkloadSpec* find_workload(std::string_view name);
std::vector<std::string> workload_names();

/// WebStone's standard file set: docroot-relative path -> exact bytes.
using StaticFiles = std::map<std::string, std::string>;

/// Writes the WebStone files under `docroot` and returns their contents.
StaticFiles make_static_files(const std::string& docroot);

/// The first `count` requests of the workload's seeded stream.
std::vector<Request> make_requests(const WorkloadSpec& w, std::uint64_t seed,
                                   std::size_t count);

/// Requests run once before timing: every distinct CGI target of `stream`
/// on one seeded node, when the workload uses the hot pool; else empty.
std::vector<Request> warmup_requests(const WorkloadSpec& w,
                                     const std::vector<Request>& stream,
                                     std::uint64_t seed);

/// Expected body of a CGI request (the adl_cgi output for q and bytes).
std::string expected_cgi_body(std::uint64_t q, std::uint32_t bytes);

}  // namespace swalabench
