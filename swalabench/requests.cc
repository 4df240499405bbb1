#include "requests.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>

#include "cgi_body.h"
#include "common/random.h"
#include "workload/adl_synth.h"
#include "workload/webstone.h"

namespace swalabench {
namespace {

// Open-loop rates are constants: nothing at run time derives them from the
// system under test. The gated workloads run at about a fifteenth of their
// closed-loop saturation throughput on a quiet 4-vCPU x86-64 VM, so the
// open loop keeps headroom when the shared host is several times slower;
// README.md says why not a half or a quarter. cgi-miss is at about a quarter.
const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> kSpecs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec miss;
    miss.name = "cgi-miss";
    miss.nodes = 1;
    miss.hot_pool = false;
    miss.offered_rps = 150;
    v.push_back(miss);

    WorkloadSpec hit;
    hit.name = "hit-cluster";
    hit.nodes = 3;
    hit.directory_mode = "replicated";
    hit.offered_rps = 3000;
    v.push_back(hit);

    WorkloadSpec expiry;
    expiry.name = "expiry-write";
    expiry.nodes = 3;
    expiry.directory_mode = "partitioned";
    expiry.store = "volume";
    expiry.ttl_seconds = 5;
    expiry.invalidate_fraction = 0.001;
    expiry.offered_rps = 3000;
    v.push_back(expiry);
    return v;
  }();
  return kSpecs;
}

/// The qid parameter of an adl_synth CGI target.
std::uint64_t adl_qid(const std::string& target) {
  std::uint64_t qid = 0;
  const auto pos = target.find('?');
  swalabench::query_u64(target.c_str() + pos + 1, "qid", &qid);
  return qid;
}

/// One cost (seconds) per distinct ADL query, drawn once from adl_synth's
/// lognormals with its default seed, in adl_synth's draw order. The site is
/// fixed, as a real site's queries cost what they cost whoever asks; the
/// run's seed varies only the traffic (which queries, in what order, to
/// which node).
struct SiteCosts {
  std::vector<double> hot, cold;
};

const SiteCosts& site_costs() {
  static const SiteCosts kCosts = [] {
    const swala::workload::AdlOptions o;
    swala::Rng rng(o.seed);
    const auto draw = [&](double mu, double sigma) {
      return std::clamp(rng.lognormal(mu, sigma), o.cgi_min_seconds, o.cgi_max_seconds);
    };
    SiteCosts c;
    for (std::size_t i = 0; i < o.hot_queries; ++i) {
      c.hot.push_back(draw(o.hot_lognormal_mu, o.hot_lognormal_sigma));
    }
    for (std::size_t i = 0; i < o.cold_queries; ++i) {
      c.cold.push_back(draw(o.cold_lognormal_mu, o.cold_lognormal_sigma));
    }
    return c;
  }();
  return kCosts;
}

// Cold ids live above the hot pool so the two can never collide.
constexpr std::uint64_t kColdBase = 1000000;

std::string percent_encode(std::string_view text) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const unsigned char c : text) {
    if (std::isalnum(c) != 0 || c == '-' || c == '_' || c == '.') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 15]);
    }
  }
  return out;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& w : specs()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& w : specs()) names.push_back(w.name);
  return names;
}

StaticFiles make_static_files(const std::string& docroot) {
  StaticFiles files;
  auto paths = swala::workload::make_webstone_docroot(docroot);
  if (!paths) return files;
  for (const auto& path : paths.value()) {
    // Read back what was written, so the check compares the bytes on disk.
    std::string content;
    if (FILE* f = std::fopen((docroot + path).c_str(), "rb")) {
      char buf[65536];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
      std::fclose(f);
    }
    files[path] = std::move(content);
  }
  return files;
}

std::vector<Request> make_requests(const WorkloadSpec& w, std::uint64_t seed,
                                   std::size_t count) {
  swala::workload::AdlOptions adl;
  adl.total_requests = count;
  adl.cgi_fraction = w.hot_pool ? adl.cgi_fraction : 1.0;
  adl.hot_fraction = w.hot_pool ? 1.0 : 0.0;
  adl.seed = seed;
  const auto trace = swala::workload::synthesize_adl_trace(adl);

  // Node choice, static targets and invalidations draw from their own
  // stream so the ADL part stays exactly adl_synth's sequence.
  swala::Rng rng(seed ^ 0x5357414C41424E43ULL);
  std::vector<Request> out;
  out.reserve(count);
  for (const auto& rec : trace) {
    Request r;
    r.node = w.nodes > 1 ? static_cast<int>(rng.uniform_int(0, w.nodes - 1))
                         : 0;
    if (!rec.is_cgi) {
      r.kind = Kind::kStatic;
      r.target = swala::workload::sample_webstone_target(rng);
      out.push_back(std::move(r));
      continue;
    }
    const std::uint64_t qid = adl_qid(rec.target);
    if (w.invalidate_fraction > 0 && rng.bernoulli(w.invalidate_fraction)) {
      r.kind = Kind::kInvalidate;
      r.target = "/swala-admin/invalidate?pattern=" +
                 percent_encode("*?q=" + std::to_string(qid) + "&*");
      out.push_back(std::move(r));
      continue;
    }
    r.kind = Kind::kCgi;
    r.q = w.hot_pool ? qid : kColdBase + qid;
    r.bytes = static_cast<std::uint32_t>(4096 + (r.q % 64) * 256);
    const double cost = w.hot_pool ? site_costs().hot.at(qid) : site_costs().cold.at(qid);
    const auto cost_us = static_cast<std::uint64_t>(std::llround(cost * kCostScale * 1e6));
    r.target = "/cgi-bin/adl?q=" + std::to_string(r.q) +
               "&cost_us=" + std::to_string(cost_us) +
               "&bytes=" + std::to_string(r.bytes);
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Request> warmup_requests(const WorkloadSpec& w,
                                     const std::vector<Request>& stream,
                                     std::uint64_t seed) {
  std::vector<Request> out;
  if (!w.hot_pool) return out;
  swala::Rng rng(seed ^ 0x5741524D5550ULL);
  std::set<std::string> seen;
  for (const auto& r : stream) {
    if (r.kind != Kind::kCgi || !seen.insert(r.target).second) continue;
    Request warm = r;
    warm.node = static_cast<int>(rng.uniform_int(0, w.nodes - 1));
    out.push_back(std::move(warm));
  }
  return out;
}

std::string expected_cgi_body(std::uint64_t q, std::uint32_t bytes) {
  std::string body(bytes, '\0');
  adl_fill(q, body.data(), bytes);
  return body;
}

}  // namespace swalabench
