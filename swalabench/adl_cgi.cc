// adl_cgi: the benchmark's scripted-cost CGI program.
//
//   QUERY_STRING = q=<id>&cost_us=<cpu microseconds>&bytes=<body size>
//
// Burns `cost_us` of process CPU time (ADL queries were CPU-bound) and then
// prints the deterministic body from cgi_body.h. The workload generator
// draws `cost_us` from the ADL lognormal scaled down by a fixed factor.
#include <ctime>
#include <unistd.h>

#include <cstdlib>

#include "cgi_body.h"

namespace {

std::uint64_t cpu_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000u +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000u;
}

bool write_all(const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(STDOUT_FILENO, data, size);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int main() {
  const std::uint64_t start = cpu_us();
  const char* query = std::getenv("QUERY_STRING");
  std::uint64_t q = 0, cost_us = 0, bytes = 0;
  if (query == nullptr || !swalabench::query_u64(query, "q", &q) ||
      !swalabench::query_u64(query, "cost_us", &cost_us) ||
      !swalabench::query_u64(query, "bytes", &bytes) || bytes > (1u << 24)) {
    static const char kBad[] = "Status: 400 Bad Request\n\nbad query\n";
    write_all(kBad, sizeof kBad - 1);
    return 0;
  }

  // The work itself: a dependent multiply chain the compiler cannot drop,
  // checked against the CPU clock every few thousand steps.
  volatile std::uint64_t sink = q;
  std::uint64_t x = q | 1;
  while (cpu_us() - start < cost_us) {
    for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ULL + 1;
    sink = x;
  }
  (void)sink;

  char* body = static_cast<char*>(std::malloc(bytes + 1));
  if (body == nullptr) return 1;
  swalabench::adl_fill(q, body, bytes);
  static const char kHead[] = "Content-Type: text/plain\n\n";
  const bool ok = write_all(kHead, sizeof kHead - 1) && write_all(body, bytes);
  std::free(body);
  return ok ? 0 : 1;
}
