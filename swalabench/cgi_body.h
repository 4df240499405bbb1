// The scripted-cost CGI program's output, shared by the program itself
// (adl_cgi.cc) and by the load generator's byte-exact check. The body is a
// pure function of the query id and the requested size, so any byte the
// server corrupts, truncates or mixes up between keys shows as a mismatch.
// Dependency-free on purpose: adl_cgi links nothing beyond libc, so its
// fork/exec cost is the process-creation cost the paper measures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace swalabench {

/// Fills `out[0, bytes)` with the body for query `q`: a "adl q=<q>\n" line
/// followed by splitmix64-derived lowercase letters.
inline void adl_fill(std::uint64_t q, char* out, std::size_t bytes) {
  char head[32];
  const int n = std::snprintf(head, sizeof head, "adl q=%llu\n",
                              static_cast<unsigned long long>(q));
  std::size_t pos = 0;
  for (int i = 0; i < n && pos < bytes; ++i) out[pos++] = head[i];
  std::uint64_t x = q * 0x9E3779B97F4A7C15ULL + 0x243F6A8885A308D3ULL;
  while (pos < bytes) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    for (int i = 0; i < 8 && pos < bytes; ++i, z >>= 8) {
      out[pos++] = static_cast<char>('a' + (z & 0xFF) % 26);
    }
  }
}

/// Reads the unsigned integer parameter `name` from a query string
/// ("q=7&cost_us=120&bytes=4096"); false when absent or malformed.
inline bool query_u64(const char* query, const char* name,
                      std::uint64_t* value) {
  const std::size_t len = std::strlen(name);
  const char* p = query;
  while (p != nullptr && *p != '\0') {
    if (std::strncmp(p, name, len) == 0 && p[len] == '=') {
      const char* digits = p + len + 1;
      if (*digits < '0' || *digits > '9') return false;
      std::uint64_t v = 0;
      while (*digits >= '0' && *digits <= '9') {
        v = v * 10 + static_cast<std::uint64_t>(*digits - '0');
        ++digits;
      }
      *value = v;
      return true;
    }
    p = std::strchr(p, '&');
    if (p != nullptr) ++p;
  }
  return false;
}

}  // namespace swalabench
