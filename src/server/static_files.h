// Docroot files served from memory, revalidated against the file system on
// every request (the "fresh enough to serve?" check of an HTTP cache, with
// the file system as the origin). A file is read once with pread and kept;
// a request then costs one stat(), and the entry answers it while the
// file's device, inode, size and mtime are unchanged.
#pragma once

#include <sys/stat.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "http/message.h"

namespace swala::server {

struct StaticCacheStats {
  std::uint64_t hits = 0;   ///< responses answered from a retained entry
  std::uint64_t loads = 0;  ///< files opened and read from disk
  std::uint64_t bytes = 0;  ///< file bytes retained now
};

/// Thread-safe. Each server owns one (in its ServeContext); nothing is
/// shared between servers in a process.
class StaticFileCache {
 public:
  /// Largest file retained; larger ones are read per request. The WebStone
  /// docroot's largest file is exactly this size.
  static constexpr std::size_t kMaxFileBytes = std::size_t{1} << 20;
  /// Total retained bytes; past it, retaining a file evicts others.
  static constexpr std::size_t kBudgetBytes = std::size_t{32} << 20;

  /// Answers a GET or HEAD (with If-Modified-Since) for the file at `path`,
  /// already resolved under the docroot: 200, 304, 404 when it is missing
  /// or not a regular file, 500 when it cannot be read whole.
  http::Response serve(const std::string& path, const http::Request& request);

  StaticCacheStats stats() const;

  struct Entry;  // one file version and its response headers

 private:
  http::Response load(const std::string& path, const http::Request& request);
  std::shared_ptr<const Entry> find(const std::string& path,
                                    const struct stat& st) const;
  void retain(const std::string& path, std::shared_ptr<const Entry> entry);
  void forget(const std::string& path);
  void erase_locked(const std::string& path);  // caller holds mutex_

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const Entry>> entries_;
  std::size_t bytes_ = 0;  // guarded by mutex_
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> loads_{0};
};

}  // namespace swala::server
