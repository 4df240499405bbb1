#include "server/static_files.h"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>

#include "http/date.h"
#include "http/mime.h"
#include "net/fd.h"

namespace swala::server {

struct StaticFileCache::Entry {
  // The file version the entry holds.
  dev_t dev = 0;
  ino_t ino = 0;
  off_t size = 0;
  timespec mtime{};
  // Response headers, built once.
  std::string content_type;
  std::string content_length;
  std::string last_modified;
  std::string body;  // the whole file; empty unless retained

  bool same_version(const struct stat& st) const {
    return st.st_dev == dev && st.st_ino == ino && st.st_size == size &&
           st.st_mtim.tv_sec == mtime.tv_sec &&
           st.st_mtim.tv_nsec == mtime.tv_nsec;
  }
};

namespace {

/// A file modified less than this long before it is read is served but not
/// retained: a further same-size write within the same timestamp tick (up
/// to a second on some file systems) would leave its stat() unchanged.
constexpr std::int64_t kSettleNs = 1'000'000'000;

bool settled(const struct stat& st) {
  timespec now{};
  ::clock_gettime(CLOCK_REALTIME, &now);
  const std::int64_t age =
      (static_cast<std::int64_t>(now.tv_sec) - st.st_mtim.tv_sec) *
          1'000'000'000 +
      (now.tv_nsec - st.st_mtim.tv_nsec);
  return age >= kSettleNs;
}

/// Reads `size` bytes from offset 0 into `out`. False on an error or when
/// the file was truncated after its fstat.
bool read_whole(int fd, std::size_t size, std::string* out) {
  out->resize(size);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, out->data() + done, size - done,
                              static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// The response for `entry` without its body; `send_body` says whether the
/// body belongs in it (not for HEAD, a 304 or an empty file).
http::Response head_for(const StaticFileCache::Entry& entry,
                        const http::Request& request, bool* send_body) {
  *send_body = false;
  // Conditional GET: If-Modified-Since lets 1990s-era clients and proxies
  // revalidate cheaply with a 304.
  if (const auto ims = request.headers.get("If-Modified-Since")) {
    const auto since = http::parse_http_date(*ims);
    if (since && entry.mtime.tv_sec <= *since) {
      http::Response not_modified;
      not_modified.status = 304;
      not_modified.headers.set("Last-Modified", entry.last_modified);
      return not_modified;
    }
  }
  http::Response resp;
  resp.status = 200;
  resp.headers.set("Content-Type", entry.content_type);
  resp.headers.set("Content-Length", entry.content_length);
  resp.headers.set("Last-Modified", entry.last_modified);
  *send_body = request.method != http::Method::kHead && entry.size > 0;
  return resp;
}

}  // namespace

http::Response StaticFileCache::serve(const std::string& path,
                                      const http::Request& request) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
    forget(path);
    return http::Response::error(404, request.uri.path);
  }
  const std::shared_ptr<const Entry> entry = find(path, st);
  if (entry == nullptr) return load(path, request);
  hits_.fetch_add(1, std::memory_order_relaxed);
  bool send_body = false;
  http::Response resp = head_for(*entry, request, &send_body);
  if (send_body) resp.body = entry->body;
  return resp;
}

http::Response StaticFileCache::load(const std::string& path,
                                     const http::Request& request) {
  loads_.fetch_add(1, std::memory_order_relaxed);
  const net::UniqueFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  // The entry describes the opened fd, so its headers and bytes agree even
  // if the path is replaced meanwhile.
  struct stat st{};
  if (!fd.valid() || ::fstat(fd.get(), &st) != 0 || !S_ISREG(st.st_mode)) {
    return http::Response::error(404, request.uri.path);
  }
  auto entry = std::make_shared<Entry>();
  entry->dev = st.st_dev;
  entry->ino = st.st_ino;
  entry->size = st.st_size;
  entry->mtime = st.st_mtim;
  entry->content_type = http::mime_type_for_path(path);
  entry->content_length = std::to_string(st.st_size);
  entry->last_modified = http::format_http_date(st.st_mtime);

  const auto size = static_cast<std::size_t>(st.st_size);
  const bool keep = size <= kMaxFileBytes && settled(st);
  if (keep) {
    if (!read_whole(fd.get(), size, &entry->body)) {
      return http::Response::error(500, "read failed");
    }
    retain(path, entry);
  } else {
    forget(path);  // drop an older version that was retained
  }
  bool send_body = false;
  http::Response resp = head_for(*entry, request, &send_body);
  if (!send_body) return resp;
  if (keep) {
    resp.body = entry->body;
  } else if (!read_whole(fd.get(), size, &resp.body)) {
    // Not retained: read straight into the response, never via a copy.
    return http::Response::error(500, "read failed");
  }
  return resp;
}

std::shared_ptr<const StaticFileCache::Entry> StaticFileCache::find(
    const std::string& path, const struct stat& st) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(path);
  if (it == entries_.end() || !it->second->same_version(st)) return nullptr;
  return it->second;
}

void StaticFileCache::retain(const std::string& path,
                             std::shared_ptr<const Entry> entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  erase_locked(path);
  // Over budget: evict in table order. Readers holding an evicted entry
  // keep it alive until their response is built.
  while (!entries_.empty() &&
         bytes_ + entry->body.size() > kBudgetBytes) {
    bytes_ -= entries_.begin()->second->body.size();
    entries_.erase(entries_.begin());
  }
  bytes_ += entry->body.size();
  entries_.emplace(path, std::move(entry));
}

void StaticFileCache::forget(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  erase_locked(path);
}

void StaticFileCache::erase_locked(const std::string& path) {
  if (const auto it = entries_.find(path); it != entries_.end()) {
    bytes_ -= it->second->body.size();
    entries_.erase(it);
  }
}

StaticCacheStats StaticFileCache::stats() const {
  StaticCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.loads = loads_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  s.bytes = bytes_;
  return s;
}

}  // namespace swala::server
