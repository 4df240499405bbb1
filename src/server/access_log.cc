#include "server/access_log.h"

#include "common/strings.h"

namespace swala::server {

AccessLog::~AccessLog() { close(); }

Status AccessLog::open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path.c_str(), "ae");  // close-on-exec: CGI never inherits it
  if (file_ == nullptr) {
    return Status(StatusCode::kIoError, "cannot open access log: " + path);
  }
  return Status::ok();
}

void AccessLog::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool AccessLog::is_open() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return file_ != nullptr;
}

std::string AccessLog::format(const AccessRecord& record) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "ts=%.6f \"%s %s %s\" %d %llu service=%.6f dyn=%d cache=%s",
                record.timestamp, record.method.c_str(), record.target.c_str(),
                record.version.c_str(), record.status,
                static_cast<unsigned long long>(record.bytes),
                record.service_seconds, record.dynamic ? 1 : 0,
                record.cache_state.empty() ? "-" : record.cache_state.c_str());
  return buf;
}

void AccessLog::log(const AccessRecord& record) {
  const std::string line = format(record);
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;
  std::fputs(line.c_str(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

Result<workload::Trace> load_access_log_trace(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return Status(StatusCode::kNotFound, "cannot open access log: " + path);
  }
  workload::Trace trace;
  char buf[2048];
  double first_ts = -1.0;
  while (std::fgets(buf, sizeof(buf), file) != nullptr) {
    AccessRecord record;
    if (!parse_access_line(buf, &record)) continue;
    if (first_ts < 0) first_ts = record.timestamp;
    workload::TraceRecord r;
    r.arrival_seconds = record.timestamp - first_ts;
    r.target = record.target;
    r.is_cgi = record.dynamic;
    r.service_seconds = record.service_seconds;
    r.response_bytes = record.bytes;
    trace.push_back(std::move(r));
  }
  std::fclose(file);
  return trace;
}

bool parse_access_line(std::string_view line, AccessRecord* out) {
  *out = AccessRecord{};
  line = trim(line);
  if (line.empty()) return false;

  // ts=...
  if (!starts_with(line, "ts=")) return false;
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  if (!parse_double(line.substr(3, sp1 - 3), &out->timestamp)) return false;

  // "METHOD target version"
  const std::size_t quote1 = line.find('"', sp1);
  if (quote1 == std::string_view::npos) return false;
  const std::size_t quote2 = line.find('"', quote1 + 1);
  if (quote2 == std::string_view::npos) return false;
  const auto request = split_trimmed(line.substr(quote1 + 1, quote2 - quote1 - 1), ' ');
  if (request.size() != 3) return false;
  out->method = request[0];
  out->target = request[1];
  out->version = request[2];

  // status bytes service= dyn= cache=
  const auto rest = split_trimmed(line.substr(quote2 + 1), ' ');
  if (rest.size() != 5) return false;
  std::uint64_t status = 0;
  if (!parse_u64(rest[0], &status) || status < 100 || status > 599) return false;
  out->status = static_cast<int>(status);
  if (!parse_u64(rest[1], &out->bytes)) return false;
  if (!starts_with(rest[2], "service=") ||
      !parse_double(std::string_view(rest[2]).substr(8), &out->service_seconds)) {
    return false;
  }
  if (rest[3] == "dyn=1") {
    out->dynamic = true;
  } else if (rest[3] == "dyn=0") {
    out->dynamic = false;
  } else {
    return false;
  }
  if (!starts_with(rest[4], "cache=")) return false;
  out->cache_state = std::string(std::string_view(rest[4]).substr(6));
  return true;
}

}  // namespace swala::server
