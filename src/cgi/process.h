// Real CGI execution: posix_spawn one fresh process per request with an
// RFC 3875-style environment, feed it the request body on stdin, capture
// stdout. This is the call mechanism whose process-creation overhead the
// paper's Figure 3 measures.
#pragma once

#include <string>
#include <vector>

#include "cgi/handler.h"

namespace swala::cgi {

/// Options controlling process execution.
struct ProcessOptions {
  double timeout_seconds = 30.0;       ///< kill and fail after this long
  std::size_t max_output_bytes = 16 * 1024 * 1024;
  std::vector<std::pair<std::string, std::string>> extra_env;
};

/// Executes one specific program for every matching request.
class ProcessCgi final : public CgiHandler {
 public:
  ProcessCgi(std::string executable, ProcessOptions options = {});

  Result<CgiOutput> run(const http::Request& request) override;

  /// Deadline-aware run: the child's timeout is the smaller of the
  /// configured `timeout_seconds` and the remaining request budget, so a
  /// slow CGI is SIGKILLed at the request deadline, not long after it.
  Result<CgiOutput> run(const http::Request& request,
                        const Deadline& deadline) override;

  const std::string& executable() const { return executable_; }

 private:
  std::string executable_;
  ProcessOptions options_;
};

/// Low-level runner shared by ProcessCgi and tests: execs `argv[0]` with the
/// CGI environment for `request`, returns raw stdout and the exit code.
struct ProcessResult {
  int exit_code = -1;
  std::string stdout_data;
  bool timed_out = false;   ///< deadline hit; child's group was SIGKILLed
  bool oversized = false;   ///< output exceeded max_output_bytes; killed
};

Result<ProcessResult> run_cgi_process(const std::string& executable,
                                      const http::Request& request,
                                      const ProcessOptions& options);

/// Each CGI child leads its own process group, out of reach of a signal
/// sent to the server's group. SIGKILLs every group whose leader is still
/// running (the server's stop path calls this once requests are drained);
/// returns how many groups were signalled.
std::size_t kill_live_process_groups();

}  // namespace swala::cgi
