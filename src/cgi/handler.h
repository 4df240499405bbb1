// CGI execution abstraction. Two implementations exist:
//   * ScriptedCgi  — in-process handler with a configurable compute model;
//                    deterministic, used by tests and benchmark workloads.
//   * ProcessCgi   — real external program, posix_spawn'd once per request
//                    (RFC 3875 style),
//                    used by the quickstart example and Figure-3 experiments.
// The Swala request threads see only this interface, mirroring the paper's
// point that the cache lives *inside* the server, in front of CGI dispatch.
#pragma once

#include <memory>
#include <string>

#include "common/deadline.h"
#include "common/status.h"
#include "http/message.h"

namespace swala::cgi {

/// What a CGI program produced.
struct CgiOutput {
  int http_status = 200;                    ///< from a "Status:" CGI header
  std::string content_type = "text/html";  ///< from "Content-Type:"
  std::string body;
  bool success = true;  ///< exit code 0 and well-formed output

  /// Total bytes a cache entry for this output occupies.
  std::size_t size_bytes() const { return body.size(); }
};

/// A runnable dynamic-content generator.
class CgiHandler {
 public:
  virtual ~CgiHandler() = default;

  /// Executes the program for `request`. Implementations must be thread-safe:
  /// Swala runs many request threads concurrently.
  virtual Result<CgiOutput> run(const http::Request& request) = 0;

  /// Deadline-aware entry point used by the server's request path. The
  /// default ignores the deadline (in-process handlers finish on their own
  /// schedule); ProcessCgi overrides it to cap the child's lifetime at the
  /// remaining request budget.
  virtual Result<CgiOutput> run(const http::Request& request,
                                const Deadline& deadline) {
    (void)deadline;
    return run(request);
  }
};

using CgiHandlerPtr = std::shared_ptr<CgiHandler>;

/// Parses a CGI response document: optional header block ("Content-Type:",
/// "Status: 404 Not Found", ...) separated from the body by a blank line.
/// Input with no header block is treated as a bare text/html body.
CgiOutput parse_cgi_document(std::string_view raw, int exit_code);

}  // namespace swala::cgi
