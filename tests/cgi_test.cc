// Tests for the CGI layer: document parsing, scripted handlers, registry
// dispatch, and real posix_spawn execution of the bundled nullcgi program.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <set>
#include <sstream>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cgi/handler.h"
#include "cgi/process.h"
#include "cgi/registry.h"
#include "cgi/scripted.h"
#include "core/manager.h"
#include "http/message.h"
#include "net/socket.h"

#ifndef SWALA_NULLCGI_PATH
#define SWALA_NULLCGI_PATH "./nullcgi"
#endif

namespace swala::cgi {
namespace {

http::Request make_request(const std::string& target) {
  http::Request req;
  req.method = http::Method::kGet;
  req.target = target;
  EXPECT_TRUE(http::parse_uri(target, &req.uri));
  return req;
}

// Writes an executable shell script and returns its path.
std::string write_script(const std::string& path, const char* text) {
  FILE* f = fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return path;
  fputs(text, f);
  fclose(f);
  chmod(path.c_str(), 0755);
  return path;
}

constexpr char kNullCgiOutput[] =
    "Content-Type: text/html\n\n<html><body>null cgi</body></html>\n";

// ---- parse_cgi_document ----

TEST(CgiDocumentTest, HeaderBlockParsed) {
  const auto out = parse_cgi_document(
      "Content-Type: text/plain\nStatus: 404 Not Found\n\nbody text", 0);
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.content_type, "text/plain");
  EXPECT_EQ(out.http_status, 404);
  EXPECT_EQ(out.body, "body text");
}

TEST(CgiDocumentTest, CrlfHeaders) {
  const auto out =
      parse_cgi_document("Content-Type: image/gif\r\n\r\nGIF89a...", 0);
  EXPECT_EQ(out.content_type, "image/gif");
  EXPECT_EQ(out.body, "GIF89a...");
}

TEST(CgiDocumentTest, NoHeadersTreatedAsBody) {
  const auto out = parse_cgi_document("just output\n\nwith blank line", 0);
  EXPECT_EQ(out.content_type, "text/html");
  EXPECT_EQ(out.body, "just output\n\nwith blank line");
}

TEST(CgiDocumentTest, NonZeroExitIsFailure) {
  const auto out = parse_cgi_document("Content-Type: text/html\n\nx", 3);
  EXPECT_FALSE(out.success);
}

TEST(CgiDocumentTest, EmptyOutput) {
  const auto out = parse_cgi_document("", 0);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(out.body.empty());
}

TEST(CgiDocumentTest, BogusStatusIgnored) {
  const auto out = parse_cgi_document("Status: banana\n\nx", 0);
  EXPECT_EQ(out.http_status, 200);
}

// ---- ScriptedCgi ----

TEST(ScriptedCgiTest, DeterministicOutputForSameTarget) {
  ScriptedOptions opts;
  opts.output_bytes = 256;
  ScriptedCgi cgi(opts);
  const auto req = make_request("/cgi-bin/x?q=1");
  auto a = cgi.run(req);
  auto b = cgi.run(req);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  // Bodies differ only in the execution counter comment line.
  EXPECT_EQ(a.value().body.substr(a.value().body.find('\n')),
            b.value().body.substr(b.value().body.find('\n')));
  EXPECT_EQ(cgi.execution_count(), 2u);
}

TEST(ScriptedCgiTest, DifferentTargetsDifferentBodies) {
  ScriptedCgi cgi(ScriptedOptions{.output_bytes = 128});
  auto a = cgi.run(make_request("/cgi-bin/x?q=1"));
  auto b = cgi.run(make_request("/cgi-bin/x?q=2"));
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_NE(a.value().body, b.value().body);
}

TEST(ScriptedCgiTest, OutputSizeRespected) {
  ScriptedCgi cgi(ScriptedOptions{.output_bytes = 1000});
  auto out = cgi.run(make_request("/cgi-bin/big"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().body.size(), 1000u);
}

TEST(ScriptedCgiTest, SleepModeTakesTime) {
  ScriptedOptions opts;
  opts.mode = ComputeMode::kSleep;
  opts.service_seconds = 0.05;
  ScriptedCgi cgi(opts);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(cgi.run(make_request("/cgi-bin/slow")).is_ok());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed.count(), 0.045);
}

TEST(ScriptedCgiTest, BusyModeTakesTime) {
  ScriptedOptions opts;
  opts.mode = ComputeMode::kBusy;
  opts.service_seconds = 0.02;
  ScriptedCgi cgi(opts);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(cgi.run(make_request("/cgi-bin/busy")).is_ok());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed.count(), 0.015);
}

TEST(ScriptedCgiTest, CostFromQueryOverrides) {
  ScriptedOptions opts;
  opts.mode = ComputeMode::kSleep;
  opts.service_seconds = 10.0;  // would time the test out if used
  opts.cost_from_query = true;
  ScriptedCgi cgi(opts);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(cgi.run(make_request("/cgi-bin/q?cost=0.01")).is_ok());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 1.0);
}

TEST(ScriptedCgiTest, FailureMode) {
  ScriptedCgi cgi(ScriptedOptions{.fail = true});
  auto out = cgi.run(make_request("/cgi-bin/broken"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_FALSE(out.value().success);
  EXPECT_EQ(out.value().http_status, 500);
}

TEST(DeterministicBodyTest, SeedAndLength) {
  EXPECT_EQ(deterministic_body(1, 64), deterministic_body(1, 64));
  EXPECT_NE(deterministic_body(1, 64), deterministic_body(2, 64));
  EXPECT_EQ(deterministic_body(9, 500).size(), 500u);
}

TEST(LambdaCgiTest, WrapsCallable) {
  LambdaCgi cgi([](const http::Request& req) -> swala::Result<CgiOutput> {
    CgiOutput out;
    out.success = true;
    out.body = "echo:" + req.uri.raw_query;
    return out;
  });
  auto out = cgi.run(make_request("/cgi-bin/echo?x=1"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().body, "echo:x=1");
}

TEST(LambdaCgiTest, PropagatesErrors) {
  LambdaCgi cgi([](const http::Request&) -> swala::Result<CgiOutput> {
    return swala::Status(swala::StatusCode::kInternal, "backend down");
  });
  auto out = cgi.run(make_request("/cgi-bin/x"));
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), swala::StatusCode::kInternal);
}

// ---- registry ----

TEST(RegistryTest, ExactAndPrefixMounts) {
  HandlerRegistry registry;
  auto a = std::make_shared<ScriptedCgi>(ScriptedOptions{});
  auto b = std::make_shared<ScriptedCgi>(ScriptedOptions{});
  registry.mount("/cgi-bin/", a);
  registry.mount("/cgi-bin/special", b);

  EXPECT_EQ(registry.find("/cgi-bin/anything"), a);
  EXPECT_EQ(registry.find("/cgi-bin/special"), b);  // longest match wins
  EXPECT_EQ(registry.find("/static/x.html"), nullptr);
  EXPECT_TRUE(registry.is_dynamic("/cgi-bin/q"));
  EXPECT_FALSE(registry.is_dynamic("/cgi-bin"));  // prefix requires the '/'
  EXPECT_EQ(registry.size(), 2u);
}

TEST(RegistryTest, RemountReplaces) {
  HandlerRegistry registry;
  auto a = std::make_shared<ScriptedCgi>(ScriptedOptions{});
  auto b = std::make_shared<ScriptedCgi>(ScriptedOptions{});
  registry.mount("/x", a);
  registry.mount("/x", b);
  EXPECT_EQ(registry.find("/x"), b);
  EXPECT_EQ(registry.size(), 1u);
}

// ---- ProcessCgi (real posix_spawn) ----

TEST(ProcessCgiTest, RunsNullCgi) {
  ProcessCgi cgi(SWALA_NULLCGI_PATH);
  auto out = cgi.run(make_request("/cgi-bin/null?x=1"));
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_TRUE(out.value().success);
  EXPECT_EQ(out.value().content_type, "text/html");
  EXPECT_NE(out.value().body.find("null cgi"), std::string::npos);
}

TEST(ProcessCgiTest, MissingExecutableFails) {
  ProcessCgi cgi("/nonexistent/program");
  auto out = cgi.run(make_request("/cgi-bin/x"));
  // The exec fails, which reports exit code 127 and so an unsuccessful run.
  ASSERT_TRUE(out.is_ok());
  EXPECT_FALSE(out.value().success);
}

TEST(ProcessCgiTest, EnvironmentReachesChild) {
  // /bin/sh -c style program is overkill; use a tiny shell script.
  const std::string script = "/tmp/swala_test_cgi_env.sh";
  {
    FILE* f = fopen(script.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("#!/bin/sh\nprintf 'Content-Type: text/plain\\n\\nQ=%s M=%s\\n' \"$QUERY_STRING\" \"$REQUEST_METHOD\"\n", f);
    fclose(f);
    chmod(script.c_str(), 0755);
  }
  ProcessCgi cgi(script);
  auto out = cgi.run(make_request("/cgi-bin/env?alpha=beta"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_TRUE(out.value().success);
  EXPECT_NE(out.value().body.find("Q=alpha=beta"), std::string::npos);
  EXPECT_NE(out.value().body.find("M=GET"), std::string::npos);
  unlink(script.c_str());
}

TEST(ProcessCgiTest, TimeoutKillsChild) {
  const std::string script = "/tmp/swala_test_cgi_sleep.sh";
  {
    FILE* f = fopen(script.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("#!/bin/sh\nsleep 30\n", f);
    fclose(f);
    chmod(script.c_str(), 0755);
  }
  ProcessOptions opts;
  opts.timeout_seconds = 0.2;
  ProcessCgi cgi(script, opts);
  const auto start = std::chrono::steady_clock::now();
  auto out = cgi.run(make_request("/cgi-bin/sleep"));
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(out.is_ok());
  EXPECT_FALSE(out.value().success);
  EXPECT_EQ(out.value().http_status, 504);
  EXPECT_LT(elapsed.count(), 5.0);
  unlink(script.c_str());
}

// ---- failure paths: exec errors, runaway children, failed executions ----

TEST(ProcessCgiTest, ExecFailureReportsExit127) {
  ProcessOptions opts;
  auto result = run_cgi_process("/nonexistent/program",
                                make_request("/cgi-bin/x"), opts);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().exit_code, 127);  // shell convention: exec failed
  EXPECT_FALSE(result.value().timed_out);
  EXPECT_FALSE(result.value().oversized);
}

TEST(ProcessCgiTest, TimeoutFlagSetAndNotConfusedWithOversize) {
  const std::string script = "/tmp/swala_test_cgi_hang.sh";
  {
    FILE* f = fopen(script.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("#!/bin/sh\nsleep 30\n", f);
    fclose(f);
    chmod(script.c_str(), 0755);
  }
  ProcessOptions opts;
  opts.timeout_seconds = 0.2;
  auto result = run_cgi_process(script, make_request("/cgi-bin/hang"), opts);
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result.value().timed_out);
  EXPECT_FALSE(result.value().oversized);
  unlink(script.c_str());
}

/// Processes of group `pgid` that have not exited (zombies awaiting their
/// reaper count as gone), read from /proc.
int live_in_group(pid_t pgid) {
  int live = 0;
  DIR* proc = opendir("/proc");
  if (proc == nullptr) return -1;
  while (const dirent* e = readdir(proc)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    FILE* f = fopen((std::string("/proc/") + e->d_name + "/stat").c_str(), "r");
    if (f == nullptr) continue;  // exited while we looked
    char line[1024] = {0};
    const bool ok = fgets(line, sizeof(line), f) != nullptr;
    fclose(f);
    const char* rparen = ok ? strrchr(line, ')') : nullptr;
    char state = 0;
    int ppid = 0;
    int pgrp = 0;
    if (rparen != nullptr &&
        sscanf(rparen + 1, " %c %d %d", &state, &ppid, &pgrp) == 3 &&
        pgrp == pgid && state != 'Z') {
      ++live;
    }
  }
  closedir(proc);
  return live;
}

/// Writes a script that records its pid (its process group id) in
/// `pid_file`, then waits on a `sleep` child of its own.
void write_forking_sleeper(const std::string& script,
                           const std::string& pid_file) {
  FILE* f = fopen(script.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fprintf(f, "#!/bin/sh\necho $$ > %s\nsleep 30\n", pid_file.c_str());
  fclose(f);
  chmod(script.c_str(), 0755);
}

pid_t read_pid(const std::string& pid_file) {
  FILE* f = fopen(pid_file.c_str(), "r");
  if (f == nullptr) return -1;
  int pid = -1;
  if (fscanf(f, "%d", &pid) != 1) pid = -1;
  fclose(f);
  return pid;
}

TEST(ProcessCgiTest, TimeoutKillsTheWholeProcessGroup) {
  const std::string script = "/tmp/swala_test_cgi_group.sh";
  const std::string pid_file = "/tmp/swala_test_cgi_group.pid";
  unlink(pid_file.c_str());
  write_forking_sleeper(script, pid_file);
  ProcessOptions opts;
  opts.timeout_seconds = 0.3;
  const auto start = std::chrono::steady_clock::now();
  auto result = run_cgi_process(script, make_request("/cgi-bin/group"), opts);
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result.value().timed_out);
  // The script's own `sleep 30` held the output pipe open until it was
  // killed with its parent; the run ends at the deadline.
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 2.0);
  const pid_t pgid = read_pid(pid_file);
  ASSERT_GT(pgid, 0);
  int live = live_in_group(pgid);
  for (int i = 0; i < 200 && live != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    live = live_in_group(pgid);
  }
  EXPECT_EQ(live, 0) << "process group " << pgid << " outlived its deadline";
  unlink(script.c_str());
  unlink(pid_file.c_str());
}

TEST(ProcessCgiTest, KillLiveProcessGroupsEndsRunningCgi) {
  const std::string script = "/tmp/swala_test_cgi_stop.sh";
  const std::string pid_file = "/tmp/swala_test_cgi_stop.pid";
  unlink(pid_file.c_str());
  write_forking_sleeper(script, pid_file);
  ProcessOptions opts;
  opts.timeout_seconds = 20.0;
  const auto start = std::chrono::steady_clock::now();
  Result<ProcessResult> result = Status(StatusCode::kInternal, "not run");
  std::thread runner([&] {
    result = run_cgi_process(script, make_request("/cgi-bin/stop"), opts);
  });
  pid_t pgid = -1;
  for (int i = 0; i < 500 && pgid <= 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    pgid = read_pid(pid_file);
  }
  // The stop path: every CGI group still running is killed.
  EXPECT_GE(kill_live_process_groups(), 1u);
  runner.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 10.0);
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result.value().timed_out);
  EXPECT_EQ(result.value().exit_code, -1);  // killed by a signal
  ASSERT_GT(pgid, 0);
  int live = live_in_group(pgid);
  for (int i = 0; i < 200 && live != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    live = live_in_group(pgid);
  }
  EXPECT_EQ(live, 0);
  unlink(script.c_str());
  unlink(pid_file.c_str());
}

TEST(ProcessCgiTest, OversizedOutputKilledAndFails) {
  // A child that writes forever: without the output cap + SIGKILL it would
  // run until the 30s default deadline. The cap must fire fast.
  const std::string script = "/tmp/swala_test_cgi_flood.sh";
  {
    FILE* f = fopen(script.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("#!/bin/sh\nwhile :; do printf 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'; done\n", f);
    fclose(f);
    chmod(script.c_str(), 0755);
  }
  ProcessOptions opts;
  opts.max_output_bytes = 64 * 1024;
  const auto start = std::chrono::steady_clock::now();
  auto result = run_cgi_process(script, make_request("/cgi-bin/flood"), opts);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result.value().oversized);
  EXPECT_FALSE(result.value().timed_out);  // distinct failure modes
  EXPECT_LT(elapsed.count(), 5.0);

  // And through the handler: a 500, not a 504, and never a success.
  ProcessCgi cgi(script, opts);
  auto out = cgi.run(make_request("/cgi-bin/flood"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_FALSE(out.value().success);
  EXPECT_EQ(out.value().http_status, 500);
  unlink(script.c_str());
}

TEST(ProcessCgiTest, NonzeroExitMeansFailureOutput) {
  const std::string script = "/tmp/swala_test_cgi_exit3.sh";
  {
    FILE* f = fopen(script.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("#!/bin/sh\nprintf 'Content-Type: text/plain\\n\\npartial'\nexit 3\n", f);
    fclose(f);
    chmod(script.c_str(), 0755);
  }
  ProcessCgi cgi(script);
  auto out = cgi.run(make_request("/cgi-bin/exit3"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_FALSE(out.value().success);
  unlink(script.c_str());
}

// Failed executions must never be cached: the manager's complete() drops
// unsuccessful outputs (Figure 2 only caches valid documents).
TEST(ProcessCgiTest, FailedExecutionIsNotCached) {
  core::ManagerOptions mo;
  mo.limits = {100, 0};
  core::RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);
  core::CacheManager manager(0, 1, std::move(mo), RealClock::instance());

  const auto req = make_request("/cgi-bin/broken");
  auto lookup = manager.lookup(req.method, req.uri);
  ASSERT_EQ(lookup.outcome, core::LookupOutcome::kMissMustExecute);

  ProcessCgi cgi("/nonexistent/program");
  auto out = cgi.run(req);
  ASSERT_TRUE(out.is_ok());
  ASSERT_FALSE(out.value().success);
  manager.complete(req.method, req.uri, lookup.rule, out.value(), 1.0);

  EXPECT_EQ(manager.store().entry_count(), 0u);
  EXPECT_EQ(manager.stats().inserts, 0u);
  EXPECT_EQ(manager.stats().failed_exec, 1u);
  // Next lookup is still a miss — nothing was poisoned into the cache.
  EXPECT_EQ(manager.lookup(req.method, req.uri).outcome,
            core::LookupOutcome::kMissMustExecute);
}

TEST(ProcessCgiTest, BodyPipedToStdin) {
  const std::string script = "/tmp/swala_test_cgi_stdin.sh";
  {
    FILE* f = fopen(script.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("#!/bin/sh\nprintf 'Content-Type: text/plain\\n\\n'\ncat\n", f);
    fclose(f);
    chmod(script.c_str(), 0755);
  }
  ProcessCgi cgi(script);
  http::Request req = make_request("/cgi-bin/echo");
  req.method = http::Method::kPost;
  req.body = "posted payload";
  auto out = cgi.run(req);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().body, "posted payload");
  unlink(script.c_str());
}

// A CGI that exits without reading its body: the write into the dead pipe
// fails with EPIPE, which must neither kill this process with SIGPIPE nor
// lose the output the child did write.
TEST(ProcessCgiTest, UnreadLargeBodyNeitherRaisesSigpipeNorLosesOutput) {
  http::Request req = make_request("/cgi-bin/null");
  req.method = http::Method::kPost;
  req.body.assign(2 * 1024 * 1024, 'b');
  auto result = run_cgi_process(SWALA_NULLCGI_PATH, req, ProcessOptions{});
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().exit_code, 0);
  EXPECT_EQ(result.value().stdout_data, kNullCgiOutput);

  ProcessCgi cgi(SWALA_NULLCGI_PATH);
  auto out = cgi.run(req);
  ASSERT_TRUE(out.is_ok());
  EXPECT_TRUE(out.value().success);
  EXPECT_NE(out.value().body.find("null cgi"), std::string::npos);
}

// The body is fed under the same deadline as the output is read: a child
// that neither reads stdin nor exits is killed on time, not after it ends.
TEST(ProcessCgiTest, BodyFeedStopsAtDeadline) {
  const std::string script =
      write_script("/tmp/swala_test_cgi_noread.sh", "#!/bin/sh\nexec sleep 30\n");
  ProcessOptions opts;
  opts.timeout_seconds = 0.2;
  ProcessCgi cgi(script, opts);
  http::Request req = make_request("/cgi-bin/noread");
  req.method = http::Method::kPost;
  req.body.assign(1024 * 1024, 'b');
  const auto start = std::chrono::steady_clock::now();
  auto out = cgi.run(req);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(out.is_ok());
  EXPECT_FALSE(out.value().success);
  EXPECT_EQ(out.value().http_status, 504);
  EXPECT_LT(elapsed.count(), 5.0);
  unlink(script.c_str());
}

// A CGI inherits stdin, stdout and stderr and nothing else: not the pipes
// of a CGI that another thread is running, and not the server's sockets.
TEST(ProcessCgiTest, ChildInheritsOnlyStdio) {
  const std::string ready = "/tmp/swala_test_cgi_slow.ready";
  unlink(ready.c_str());
  const std::string slow = write_script(
      "/tmp/swala_test_cgi_slow.sh", "#!/bin/sh\n: > \"$SWALA_READY\"\nexec sleep 30\n");
  // find runs with the shell's fds but lists the shell's own table ($$),
  // which is stable while the shell waits for it.
  const std::string lister = write_script(
      "/tmp/swala_test_cgi_fds.sh",
      "#!/bin/sh\nprintf 'Content-Type: text/plain\\n\\n'\n"
      "find /proc/$$/fd -mindepth 1 -printf '%f %l\\n'\n");

  // Whatever launched this test may have handed it fds without
  // close-on-exec (ctest passes its log file); those are not the server's.
  std::set<int> launcher_fds;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    while (const dirent* entry = ::readdir(dir)) {
      const int fd = std::atoi(entry->d_name);
      if (fd > 2 && fd != ::dirfd(dir) && (::fcntl(fd, F_GETFD) & FD_CLOEXEC) == 0) {
        launcher_fds.insert(fd);
      }
    }
    ::closedir(dir);
  }

  auto listener = net::TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.is_ok());
  auto client = net::TcpStream::connect(
      {"127.0.0.1", listener.value().local_port()}, 1000);
  ASSERT_TRUE(client.is_ok());
  auto accepted = listener.value().accept(1000);
  ASSERT_TRUE(accepted.is_ok());

  ProcessOptions slow_opts;
  slow_opts.timeout_seconds = 1.0;
  slow_opts.extra_env.emplace_back("SWALA_READY", ready);
  std::thread slow_thread([&] {
    (void)run_cgi_process(slow, make_request("/cgi-bin/slow"), slow_opts);
  });
  struct stat st{};
  for (int i = 0; i < 200 && ::stat(ready.c_str(), &st) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto result = run_cgi_process(lister, make_request("/cgi-bin/fds"),
                                ProcessOptions{});
  slow_thread.join();
  ASSERT_EQ(::stat(ready.c_str(), &st), 0) << "slow CGI never started";
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_EQ(result.value().exit_code, 0) << result.value().stdout_data;

  const std::string& text = result.value().stdout_data;
  std::istringstream lines(text.substr(text.find("\n\n") + 2));
  std::vector<int> seen;
  std::string line;
  while (std::getline(lines, line)) {
    const int fd = std::stoi(line);
    seen.push_back(fd);
    const std::string target = line.substr(line.find(' ') + 1);
    EXPECT_TRUE(fd <= 2 || target == lister || launcher_fds.count(fd) == 1)
        << "CGI inherited fd " << fd << " -> " << target;
  }
  for (const int fd : {0, 1, 2}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), fd), seen.end()) << fd;
  }
  unlink(ready.c_str());
  unlink(slow.c_str());
  unlink(lister.c_str());
}

// Spawns from many threads at once: every child gets its own pipes and
// environment, exec failures stay 127, and every child is reaped.
TEST(ProcessCgiTest, ConcurrentSpawnsAreIsolatedAndReaped) {
  const std::string env_script = write_script(
      "/tmp/swala_test_cgi_env_concurrent.sh",
      "#!/bin/sh\nprintf 'Content-Type: text/plain\\n\\nQ=%s\\n' \"$QUERY_STRING\"\n");
  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const std::string query = "t=" + std::to_string(t) + "&i=" + std::to_string(i);
        std::string executable;
        std::string expected;
        switch ((t + i) % 3) {
          case 0:
            executable = SWALA_NULLCGI_PATH;
            expected = kNullCgiOutput;
            break;
          case 1:
            executable = env_script;
            expected = "Content-Type: text/plain\n\nQ=" + query + "\n";
            break;
          default:
            executable = "/nonexistent/program";
            break;
        }
        auto result = run_cgi_process(executable,
                                      make_request("/cgi-bin/x?" + query),
                                      ProcessOptions{});
        const bool missing = expected.empty();
        const bool ok = result.is_ok() &&
                        result.value().exit_code == (missing ? 127 : 0) &&
                        result.value().stdout_data == expected &&
                        !result.value().timed_out && !result.value().oversized;
        if (!ok && failures.fetch_add(1) == 0) {
          ADD_FAILURE() << executable << " ?" << query << ": "
                        << (result.is_ok() ? "exit " + std::to_string(result.value().exit_code) +
                                                 " output [" + result.value().stdout_data + "]"
                                           : result.status().to_string());
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const pid_t reaped = ::waitpid(-1, nullptr, WNOHANG);
  const int wait_errno = errno;
  EXPECT_EQ(reaped, -1);
  EXPECT_EQ(wait_errno, ECHILD) << "a CGI child was left unreaped";
  unlink(env_script.c_str());
}

}  // namespace
}  // namespace swala::cgi
