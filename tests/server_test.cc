// Tests for the server layer: request handling (static + dynamic + errors),
// the SwalaServer over real sockets, keep-alive, cache integration, the two
// baseline servers, and SwalaNode config assembly.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>

#include <atomic>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "cgi/scripted.h"
#include "http/client.h"
#include "server/baselines.h"
#include "server/node.h"
#include "server/swala_server.h"

namespace swala::server {
namespace {

std::shared_ptr<cgi::HandlerRegistry> make_registry() {
  auto registry = std::make_shared<cgi::HandlerRegistry>();
  cgi::ScriptedOptions opts;
  opts.output_bytes = 128;
  registry->mount("/cgi-bin/", std::make_shared<cgi::ScriptedCgi>(opts));
  return registry;
}

std::string make_docroot(const std::string& name) {
  const std::string dir = "/tmp/swala_server_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/sub");
  std::ofstream(dir + "/index.html") << "<html>home</html>";
  std::ofstream(dir + "/sub/page.txt") << "plain text content";
  return dir;
}

core::ManagerOptions cache_options() {
  core::ManagerOptions mo;
  mo.limits = {100, 0};
  core::RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);
  return mo;
}

// ---- handle_request unit-level ----

TEST(HandleRequestTest, StaticFileServed) {
  ServeContext ctx;
  ctx.docroot = make_docroot("hr1");
  http::Request req;
  req.method = http::Method::kGet;
  ASSERT_TRUE(http::parse_uri("/sub/page.txt", &req.uri));
  const auto resp = handle_request(req, ctx);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "plain text content");
  EXPECT_EQ(resp.headers.get("Content-Type"), "text/plain");
  EXPECT_TRUE(resp.headers.contains("Last-Modified"));
}

TEST(HandleRequestTest, DirectoryServesIndexHtml) {
  ServeContext ctx;
  ctx.docroot = make_docroot("hr2");
  http::Request req;
  ASSERT_TRUE(http::parse_uri("/", &req.uri));
  const auto resp = handle_request(req, ctx);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "<html>home</html>");
}

TEST(HandleRequestTest, MissingFileIs404) {
  ServeContext ctx;
  ctx.docroot = make_docroot("hr3");
  http::Request req;
  ASSERT_TRUE(http::parse_uri("/nope.html", &req.uri));
  EXPECT_EQ(handle_request(req, ctx).status, 404);
}

TEST(HandleRequestTest, ConditionalGetReturns304) {
  ServeContext ctx;
  ctx.docroot = make_docroot("hr304");
  http::Request req;
  ASSERT_TRUE(http::parse_uri("/index.html", &req.uri));

  const auto fresh = handle_request(req, ctx);
  ASSERT_EQ(fresh.status, 200);
  const auto last_modified = fresh.headers.get("Last-Modified");
  ASSERT_TRUE(last_modified.has_value());

  req.headers.set("If-Modified-Since", *last_modified);
  const auto conditional = handle_request(req, ctx);
  EXPECT_EQ(conditional.status, 304);
  EXPECT_TRUE(conditional.body.empty());

  // A stale validator gets fresh content.
  req.headers.set("If-Modified-Since", "Sun, 06 Nov 1994 08:49:37 GMT");
  EXPECT_EQ(handle_request(req, ctx).status, 200);

  // A malformed validator is ignored (fresh content, not an error).
  req.headers.set("If-Modified-Since", "yesterday-ish");
  EXPECT_EQ(handle_request(req, ctx).status, 200);
}

TEST(HandleRequestTest, UnsupportedMethodIs405) {
  ServeContext ctx;
  http::Request req;
  req.method = http::Method::kDelete;
  ASSERT_TRUE(http::parse_uri("/x", &req.uri));
  EXPECT_EQ(handle_request(req, ctx).status, 405);
}

TEST(HandleRequestTest, DynamicDispatchedToRegistry) {
  ServeContext ctx;
  ctx.registry = make_registry();
  http::Request req;
  ASSERT_TRUE(http::parse_uri("/cgi-bin/q?x=1", &req.uri));
  const auto resp = handle_request(req, ctx);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers.get("X-Swala-Cache"), "miss");
}

TEST(HandleRequestTest, HeadHasNoBodyButLength) {
  ServeContext ctx;
  ctx.docroot = make_docroot("hr4");
  http::Request req;
  req.method = http::Method::kHead;
  ASSERT_TRUE(http::parse_uri("/index.html", &req.uri));
  const auto resp = handle_request(req, ctx);
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(resp.body.empty());
  EXPECT_EQ(resp.headers.get("Content-Length"), "17");
}

// ---- static-file cache ----

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Backdates a file's mtime: a file modified within the last second is
/// served but not retained.
void set_mtime(const std::string& path, std::time_t seconds) {
  const timespec times[2] = {{seconds, 0}, {seconds, 0}};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

http::Response static_get(const ServeContext& ctx, const std::string& target,
                          http::Method method = http::Method::kGet) {
  http::Request req;
  req.method = method;
  EXPECT_TRUE(http::parse_uri(target, &req.uri));
  return handle_request(req, ctx);
}

TEST(HandleRequestTest, StaticCacheServesRepeatsFromMemory) {
  ServeContext ctx;
  ctx.enable_admin = true;
  ctx.docroot = make_docroot("sc_repeat");
  set_mtime(ctx.docroot + "/sub/page.txt", std::time(nullptr) - 100);

  EXPECT_EQ(static_get(ctx, "/sub/page.txt").body, "plain text content");
  EXPECT_EQ(static_get(ctx, "/sub/page.txt").body, "plain text content");
  const StaticCacheStats st = ctx.static_files.stats();
  EXPECT_EQ(st.loads, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.bytes, std::string("plain text content").size());

  const std::string status = static_get(ctx, "/swala-status").body;
  EXPECT_NE(status.find("\"static_cache_hits\": 1,"), std::string::npos);
  EXPECT_NE(status.find("\"static_cache_loads\": 1,"), std::string::npos);
  EXPECT_NE(status.find("\"static_cache_bytes\": 18,"), std::string::npos);

  // A file written just now is served from disk until it has settled.
  EXPECT_EQ(static_get(ctx, "/index.html").body, "<html>home</html>");
  EXPECT_EQ(static_get(ctx, "/index.html").body, "<html>home</html>");
  EXPECT_EQ(ctx.static_files.stats().loads, 3u);
  EXPECT_EQ(ctx.static_files.stats().bytes, 18u);
}

TEST(HandleRequestTest, StaticCacheSameSizeRewriteServesNewBytes) {
  ServeContext ctx;
  ctx.docroot = make_docroot("sc_rewrite");
  const std::string path = ctx.docroot + "/v.txt";
  write_file(path, "version-1");
  set_mtime(path, std::time(nullptr) - 100);
  EXPECT_EQ(static_get(ctx, "/v.txt").body, "version-1");
  EXPECT_EQ(static_get(ctx, "/v.txt").body, "version-1");

  // Same inode, same size; only the mtime tells the versions apart.
  write_file(path, "version-2");
  set_mtime(path, std::time(nullptr) - 50);
  EXPECT_EQ(static_get(ctx, "/v.txt").body, "version-2");
  const StaticCacheStats st = ctx.static_files.stats();
  EXPECT_EQ(st.loads, 2u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.bytes, 9u);
}

TEST(HandleRequestTest, StaticCacheRenameReplaceServesNewBytes) {
  ServeContext ctx;
  ctx.docroot = make_docroot("sc_rename");
  const std::string path = ctx.docroot + "/v.txt";
  const std::time_t when = std::time(nullptr) - 100;
  write_file(path, "version-1");
  set_mtime(path, when);
  EXPECT_EQ(static_get(ctx, "/v.txt").body, "version-1");

  // Same size and mtime: only the new inode tells the versions apart.
  write_file(path + ".tmp", "version-2");
  set_mtime(path + ".tmp", when);
  ASSERT_EQ(std::rename((path + ".tmp").c_str(), path.c_str()), 0);
  EXPECT_EQ(static_get(ctx, "/v.txt").body, "version-2");
  EXPECT_EQ(ctx.static_files.stats().loads, 2u);
}

TEST(HandleRequestTest, StaticCacheUnlinkedFileIs404) {
  ServeContext ctx;
  ctx.docroot = make_docroot("sc_unlink");
  set_mtime(ctx.docroot + "/sub/page.txt", std::time(nullptr) - 100);
  ASSERT_EQ(static_get(ctx, "/sub/page.txt").status, 200);
  ASSERT_EQ(ctx.static_files.stats().bytes, 18u);

  std::filesystem::remove(ctx.docroot + "/sub/page.txt");
  EXPECT_EQ(static_get(ctx, "/sub/page.txt").status, 404);
  EXPECT_EQ(ctx.static_files.stats().bytes, 0u);
}

TEST(HandleRequestTest, StaticCacheAnswersHeadAnd304FromEntry) {
  ServeContext ctx;
  ctx.docroot = make_docroot("sc_head");
  set_mtime(ctx.docroot + "/index.html", std::time(nullptr) - 100);
  const auto fresh = static_get(ctx, "/index.html");
  ASSERT_EQ(fresh.status, 200);
  const auto last_modified = fresh.headers.get("Last-Modified");
  ASSERT_TRUE(last_modified.has_value());

  const auto head = static_get(ctx, "/index.html", http::Method::kHead);
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());
  EXPECT_EQ(head.headers.get("Content-Length"), "17");
  EXPECT_EQ(head.headers.get("Content-Type"), "text/html");
  EXPECT_EQ(head.headers.get("Last-Modified"), *last_modified);

  http::Request req;
  ASSERT_TRUE(http::parse_uri("/index.html", &req.uri));
  req.headers.set("If-Modified-Since", *last_modified);
  const auto conditional = handle_request(req, ctx);
  EXPECT_EQ(conditional.status, 304);
  EXPECT_TRUE(conditional.body.empty());
  EXPECT_EQ(conditional.headers.get("Last-Modified"), *last_modified);

  const StaticCacheStats st = ctx.static_files.stats();
  EXPECT_EQ(st.loads, 1u);
  EXPECT_EQ(st.hits, 2u);
}

TEST(HandleRequestTest, StaticCacheFileOverCapServedExactNotRetained) {
  ServeContext ctx;
  ctx.docroot = make_docroot("sc_big");
  std::string big(StaticFileCache::kMaxFileBytes + 1, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i * 7919) % 26);
  }
  write_file(ctx.docroot + "/big.bin", big);
  set_mtime(ctx.docroot + "/big.bin", std::time(nullptr) - 100);

  for (int i = 0; i < 2; ++i) {
    const auto resp = static_get(ctx, "/big.bin");
    ASSERT_EQ(resp.status, 200);
    EXPECT_TRUE(resp.body == big) << "body differs from the file";
    EXPECT_EQ(resp.headers.get("Content-Length"), std::to_string(big.size()));
  }
  const StaticCacheStats st = ctx.static_files.stats();
  EXPECT_EQ(st.loads, 2u);
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.bytes, 0u);
}

TEST(HandleRequestTest, StaticCacheStaysWithinBudget) {
  ServeContext ctx;
  ctx.docroot = make_docroot("sc_budget");
  const std::size_t files =
      StaticFileCache::kBudgetBytes / StaticFileCache::kMaxFileBytes + 2;
  const std::time_t when = std::time(nullptr) - 100;
  for (std::size_t i = 0; i < files; ++i) {
    const std::string path = ctx.docroot + "/f" + std::to_string(i);
    write_file(path, std::string(StaticFileCache::kMaxFileBytes,
                                 static_cast<char>('a' + i % 26)));
    set_mtime(path, when);
  }
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < files; ++i) {
      const auto resp = static_get(ctx, "/f" + std::to_string(i));
      ASSERT_EQ(resp.status, 200);
      ASSERT_EQ(resp.body, std::string(StaticFileCache::kMaxFileBytes,
                                        static_cast<char>('a' + i % 26)));
      ASSERT_LE(ctx.static_files.stats().bytes,
                StaticFileCache::kBudgetBytes);
    }
  }
  EXPECT_GT(ctx.static_files.stats().hits, 0u);
  std::filesystem::remove_all(ctx.docroot);
}

TEST(HandleRequestTest, StaticCacheConcurrentReadersSeeWholeVersions) {
  ServeContext ctx;
  ctx.docroot = make_docroot("sc_concurrent");
  const std::string path = ctx.docroot + "/v.txt";
  // Version i is filled with one letter; its length is a function of the
  // letter, so a torn or mixed body cannot pass the check below.
  const auto size_of = [](char c) {
    return static_cast<std::size_t>(3000 + (c - 'a') * 97);
  };
  const auto make_version = [&](int i, const std::string& to) {
    const char c = static_cast<char>('a' + i % 26);
    write_file(to, std::string(size_of(c), c));
    // Even versions are backdated, so they are retained and served from
    // memory; odd ones are fresh and read per request.
    if (i % 2 == 0) set_mtime(to, std::time(nullptr) - 1000 + i);
  };
  make_version(0, path);

  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::atomic<int> served{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        const auto resp = static_get(ctx, "/v.txt");
        const bool whole =
            resp.status == 200 && !resp.body.empty() &&
            resp.body.size() == size_of(resp.body[0]) &&
            resp.body.find_first_not_of(resp.body[0]) == std::string::npos &&
            resp.headers.get("Content-Length") ==
                std::to_string(resp.body.size());
        if (!whole) bad.fetch_add(1);
        served.fetch_add(1);
      }
    });
  }
  for (int i = 1; i <= 200; ++i) {
    make_version(i, path + ".tmp");
    ASSERT_EQ(std::rename((path + ".tmp").c_str(), path.c_str()), 0);
  }
  done = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0) << "of " << served.load() << " responses";
  EXPECT_GT(ctx.static_files.stats().hits, 0u);
}

// ---- SwalaServer over sockets ----

class SwalaServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SwalaServerOptions opts;
    opts.request_threads = 4;
    opts.docroot = make_docroot("srv");
    manager_ = std::make_unique<core::CacheManager>(
        0, 1, cache_options(), RealClock::instance());
    server_ = std::make_unique<SwalaServer>(opts, make_registry(),
                                            manager_.get());
    ASSERT_TRUE(server_->start().is_ok());
  }

  std::unique_ptr<core::CacheManager> manager_;
  std::unique_ptr<SwalaServer> server_;
};

TEST_F(SwalaServerTest, ServesStaticFile) {
  http::HttpClient client(server_->address());
  auto resp = client.get("/index.html");
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_EQ(resp.value().body, "<html>home</html>");
  EXPECT_EQ(resp.value().headers.get("Server"), "Swala/1.0");
}

TEST_F(SwalaServerTest, CgiMissThenLocalHit) {
  http::HttpClient client(server_->address());
  auto first = client.get("/cgi-bin/q?id=9");
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().headers.get("X-Swala-Cache"), "miss");

  auto second = client.get("/cgi-bin/q?id=9");
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().headers.get("X-Swala-Cache"), "hit-local");
  EXPECT_EQ(second.value().body, first.value().body);

  const auto stats = server_->stats();
  EXPECT_EQ(stats.dynamic_requests, 2u);
  EXPECT_EQ(stats.cache_hits_local, 1u);
}

TEST_F(SwalaServerTest, HeadRequestOverClient) {
  // HEAD responses carry Content-Length but no body; the client must not
  // wait for bytes that will never come.
  http::HttpClient client(server_->address());
  http::Request req;
  req.method = http::Method::kHead;
  req.target = "/index.html";
  req.version = http::Version::kHttp11;
  req.headers.set("Host", "test");
  auto resp = client.send(req);
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_TRUE(resp.value().body.empty());
  EXPECT_EQ(resp.value().headers.get("Content-Length"), "17");

  // The connection remains usable for a normal GET afterwards.
  auto follow_up = client.get("/index.html");
  ASSERT_TRUE(follow_up.is_ok());
  EXPECT_EQ(follow_up.value().body, "<html>home</html>");
  EXPECT_EQ(server_->stats().connections, 1u) << "keep-alive must survive HEAD";
}

TEST_F(SwalaServerTest, KeepAliveServesMultipleRequests) {
  http::HttpClient client(server_->address());
  for (int i = 0; i < 5; ++i) {
    auto resp = client.get("/index.html");
    ASSERT_TRUE(resp.is_ok()) << "request " << i;
    EXPECT_EQ(resp.value().status, 200);
  }
  // All five went over one connection.
  EXPECT_EQ(server_->stats().connections, 1u);
  EXPECT_EQ(server_->stats().requests, 5u);
}

TEST_F(SwalaServerTest, ParallelClients) {
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      http::HttpClient client(server_->address());
      for (int i = 0; i < 10; ++i) {
        auto resp = client.get("/cgi-bin/p?i=" + std::to_string(i));
        if (resp.is_ok() && resp.value().status == 200) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * 10);
}

TEST_F(SwalaServerTest, UnknownMethodGets501) {
  auto stream = net::TcpStream::connect(server_->address(), 2000);
  ASSERT_TRUE(stream.is_ok());
  ASSERT_TRUE(stream.value().write_all("GARBAGE REQUEST LINE\r\n\r\n").is_ok());
  char buf[1024];
  auto n = stream.value().read_some(buf, sizeof(buf));
  ASSERT_TRUE(n.is_ok());
  const std::string head(buf, n.value());
  EXPECT_NE(head.find("501"), std::string::npos);  // unknown method
}

TEST_F(SwalaServerTest, StopIsIdempotent) {
  server_->stop();
  server_->stop();
}

// ---- baselines ----

TEST(MiniServerTest, ServesRequests) {
  BaselineOptions opts;
  opts.docroot = make_docroot("mini");
  MiniServer server(opts, make_registry());
  ASSERT_TRUE(server.start().is_ok());

  http::HttpClient client(server.address());
  auto file = client.get("/index.html");
  ASSERT_TRUE(file.is_ok());
  EXPECT_EQ(file.value().status, 200);
  auto dyn = client.get("/cgi-bin/x");
  ASSERT_TRUE(dyn.is_ok());
  EXPECT_EQ(dyn.value().status, 200);
  EXPECT_EQ(server.stats().requests, 2u);
}

TEST(ForkingServerTest, ServesRequests) {
  BaselineOptions opts;
  opts.docroot = make_docroot("fork");
  ForkingServer server(opts, make_registry());
  ASSERT_TRUE(server.start().is_ok());

  for (int i = 0; i < 3; ++i) {
    http::HttpClient client(server.address());
    auto resp = client.get("/index.html");
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    EXPECT_EQ(resp.value().status, 200);
    EXPECT_EQ(resp.value().body, "<html>home</html>");
  }
  EXPECT_GE(server.connections_accepted(), 3u);
}

// ---- SwalaNode from config ----

TEST(SwalaNodeTest, StandaloneFromConfig) {
  auto cfg = Config::parse(
      "[server]\n"
      "port = 0\n"
      "threads = 4\n"
      "[cache]\n"
      "enabled = true\n"
      "max_entries = 50\n"
      "policy = gds\n"
      "[cacheability]\n"
      "rule = /cgi-bin/* cache ttl=60\n"
      "default = nocache\n");
  ASSERT_TRUE(cfg.is_ok());
  auto node = SwalaNode::from_config(cfg.value(), make_registry());
  ASSERT_TRUE(node.is_ok()) << node.status().to_string();
  ASSERT_TRUE(node.value()->start().is_ok());

  http::HttpClient client(node.value()->http().address());
  auto first = client.get("/cgi-bin/c?x=1");
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().headers.get("X-Swala-Cache"), "miss");
  auto second = client.get("/cgi-bin/c?x=1");
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().headers.get("X-Swala-Cache"), "hit-local");
  EXPECT_EQ(node.value()->cache()->store().policy(),
            core::PolicyKind::kGreedyDualSize);
}

TEST(SwalaNodeTest, CachingDisabled) {
  auto cfg = Config::parse("[server]\nport = 0\n[cache]\nenabled = false\n");
  ASSERT_TRUE(cfg.is_ok());
  auto node = SwalaNode::from_config(cfg.value(), make_registry());
  ASSERT_TRUE(node.is_ok());
  ASSERT_TRUE(node.value()->start().is_ok());
  EXPECT_EQ(node.value()->cache(), nullptr);

  http::HttpClient client(node.value()->http().address());
  auto a = client.get("/cgi-bin/n?x=1");
  auto b = client.get("/cgi-bin/n?x=1");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().headers.get("X-Swala-Cache"), "miss");
  EXPECT_EQ(b.value().headers.get("X-Swala-Cache"), "miss");
}

TEST(SwalaNodeTest, WarmRestartKeepsCacheAcrossRestarts) {
  const std::string dir = "/tmp/swala_node_warm";
  std::filesystem::remove_all(dir);
  const std::string conf =
      "[server]\nport = 0\nthreads = 2\n"
      "[cache]\nenabled = true\nmax_entries = 50\ndisk_dir = " + dir +
      "\nstate_file = " + dir + "/state.manifest\n"
      "[cacheability]\nrule = /cgi-bin/* cache\ndefault = nocache\n";
  auto cfg = Config::parse(conf);
  ASSERT_TRUE(cfg.is_ok());

  std::string warm_body;
  {
    auto node = SwalaNode::from_config(cfg.value(), make_registry());
    ASSERT_TRUE(node.is_ok()) << node.status().to_string();
    ASSERT_TRUE(node.value()->start().is_ok());
    http::HttpClient client(node.value()->http().address());
    auto miss = client.get("/cgi-bin/warm?q=1");
    ASSERT_TRUE(miss.is_ok());
    EXPECT_EQ(miss.value().headers.get("X-Swala-Cache"), "miss");
    warm_body = miss.value().body;
    node.value()->stop();  // saves the manifest
  }

  {
    auto node = SwalaNode::from_config(cfg.value(), make_registry());
    ASSERT_TRUE(node.is_ok());
    ASSERT_TRUE(node.value()->start().is_ok());  // restores
    http::HttpClient client(node.value()->http().address());
    auto hit = client.get("/cgi-bin/warm?q=1");
    ASSERT_TRUE(hit.is_ok());
    EXPECT_EQ(hit.value().headers.get("X-Swala-Cache"), "hit-local")
        << "entry must survive the restart";
    EXPECT_EQ(hit.value().body, warm_body);
  }
  std::filesystem::remove_all(dir);
}

TEST(SwalaNodeTest, StateFileWithoutDiskDirRejected) {
  auto cfg = Config::parse("[cache]\nstate_file = /tmp/x.manifest\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_FALSE(SwalaNode::from_config(cfg.value(), make_registry()).is_ok());
}

TEST(SwalaNodeTest, BadConfigRejected) {
  auto cfg = Config::parse("[cache]\npolicy = quantum\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_FALSE(SwalaNode::from_config(cfg.value(), make_registry()).is_ok());

  auto cfg2 = Config::parse("[cluster]\nmember = broken line\n");
  ASSERT_TRUE(cfg2.is_ok());
  EXPECT_FALSE(SwalaNode::from_config(cfg2.value(), make_registry()).is_ok());
}

TEST(SwalaNodeTest, BadMembershipConfigRejected) {
  const auto rejected = [](const std::string& cluster_section) {
    auto cfg = Config::parse("[cluster]\n" + cluster_section);
    EXPECT_TRUE(cfg.is_ok());
    return !SwalaNode::from_config(cfg.value(), make_registry()).is_ok();
  };
  // Duplicate member id: the second line would silently shadow the first.
  EXPECT_TRUE(rejected(
      "node_id = 0\n"
      "member = 0 127.0.0.1 9000 9001\n"
      "member = 0 127.0.0.1 9010 9011\n"));
  // Sparse id: indexes past the directory tables.
  EXPECT_TRUE(rejected(
      "node_id = 0\n"
      "member = 0 127.0.0.1 9000 9001\n"
      "member = 5 127.0.0.1 9010 9011\n"));
  // node_id absent from the list: binds no listeners, broadcasts anyway.
  EXPECT_TRUE(rejected(
      "node_id = 2\n"
      "member = 0 127.0.0.1 9000 9001\n"
      "member = 1 127.0.0.1 9010 9011\n"));
  // A dense, self-including list builds fine.
  auto cfg = Config::parse(
      "[server]\nport = 0\n[cluster]\n"
      "node_id = 1\n"
      "member = 0 127.0.0.1 0 0\n"
      "member = 1 127.0.0.1 0 0\n");
  ASSERT_TRUE(cfg.is_ok());
  auto node = SwalaNode::from_config(cfg.value(), make_registry());
  EXPECT_TRUE(node.is_ok()) << node.status().to_string();
}

TEST(SwalaNodeTest, BadStoreConfigRejected) {
  const auto rejected = [](const std::string& cache_section) {
    auto cfg = Config::parse("[cache]\nenabled = true\n" + cache_section);
    EXPECT_TRUE(cfg.is_ok());
    return !SwalaNode::from_config(cfg.value(), make_registry()).is_ok();
  };
  // Unknown backend name.
  EXPECT_TRUE(rejected("disk_dir = /tmp/swala_store_cfg\nstore = cyclone\n"));
  // volume without a disk directory to put the volume file in.
  EXPECT_TRUE(rejected("store = volume\nvolume_bytes = 1048576\n"));
  // volume without a preallocation size (the sizing decision is explicit).
  EXPECT_TRUE(rejected("disk_dir = /tmp/swala_store_cfg\nstore = volume\n"));
  EXPECT_TRUE(rejected("disk_dir = /tmp/swala_store_cfg\nstore = volume\n"
                       "volume_bytes = 0\n"));
  // Segment too small to hold even one record header.
  EXPECT_TRUE(rejected("disk_dir = /tmp/swala_store_cfg\nstore = volume\n"
                       "volume_bytes = 1048576\nsegment_bytes = 64\n"));
  // Volume smaller than two segments: compaction would have nowhere to go.
  EXPECT_TRUE(rejected("disk_dir = /tmp/swala_store_cfg\nstore = volume\n"
                       "volume_bytes = 262144\nsegment_bytes = 262144\n"));
  EXPECT_TRUE(rejected("disk_dir = /tmp/swala_store_cfg\nstore = volume\n"
                       "volume_bytes = 1048576\nwrite_buffer_bytes = 0\n"));

  // And the smallest valid volume config builds.
  auto cfg = Config::parse(
      "[server]\nport = 0\n"
      "[cache]\nenabled = true\ndisk_dir = /tmp/swala_store_cfg\n"
      "store = volume\nvolume_bytes = 1048576\nsegment_bytes = 524288\n");
  ASSERT_TRUE(cfg.is_ok());
  auto node = SwalaNode::from_config(cfg.value(), make_registry());
  EXPECT_TRUE(node.is_ok()) << node.status().to_string();
  std::filesystem::remove_all("/tmp/swala_store_cfg");
}

TEST(SwalaNodeTest, VolumeWarmRestartKeepsCacheAcrossRestarts) {
  const std::string dir = "/tmp/swala_node_warm_volume";
  std::filesystem::remove_all(dir);
  const std::string conf =
      "[server]\nport = 0\nthreads = 2\n"
      "[cache]\nenabled = true\nmax_entries = 50\ndisk_dir = " + dir +
      "\nstore = volume\nvolume_bytes = 2097152\nsegment_bytes = 262144\n"
      "state_file = " + dir + "/state.manifest\n"
      "[cacheability]\nrule = /cgi-bin/* cache\ndefault = nocache\n";
  auto cfg = Config::parse(conf);
  ASSERT_TRUE(cfg.is_ok());

  std::string warm_body;
  {
    auto node = SwalaNode::from_config(cfg.value(), make_registry());
    ASSERT_TRUE(node.is_ok()) << node.status().to_string();
    ASSERT_TRUE(node.value()->start().is_ok());
    http::HttpClient client(node.value()->http().address());
    auto miss = client.get("/cgi-bin/warm?q=volume");
    ASSERT_TRUE(miss.is_ok());
    EXPECT_EQ(miss.value().headers.get("X-Swala-Cache"), "miss");
    warm_body = miss.value().body;
    node.value()->stop();  // syncs the volume and saves the manifest
  }

  {
    auto node = SwalaNode::from_config(cfg.value(), make_registry());
    ASSERT_TRUE(node.is_ok());
    ASSERT_TRUE(node.value()->start().is_ok());  // recovery walk + restore
    http::HttpClient client(node.value()->http().address());
    auto hit = client.get("/cgi-bin/warm?q=volume");
    ASSERT_TRUE(hit.is_ok());
    EXPECT_EQ(hit.value().headers.get("X-Swala-Cache"), "hit-local")
        << "entry must survive the restart";
    EXPECT_EQ(hit.value().body, warm_body);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace swala::server
