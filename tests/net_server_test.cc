// End-to-end tests of the HTTP front end over real loopback sockets: an
// in-test HTTP/1.1 client (with chunked-response decoding) drives a full
// System + QueryService + HttpServer stack. Covers the acceptance bar of
// the net subsystem: chunked round-trips that match Value::ToString
// byte-for-byte, 16 concurrent clients bit-identical to in-process
// execution, 429/503 admission behavior with Retry-After, graceful
// drain, and every GET endpoint. Runs under both the asan and tsan ctest
// lanes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/socket.h"
#include "env/system.h"
#include "gtest/gtest.h"
#include "net/server.h"
#include "object/value.h"
#include "service/service.h"

namespace aql {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1 test client.

struct TestResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // keys lowercased
  std::string body;
  bool chunked = false;
  size_t chunk_count = 0;  // fragments observed on the wire
};

class TestClient {
 public:
  static std::unique_ptr<TestClient> Connect(uint16_t port) {
    Result<Socket> socket = Socket::ConnectLocal(port);
    if (!socket.ok()) return nullptr;
    auto client = std::unique_ptr<TestClient>(new TestClient(std::move(socket).value()));
    client->socket_.SetTimeout(std::chrono::milliseconds(10000));
    return client;
  }

  Socket* socket() { return &socket_; }

  bool Send(std::string_view raw) { return socket_.WriteAll(raw).ok(); }

  // Sends one request; `headers` are raw lines without CRLF.
  bool Request(std::string_view method, std::string_view target, std::string_view body,
               const std::vector<std::string>& headers = {}) {
    std::string raw = std::string(method) + " " + std::string(target) + " HTTP/1.1\r\n";
    raw += "Host: localhost\r\n";
    for (const std::string& h : headers) raw += h + "\r\n";
    if (!body.empty() || method == "POST") {
      raw += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    raw += "\r\n";
    raw += body;
    return Send(raw);
  }

  // Reads and decodes exactly one response; the connection stays usable
  // afterwards (keep-alive). Returns false on any framing surprise.
  bool ReadResponse(TestResponse* out) {
    *out = TestResponse();
    std::string head;
    if (!ReadUntil("\r\n\r\n", &head)) return false;
    size_t line_end = head.find("\r\n");
    std::string status_line = head.substr(0, line_end);
    if (status_line.compare(0, 9, "HTTP/1.1 ") != 0) return false;
    out->status = std::atoi(status_line.c_str() + 9);
    size_t pos = line_end + 2;
    while (pos < head.size()) {
      size_t eol = head.find("\r\n", pos);
      if (eol == std::string::npos) break;
      std::string line = head.substr(pos, eol - pos);
      pos = eol + 2;
      if (line.empty()) break;
      size_t colon = line.find(':');
      if (colon == std::string::npos) return false;
      std::string key = line.substr(0, colon);
      for (char& c : key) c = char(std::tolower((unsigned char)c));
      size_t vstart = line.find_first_not_of(' ', colon + 1);
      out->headers[key] = vstart == std::string::npos ? "" : line.substr(vstart);
    }
    auto te = out->headers.find("transfer-encoding");
    if (te != out->headers.end() && te->second == "chunked") {
      out->chunked = true;
      return ReadChunkedBody(out);
    }
    auto cl = out->headers.find("content-length");
    if (cl == out->headers.end()) return false;
    size_t want = size_t(std::atoll(cl->second.c_str()));
    while (buffer_.size() < want) {
      if (!Fill()) return false;
    }
    out->body = buffer_.substr(0, want);
    buffer_.erase(0, want);
    return true;
  }

 private:
  explicit TestClient(Socket socket) : socket_(std::move(socket)) {}

  bool Fill() {
    char chunk[4096];
    Result<size_t> n = socket_.Read(chunk, sizeof(chunk));
    if (!n.ok() || *n == 0) return false;
    buffer_.append(chunk, *n);
    return true;
  }

  bool ReadUntil(std::string_view marker, std::string* out) {
    size_t at;
    while ((at = buffer_.find(marker)) == std::string::npos) {
      if (!Fill()) return false;
    }
    *out = buffer_.substr(0, at + marker.size());
    buffer_.erase(0, at + marker.size());
    return true;
  }

  bool ReadChunkedBody(TestResponse* out) {
    for (;;) {
      std::string size_line;
      if (!ReadUntil("\r\n", &size_line)) return false;
      size_t size = 0;
      if (sscanf(size_line.c_str(), "%zx", &size) != 1) return false;
      if (size == 0) {
        std::string trailer;
        return ReadUntil("\r\n", &trailer);  // the blank line after 0
      }
      while (buffer_.size() < size + 2) {
        if (!Fill()) return false;
      }
      out->body.append(buffer_, 0, size);
      buffer_.erase(0, size + 2);  // data + CRLF
      ++out->chunk_count;
    }
  }

  Socket socket_;
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// Fixture: one stack per test.

class HttpServerTest : public ::testing::Test {
 protected:
  void StartServer(HttpServerConfig config = {}, service::ServiceConfig svc = {}) {
    system_ = std::make_unique<System>();
    ASSERT_TRUE(system_->init_status().ok());
    service_ = std::make_unique<service::QueryService>(system_.get(), svc);
    config.port = 0;  // always ephemeral in tests
    server_ = std::make_unique<HttpServer>(service_.get(), config);
    ASSERT_TRUE(server_->Start().ok());
    port_ = server_->port();
    ASSERT_NE(port_, 0);
  }

  TestResponse Get(const std::string& path) {
    TestResponse response;
    auto client = TestClient::Connect(port_);
    if (!client) return response;
    EXPECT_TRUE(client->Request("GET", path, ""));
    EXPECT_TRUE(client->ReadResponse(&response));
    return response;
  }

  TestResponse PostQuery(const std::string& body, const std::string& params = "",
                         const std::vector<std::string>& headers = {}) {
    TestResponse response;
    auto client = TestClient::Connect(port_);
    if (!client) return response;
    EXPECT_TRUE(client->Request("POST", "/query" + params, body, headers));
    EXPECT_TRUE(client->ReadResponse(&response));
    return response;
  }

  std::unique_ptr<System> system_;
  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<HttpServer> server_;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------

TEST_F(HttpServerTest, QueryRoundTrip) {
  StartServer();
  TestResponse response = PostQuery("1 + 2");
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(response.chunked) << "results always stream chunked";
  EXPECT_EQ(response.body, "3\n");
  EXPECT_EQ(response.headers["content-type"], "text/plain");
}

TEST_F(HttpServerTest, ResultsMatchInProcessExecution) {
  StartServer();
  const char* queries[] = {
      "{ x * x | \\x <- gen!6 }",
      "summap(fn \\x => x)!(gen!100)",
      "[[ i * 2 | \\i < 5 ]]",
  };
  for (const char* q : queries) {
    Result<Value> direct = service_->Execute(q);
    TestResponse response = PostQuery(q);
    if (direct.ok()) {
      EXPECT_EQ(response.status, 200) << q;
      EXPECT_EQ(response.body, direct->ToString() + "\n")
          << "HTTP result must be bit-identical to in-process Run: " << q;
    } else {
      EXPECT_GE(response.status, 400) << q;
    }
  }
}

TEST_F(HttpServerTest, LargeResultStreamsInManyChunks) {
  HttpServerConfig config;
  config.stream_chunk_bytes = 4096;
  StartServer(config);
  TestResponse response = PostQuery("[[ i * i | \\i < 100000 ]]");
  ASSERT_EQ(response.status, 200);
  EXPECT_TRUE(response.chunked);
  EXPECT_GT(response.chunk_count, 50u)
      << "a multi-hundred-KB result must arrive as many bounded chunks";
  Result<Value> direct = service_->Execute("[[ i * i | \\i < 100000 ]]");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(response.body, direct->ToString() + "\n");
}

TEST_F(HttpServerTest, JsonFormat) {
  StartServer();
  TestResponse response = PostQuery("{ x * x | \\x <- gen!4 }", "?format=json");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["content-type"], "application/json");
  EXPECT_EQ(response.body, "[0,1,4,9]\n");
  // Accept header works too.
  response = PostQuery("1 + 1", "", {"Accept: application/json"});
  EXPECT_EQ(response.body, "2\n");
  EXPECT_EQ(response.headers["content-type"], "application/json");
}

TEST_F(HttpServerTest, TraceReturnsProfile) {
  StartServer();
  TestResponse response = PostQuery("1 + 2", "?trace=1");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("--- profile ---"), std::string::npos);
  EXPECT_NE(response.body.find("parse"), std::string::npos);
  // JSON + trace wraps result and profile in one object.
  response = PostQuery("1 + 2", "?trace=1&format=json");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.body.find("{\"result\":3,\"profile\":\""), 0u) << response.body;
}

TEST_F(HttpServerTest, ChunkedRequestBody) {
  StartServer();
  auto client = TestClient::Connect(port_);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send(
      "POST /query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\n1 +\r\n2\r\n 2\r\n0\r\n\r\n"));
  TestResponse response;
  ASSERT_TRUE(client->ReadResponse(&response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "3\n");
}

TEST_F(HttpServerTest, KeepAliveServesSequentialRequests) {
  StartServer();
  auto client = TestClient::Connect(port_);
  ASSERT_NE(client, nullptr);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->Request("POST", "/query", std::to_string(i) + " + 1"));
    TestResponse response;
    ASSERT_TRUE(client->ReadResponse(&response));
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, std::to_string(i + 1) + "\n");
  }
}

TEST_F(HttpServerTest, ErrorStatusMapping) {
  StartServer();
  EXPECT_EQ(PostQuery("1 +").status, 400) << "parse error";
  EXPECT_EQ(PostQuery("1 + true").status, 400) << "type error";
  EXPECT_EQ(PostQuery("").status, 400) << "empty body";
  EXPECT_EQ(PostQuery("1", "?deadline_ms=zap").status, 400) << "bad option";
  EXPECT_EQ(Get("/nowhere").status, 404);
  TestResponse response = Get("/query");
  EXPECT_EQ(response.status, 405) << "GET /query";
  EXPECT_EQ(response.headers["allow"], "POST");
}

TEST_F(HttpServerTest, DeadlineMapsTo504) {
  StartServer();
  TestResponse response =
      PostQuery("summap(fn \\x => x * x)!(gen!1000000000)", "?deadline_ms=1");
  EXPECT_EQ(response.status, 504);
}

TEST_F(HttpServerTest, MalformedRequestGets400AndClose) {
  StartServer();
  auto client = TestClient::Connect(port_);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send("NOT A REQUEST\r\n\r\n"));
  TestResponse response;
  ASSERT_TRUE(client->ReadResponse(&response));
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(response.headers["connection"], "close");
  char byte;
  Result<size_t> n = client->socket()->Read(&byte, 1);
  EXPECT_TRUE(n.ok() && *n == 0) << "server must close after a parse error";
}

TEST_F(HttpServerTest, OversizedBodyGets413) {
  HttpServerConfig config;
  config.max_body = 64;
  StartServer(config);
  TestResponse response = PostQuery(std::string(1000, '1'));
  EXPECT_EQ(response.status, 413);
}

TEST_F(HttpServerTest, RateLimitReturns429WithRetryAfter) {
  HttpServerConfig config;
  config.rate_limit_per_sec = 0.5;
  config.rate_limit_burst = 2;
  StartServer(config);
  EXPECT_EQ(PostQuery("1 + 1").status, 200);
  EXPECT_EQ(PostQuery("1 + 1").status, 200);
  TestResponse limited = PostQuery("1 + 1");
  EXPECT_EQ(limited.status, 429);
  EXPECT_FALSE(limited.headers["retry-after"].empty());
  EXPECT_GE(std::atoi(limited.headers["retry-after"].c_str()), 1);
  // Distinct tokens get distinct buckets even from one peer address.
  EXPECT_EQ(PostQuery("1 + 1", "", {"X-AQL-Token: other"}).status, 200);
  // GET endpoints are not rate limited.
  EXPECT_EQ(Get("/healthz").status, 200);
}

TEST_F(HttpServerTest, SixteenConcurrentClientsBitIdentical) {
  HttpServerConfig config;
  config.num_threads = 16;
  StartServer(config, {.num_workers = 4});
  constexpr int kClients = 16;
  // Distinct expected outputs per client, computed in-process first.
  std::vector<std::string> queries, expected;
  for (int i = 0; i < kClients; ++i) {
    queries.push_back("{ x * x + " + std::to_string(i) + " | \\x <- gen!50 }");
    Result<Value> direct = service_->Execute(queries.back());
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    expected.push_back(direct->ToString() + "\n");
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 4; ++round) {
        auto client = TestClient::Connect(port_);
        if (!client || !client->Request("POST", "/query", queries[i])) {
          ++failures;
          return;
        }
        TestResponse response;
        if (!client->ReadResponse(&response) || response.status != 200 ||
            response.body != expected[i]) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->requests_served(), uint64_t(kClients * 4));
}

TEST_F(HttpServerTest, OverloadRefusesWith503) {
  HttpServerConfig config;
  config.num_threads = 1;
  config.max_pending_connections = 1;  // one busy thread + one queued slot
  StartServer(config);
  // Occupy the single serving thread with a connection stalled mid-request.
  auto hog = TestClient::Connect(port_);
  ASSERT_NE(hog, nullptr);
  ASSERT_TRUE(hog->Send("POST /query HTTP/1.1\r\nContent-Length: 5\r\n"));
  // Wait until the serving thread has actually picked the connection up.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    auto counters = service_->metrics()->CounterValues();
    if (counters["http.connections.accepted"] >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Fill the single pending slot with a second idle connection.
  auto queued = TestClient::Connect(port_);
  ASSERT_NE(queued, nullptr);
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    auto counters = service_->metrics()->CounterValues();
    if (counters["http.connections.accepted"] >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The acceptor itself now writes the refusal inline.
  auto refused = TestClient::Connect(port_);
  ASSERT_NE(refused, nullptr);
  TestResponse response;
  ASSERT_TRUE(refused->ReadResponse(&response));
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(response.headers["retry-after"], "1");
  // Unblock the hog so shutdown is fast.
  hog->Send("\r\n1 + 1");
}

TEST_F(HttpServerTest, MetricsEndpoint) {
  StartServer();
  ASSERT_EQ(PostQuery("1 + 1").status, 200);
  TestResponse response = Get("/metrics");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["content-type"], "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(response.body.find("# TYPE aql_queries_completed counter"),
            std::string::npos);
  EXPECT_NE(response.body.find("aql_http_requests "), std::string::npos);
  EXPECT_NE(response.body.find("aql_latency_execute_us_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(response.body.find("aql_latency_execute_us_count "), std::string::npos);
  // Per-mutex contention counters from base/sync.h flow through the
  // service's lock.<name>.* counters into the Prometheus exposition.
  EXPECT_NE(response.body.find("aql_lock_service_plan_cache_acquisitions"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("aql_lock_service_inflight_acquisitions"),
            std::string::npos);
}

TEST_F(HttpServerTest, HealthzAndStats) {
  StartServer();
  TestResponse health = Get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");
  ASSERT_EQ(PostQuery("2 + 2").status, 200);
  TestResponse stats = Get("/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("http: "), std::string::npos) << stats.body;
  EXPECT_NE(stats.body.find("queries.completed"), std::string::npos);
}

TEST_F(HttpServerTest, SlowQueryLogEndpoint) {
  EXPECT_EQ((StartServer(), Get("/slow").status), 404) << "unconfigured -> 404";
  server_.reset();
  service_.reset();
  system_.reset();

  SlowQueryLog slow_log(8);
  service::ServiceConfig svc;
  svc.slow_query_us = 1;  // everything is "slow"
  svc.slow_query_sink = slow_log.Sink();
  HttpServerConfig config;
  config.slow_log = &slow_log;
  StartServer(config, svc);
  ASSERT_EQ(PostQuery("summap(fn \\x => x)!(gen!2000)").status, 200);
  TestResponse response = Get("/slow");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("slow query ("), std::string::npos) << response.body;
  EXPECT_NE(response.body.find("profile (total"), std::string::npos) << response.body;
  EXPECT_GE(slow_log.size(), 1u);
}

TEST_F(HttpServerTest, SlowLogRingKeepsNewestFirst) {
  SlowQueryLog log(2);
  log.Record("first");
  log.Record("second");
  log.Record("third");
  EXPECT_EQ(log.size(), 2u);
  std::string rendered = log.Render();
  EXPECT_EQ(rendered.find("third"), 0u);
  EXPECT_NE(rendered.find("second"), std::string::npos);
  EXPECT_EQ(rendered.find("first"), std::string::npos) << "evicted";
}

// Destruction-order race: the slow-query sink points at a SlowQueryLog
// that outlives the service, and submitters race QueryService::Shutdown.
// Every in-flight query either completes (and may write to the log while
// Shutdown is draining) or is refused; nothing may touch the log after
// the service is destroyed. Exercised under the tsan lane, where a sink
// write racing destruction would be reported even if it happened not to
// crash here.
TEST(ShutdownOrderingTest, SlowQuerySinkOutlivesServiceShutdownRace) {
  for (int round = 0; round < 3; ++round) {
    SlowQueryLog slow_log(64);  // constructed first, destroyed last
    System sys;
    ASSERT_TRUE(sys.init_status().ok());
    service::ServiceConfig config;
    config.num_workers = 4;
    config.slow_query_us = 1;  // every query is "slow" -> every success logs
    config.slow_query_sink = slow_log.Sink();
    auto svc = std::make_unique<service::QueryService>(&sys, config);

    std::atomic<size_t> completed{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          Result<Value> r = svc->Execute("summap(fn \\x => x)!(gen!200)");
          if (r.ok()) {
            completed.fetch_add(1, std::memory_order_relaxed);
          } else {
            return;  // service shut down underneath us: expected
          }
        }
      });
    }
    // Let some queries land, then drain while submitters are still firing.
    while (completed.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    svc->Shutdown(/*wait=*/true);
    for (std::thread& t : submitters) t.join();
    size_t logged_while_live = slow_log.size();
    // Every completed query logged (the ring caps visible entries at 64).
    EXPECT_GE(logged_while_live, std::min<size_t>(completed.load(), 64));
    svc.reset();  // service dies strictly before the log it writes to
    EXPECT_EQ(slow_log.size(), logged_while_live)
        << "nothing may append to the sink after the service is gone";
  }
}

TEST_F(HttpServerTest, GracefulDrain) {
  StartServer();
  // An idle keep-alive connection must be closed by the drain.
  auto idle = TestClient::Connect(port_);
  ASSERT_NE(idle, nullptr);
  ASSERT_EQ(PostQuery("1 + 1").status, 200);
  server_->Shutdown();
  EXPECT_FALSE(server_->running());
  char byte;
  Result<size_t> n = idle->socket()->Read(&byte, 1);
  EXPECT_TRUE(n.ok() && *n == 0) << "drain closes idle connections";
  EXPECT_EQ(TestClient::Connect(port_), nullptr) << "listener is down";
  server_->Shutdown();  // idempotent
}

TEST_F(HttpServerTest, DrainingHealthzDuringServiceShutdown) {
  StartServer();
  service_->Shutdown(true);
  TestResponse response = Get("/healthz");
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(response.body, "draining\n");
  // /query against a shut-down service maps to 503 + Retry-After.
  TestResponse query = PostQuery("1 + 1");
  EXPECT_EQ(query.status, 503);
  EXPECT_EQ(query.headers["retry-after"], "1");
}

TEST_F(HttpServerTest, ConcurrentRequestsDuringShutdown) {
  HttpServerConfig config;
  config.num_threads = 8;
  StartServer(config);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto client = TestClient::Connect(port_);
        if (!client) return;  // listener closed: done
        if (!client->Request("POST", "/query", "1 + 1")) return;
        TestResponse response;
        if (!client->ReadResponse(&response)) return;  // cut off mid-drain: fine
        // Any response the server does send must be well-formed.
        if (response.status != 200 && response.status < 400) {
          ADD_FAILURE() << "unexpected status " << response.status;
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->Shutdown();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
}

}  // namespace
}  // namespace net
}  // namespace aql
