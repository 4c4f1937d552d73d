// aql::net::HttpServer — the HTTP/1.1 query front end over
// service::QueryService (the network gateway the paper's §4.1
// module/host split makes possible; docs/HTTP.md is the user guide).
//
// Endpoints:
//   POST /query    body = AQL expression text. Options via query params
//                  (or X-AQL-* headers): deadline_ms, format=text|json,
//                  trace=1, no_cache=1. Results
//                  stream with chunked transfer encoding through
//                  object/value_write.h — a large array is delivered in
//                  bounded fragments, never materialized as one string.
//   GET  /metrics  MetricsRegistry in Prometheus text exposition format.
//   GET  /healthz  200 "ok" / 503 "draining".
//   GET  /stats    the REPL's :stats report (plus a server line).
//   GET  /slow     recent slow-query profiles (see SlowQueryLog).
//
// Serving model: one acceptor thread plus a base::ThreadPool of
// connection threads; each accepted connection is served whole (blocking
// reads with a timeout, HTTP keep-alive) by one pooled task. Admission
// control is layered:
//   - connection overload: the pool's bounded queue is full -> 503 with
//     Retry-After, written inline by the acceptor;
//   - per-client rate limiting (net/rate_limiter.h, keyed by X-AQL-Token
//     or peer IP) on /query -> 429 with Retry-After;
//   - the service's own admission queue -> 503 with Retry-After.
//
// Shutdown() is a graceful drain: stop accepting, half-close idle
// connections' read sides (in-flight responses still write), wait for
// the connection pool to finish, join. Per-request obs::Span
// instrumentation and http.* counters/histograms land in the *shared*
// service registry, so /metrics and :stats see one coherent picture.

#ifndef AQL_NET_SERVER_H_
#define AQL_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>  // std::once_flag
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/socket.h"
#include "base/sync.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "net/http.h"
#include "net/rate_limiter.h"
#include "service/service.h"

namespace aql {
namespace net {

// Bounded ring of slow-query reports backing GET /slow. Plug Sink() into
// ServiceConfig::slow_query_sink; thread-safe.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity = 64) : capacity_(capacity < 1 ? 1 : capacity) {}

  void Record(std::string report);
  // Newest first, separated by a blank line.
  std::string Render() const;
  size_t size() const;

  std::function<void(const std::string&)> Sink() {
    return [this](const std::string& report) { Record(report); };
  }

 private:
  const size_t capacity_;
  mutable Mutex mu_{"net.slowlog", lock_rank::kSlowLog};
  std::deque<std::string> reports_ AQL_GUARDED_BY(mu_);  // front = newest
};

struct HttpServerConfig {
  uint16_t port = 8080;       // 0 picks an ephemeral port (see port())
  bool loopback_only = true;  // bind 127.0.0.1; false binds 0.0.0.0
  size_t num_threads = 8;     // connection-serving threads
  // Connections waiting for a serving thread beyond this are refused
  // with 503 (the serving threads themselves bound the concurrency).
  size_t max_pending_connections = 64;
  size_t max_body = 8 * 1024 * 1024;  // request body cap (413 beyond)
  // Per-socket blocking read/write timeout; an idle keep-alive
  // connection is closed after one quiet interval.
  std::chrono::milliseconds io_timeout{30000};
  // Per-client token bucket on /query: sustained requests/second and
  // burst size; 0 disables. Keyed by X-AQL-Token, else peer IP.
  double rate_limit_per_sec = 0;
  double rate_limit_burst = 32;
  // Flush threshold of the streaming result writer == HTTP chunk size.
  size_t stream_chunk_bytes = 64 * 1024;
  // Default deadline applied to /query requests that carry none; zero
  // defers to the service's own default.
  std::chrono::milliseconds default_deadline{0};
  // Rendered by GET /slow when set (wire its Sink() into the service).
  SlowQueryLog* slow_log = nullptr;
};

class HttpServer {
 public:
  // `service` must outlive the server.
  HttpServer(service::QueryService* service, HttpServerConfig config = {});
  ~HttpServer();  // implies Shutdown()

  // Binds and starts the acceptor; returns the bind error on failure.
  Status Start();

  // The bound port (after Start); useful with config.port == 0.
  uint16_t port() const { return listener_.port(); }
  bool running() const { return started_ && !draining_.load(std::memory_order_acquire); }

  // Graceful drain: stop accepting, finish in-flight requests, join all
  // threads. Idempotent; blocks until the server is fully stopped.
  void Shutdown();

  // Total requests served (any endpoint, any status), for tests.
  uint64_t requests_served() const {
    return requests_total_.load(std::memory_order_relaxed);
  }

 private:
  struct QueryParams;  // parsed /query options

  void AcceptLoop();
  void ServeConnection(Socket socket);
  // Returns false when the connection should close after this response.
  bool HandleRequest(const HttpRequest& request, Socket* socket);
  bool HandleQuery(const HttpRequest& request, Socket* socket);
  void HandleMetrics(Socket* socket);
  void HandleHealthz(Socket* socket);
  void HandleStats(Socket* socket);
  void HandleSlow(Socket* socket);
  void CountResponse(int status);
  std::string ClientKey(const HttpRequest& request, const Socket& socket) const;

  service::QueryService* const service_;
  const HttpServerConfig config_;

  Listener listener_;
  RateLimiter rate_limiter_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread acceptor_;
  bool started_ = false;
  std::atomic<bool> draining_{false};
  std::once_flag shutdown_once_;

  // Active connection fds; Shutdown half-closes their read sides so
  // blocked reads wake promptly. An fd is removed under the mutex before
  // its Socket closes, so Shutdown never touches a reused descriptor.
  Mutex conns_mu_{"net.server.conns", lock_rank::kServerConns};
  std::set<int> active_conns_ AQL_GUARDED_BY(conns_mu_);

  // http.* instruments in the shared service registry.
  service::Counter* connections_accepted_;
  service::Counter* connections_refused_;
  service::Counter* requests_;
  service::Counter* responses_2xx_;
  service::Counter* responses_4xx_;
  service::Counter* responses_5xx_;
  service::Counter* rate_limited_;
  service::Counter* parse_errors_;
  service::Counter* bytes_out_;
  service::Histogram* request_us_;

  std::atomic<uint64_t> requests_total_{0};
};

}  // namespace net
}  // namespace aql

#endif  // AQL_NET_SERVER_H_
