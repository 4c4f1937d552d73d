#include "net/server.h"

#include <sys/socket.h>

#include <utility>

#include "base/env.h"
#include "base/strings.h"
#include "object/value_write.h"
#include "obs/trace.h"

namespace aql {
namespace net {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// HTTP status for a failed query, mirroring the Status taxonomy: caller
// errors are 4xx, capacity and deadline problems are the retryable 5xx.
int HttpStatusForQuery(const Status& status) {
  switch (status.code()) {
    case StatusCode::kLexError:
    case StatusCode::kParseError:
    case StatusCode::kTypeError:
    case StatusCode::kNotFound:
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kEvalError:
      return 422;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kCancelled:
    case StatusCode::kResourceExhausted:
      return 503;
    default:
      return 500;
  }
}

}  // namespace

void SlowQueryLog::Record(std::string report) {
  MutexLock lock(&mu_);
  reports_.push_front(std::move(report));
  while (reports_.size() > capacity_) reports_.pop_back();
}

std::string SlowQueryLog::Render() const {
  MutexLock lock(&mu_);
  std::string out;
  for (const std::string& r : reports_) {
    out += r;
    if (!r.empty() && r.back() != '\n') out += '\n';
    out += '\n';
  }
  return out;
}

size_t SlowQueryLog::size() const {
  MutexLock lock(&mu_);
  return reports_.size();
}

HttpServer::HttpServer(service::QueryService* service, HttpServerConfig config)
    : service_(service),
      config_(config),
      rate_limiter_(config.rate_limit_per_sec, config.rate_limit_burst),
      connections_accepted_(service->metrics()->GetCounter("http.connections.accepted")),
      connections_refused_(service->metrics()->GetCounter("http.connections.refused")),
      requests_(service->metrics()->GetCounter("http.requests")),
      responses_2xx_(service->metrics()->GetCounter("http.responses.2xx")),
      responses_4xx_(service->metrics()->GetCounter("http.responses.4xx")),
      responses_5xx_(service->metrics()->GetCounter("http.responses.5xx")),
      rate_limited_(service->metrics()->GetCounter("http.rate_limited")),
      parse_errors_(service->metrics()->GetCounter("http.parse_errors")),
      bytes_out_(service->metrics()->GetCounter("http.bytes_out")),
      request_us_(service->metrics()->GetHistogram("http.latency.request_us")) {}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  AQL_RETURN_IF_ERROR(listener_.Listen(config_.port, config_.loopback_only));
  pool_ = std::make_unique<ThreadPool>(
      config_.num_threads, config_.max_pending_connections, "net.http.pool");
  acceptor_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void HttpServer::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    draining_.store(true, std::memory_order_release);
    // 1. Stop accepting: wake the acceptor and join it.
    listener_.Close();
    if (acceptor_.joinable()) acceptor_.join();
    // 2. Wake idle connections: half-close active read sides. In-flight
    //    responses still write; each serving loop exits at its next
    //    request boundary (or EOF).
    {
      MutexLock lock(&conns_mu_);
      for (int fd : active_conns_) ::shutdown(fd, SHUT_RD);
    }
    // 3. Finish in-flight: the pool destructor runs every admitted
    //    connection task to completion, then joins the workers.
    pool_.reset();
  });
}

void HttpServer::AcceptLoop() {
  while (true) {
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kCancelled) return;  // drained
      continue;  // transient accept failure
    }
    connections_accepted_->Increment();
    Socket socket = std::move(*accepted);
    (void)socket.SetTimeout(config_.io_timeout);
    // std::function needs a copyable closure; park the socket in a
    // shared_ptr for the ride to the serving thread.
    auto shared = std::make_shared<Socket>(std::move(socket));
    bool admitted = pool_->TrySubmit([this, shared] {
      ServeConnection(std::move(*shared));
    });
    if (!admitted) {
      // Every serving thread busy and the pending queue full: shed load
      // now, from the acceptor, with an honest Retry-After.
      connections_refused_->Increment();
      CountResponse(503);
      (void)WriteSimpleResponse(shared.get(), 503, "text/plain",
                                "server overloaded; retry later\n",
                                {{"Retry-After", "1"}, {"Connection", "close"}});
    }
  }
}

void HttpServer::ServeConnection(Socket socket) {
  {
    MutexLock lock(&conns_mu_);
    active_conns_.insert(socket.fd());
  }
  HttpParserLimits limits;
  limits.max_body = config_.max_body;
  HttpParser parser(limits);
  char buf[16 * 1024];
  bool keep_alive = true;
  while (keep_alive) {
    // A connection that was queued behind a full pool may start serving
    // after the drain began; don't read a request we won't finish.
    if (draining_.load(std::memory_order_acquire) && parser.idle()) break;
    if (parser.failed()) break;
    if (!parser.done()) {
      Result<size_t> n = socket.Read(buf, sizeof(buf));
      if (!n.ok()) {
        if (n.status().code() == StatusCode::kDeadlineExceeded && !parser.idle()) {
          CountResponse(408);
          (void)WriteSimpleResponse(&socket, 408, "text/plain",
                                    "timed out waiting for request bytes\n",
                                    {{"Connection", "close"}});
        }
        break;  // timeout, reset, or error: close
      }
      if (*n == 0) break;  // orderly EOF
      parser.Feed(std::string_view(buf, *n));
      if (parser.failed()) {
        parse_errors_->Increment();
        CountResponse(parser.http_status());
        (void)WriteSimpleResponse(&socket, parser.http_status(), "text/plain",
                                  StrCat(parser.error().message(), "\n"),
                                  {{"Connection", "close"}});
        break;
      }
      if (!parser.done()) continue;  // need more bytes
    }
    HttpRequest request = parser.TakeRequest();
    bool close_requested = request.Header("connection") == "close";
    keep_alive = HandleRequest(request, &socket) && !close_requested &&
                 !draining_.load(std::memory_order_acquire);
  }
  {
    MutexLock lock(&conns_mu_);
    active_conns_.erase(socket.fd());
  }
  // The socket closes here, after deregistration — Shutdown can never
  // half-close a reused descriptor.
}

bool HttpServer::HandleRequest(const HttpRequest& request, Socket* socket) {
  requests_->Increment();
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  uint64_t start_us = NowUs();
  bool keep_alive = true;
  {
    obs::Span span("http", StrCat("http.", request.method, " ", request.path));
    span.SetDetail(request.target);
    if (request.path == "/query") {
      if (request.method != "POST") {
        CountResponse(405);
        (void)WriteSimpleResponse(socket, 405, "text/plain",
                                  "use POST with the AQL expression as the body\n",
                                  {{"Allow", "POST"}});
      } else {
        keep_alive = HandleQuery(request, socket);
      }
    } else if (request.method != "GET" && request.method != "HEAD") {
      CountResponse(405);
      (void)WriteSimpleResponse(socket, 405, "text/plain", "method not allowed\n",
                                {{"Allow", "GET"}});
    } else if (request.path == "/metrics") {
      HandleMetrics(socket);
    } else if (request.path == "/healthz") {
      HandleHealthz(socket);
    } else if (request.path == "/stats") {
      HandleStats(socket);
    } else if (request.path == "/slow") {
      HandleSlow(socket);
    } else {
      CountResponse(404);
      (void)WriteSimpleResponse(socket, 404, "text/plain",
                                StrCat("no such endpoint: ", request.path, "\n"));
    }
  }
  request_us_->Record(NowUs() - start_us);
  return keep_alive;
}

std::string HttpServer::ClientKey(const HttpRequest& request,
                                  const Socket& socket) const {
  std::string_view token = request.Header("x-aql-token");
  if (!token.empty()) return StrCat("tok:", token);
  // Peer "ip:port" -> ip; every connection from one host shares a bucket.
  const std::string& peer = socket.peer();
  return peer.substr(0, peer.rfind(':'));
}

bool HttpServer::HandleQuery(const HttpRequest& request, Socket* socket) {
  RateLimitDecision decision = rate_limiter_.Admit(ClientKey(request, *socket), NowUs());
  if (!decision.allowed) {
    rate_limited_->Increment();
    CountResponse(429);
    (void)WriteSimpleResponse(
        socket, 429, "text/plain", "rate limit exceeded\n",
        {{"Retry-After", std::to_string(decision.retry_after_s)}});
    return true;
  }
  if (request.body.empty()) {
    CountResponse(400);
    (void)WriteSimpleResponse(socket, 400, "text/plain",
                              "empty query: POST the AQL expression as the body\n");
    return true;
  }

  // Options: query parameters, with X-AQL-* header fallbacks.
  auto param = [&request](const char* name) -> std::string_view {
    auto it = request.query.find(name);
    if (it != request.query.end()) return it->second;
    return {};
  };
  service::QueryOptions options;
  uint64_t deadline_ms = 0;
  std::string_view deadline_str = param("deadline_ms");
  if (deadline_str.empty()) deadline_str = request.Header("x-aql-deadline-ms");
  if (!deadline_str.empty() && !ParseU64Strict(deadline_str, &deadline_ms)) {
    CountResponse(400);
    (void)WriteSimpleResponse(socket, 400, "text/plain",
                              StrCat("invalid deadline_ms: \"", deadline_str, "\"\n"));
    return true;
  }
  options.deadline = deadline_ms > 0 ? std::chrono::milliseconds(deadline_ms)
                                     : config_.default_deadline;
  if (param("no_cache") == "1") {
    options.use_plan_cache = false;
    options.use_result_cache = false;  // both layers: force a real run
  }
  ValueFormat format = ValueFormat::kText;
  std::string_view format_str = param("format");
  if (!format_str.empty()) {
    if (!ParseValueFormat(format_str, &format)) {
      CountResponse(400);
      (void)WriteSimpleResponse(socket, 400, "text/plain",
                                StrCat("unknown format: \"", format_str,
                                       "\" (use text or json)\n"));
      return true;
    }
  } else if (request.Header("accept").find("application/json") != std::string::npos) {
    format = ValueFormat::kJson;
  }
  bool trace = param("trace") == "1" || request.Header("x-aql-trace") == "1";
  if (trace) options.profile_out = std::make_shared<std::string>();

  Result<Value> result = service_->Submit(request.body, options).Wait();
  if (!result.ok()) {
    int status = HttpStatusForQuery(result.status());
    CountResponse(status);
    std::vector<std::pair<std::string, std::string>> extra;
    if (status == 503) extra.emplace_back("Retry-After", "1");
    (void)WriteSimpleResponse(socket, status, "text/plain",
                              StrCat(result.status().ToString(), "\n"), extra);
    return true;
  }

  // Success: stream the result with chunked transfer encoding. The value
  // writer flushes ~stream_chunk_bytes fragments, each becoming one HTTP
  // chunk — the rendering is never materialized whole.
  CountResponse(200);
  HttpResponseWriter writer(socket);
  std::vector<std::pair<std::string, std::string>> headers;
  headers.emplace_back("Content-Type", std::string(ValueFormatContentType(format)));
  if (draining_.load(std::memory_order_acquire)) {
    headers.emplace_back("Connection", "close");
  }
  Status io = writer.WriteHead(200, /*chunked=*/true, headers);
  ValueWriter value_writer(
      [&writer](std::string_view fragment) { return writer.WriteChunk(fragment); },
      format, config_.stream_chunk_bytes);
  if (io.ok() && trace && format == ValueFormat::kJson) {
    io = writer.WriteChunk("{\"result\":");
  }
  if (io.ok()) io = value_writer.Write(*result);
  if (io.ok() && trace) {
    if (format == ValueFormat::kJson) {
      std::string profile_json;
      ValueWriter profile_writer(
          [&profile_json](std::string_view fragment) {
            profile_json.append(fragment);
            return Status::OK();
          },
          ValueFormat::kJson);
      (void)profile_writer.Write(Value::Str(*options.profile_out));
      io = writer.WriteChunk(StrCat(",\"profile\":", profile_json, "}"));
    } else {
      io = writer.WriteChunk(StrCat("\n--- profile ---\n", *options.profile_out));
    }
  }
  if (io.ok()) io = writer.WriteChunk("\n");
  if (io.ok()) io = writer.FinishChunked();
  bytes_out_->Increment(writer.bytes_written());
  // A mid-stream write failure (peer went away) poisons the connection:
  // the chunk framing is broken, so close instead of serving more.
  return io.ok();
}

void HttpServer::HandleMetrics(Socket* socket) {
  service_->SyncExecStats();
  CountResponse(200);
  HttpResponseWriter writer(socket);
  (void)writer.WriteHead(
      200, /*chunked=*/false,
      {{"Content-Type", "text/plain; version=0.0.4; charset=utf-8"}});
  (void)writer.WriteBody(service_->metrics()->RenderPrometheus());
  bytes_out_->Increment(writer.bytes_written());
}

void HttpServer::HandleHealthz(Socket* socket) {
  bool draining = draining_.load(std::memory_order_acquire) || service_->shutting_down();
  CountResponse(draining ? 503 : 200);
  (void)WriteSimpleResponse(socket, draining ? 503 : 200, "text/plain",
                            draining ? "draining\n" : "ok\n");
}

void HttpServer::HandleStats(Socket* socket) {
  CountResponse(200);
  std::string body =
      StrCat("http: ", config_.num_threads, " connection threads, port ",
             listener_.port(), ", ", requests_served(), " requests served\n",
             service_->StatsReport());
  (void)WriteSimpleResponse(socket, 200, "text/plain", body);
}

void HttpServer::HandleSlow(Socket* socket) {
  if (config_.slow_log == nullptr) {
    CountResponse(404);
    (void)WriteSimpleResponse(
        socket, 404, "text/plain",
        "slow-query log not configured (set HttpServerConfig::slow_log)\n");
    return;
  }
  CountResponse(200);
  std::string body = config_.slow_log->Render();
  if (body.empty()) body = "no slow queries recorded\n";
  (void)WriteSimpleResponse(socket, 200, "text/plain", body);
}

void HttpServer::CountResponse(int status) {
  if (status >= 500) {
    responses_5xx_->Increment();
  } else if (status >= 400) {
    responses_4xx_->Increment();
  } else {
    responses_2xx_->Increment();
  }
}

}  // namespace net
}  // namespace aql
