// Minimal blocking HTTP/1.1 keep-alive client for the tiled-http workload:
// one POST at a time, de-chunks the body, and notes when the first
// response byte arrived (time to first byte).

#ifndef AQLBENCH_HTTP_CLIENT_H_
#define AQLBENCH_HTTP_CLIENT_H_

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#include "base/result.h"
#include "base/socket.h"
#include "base/status.h"

namespace aqlb {

class HttpClient {
 public:
  struct Response {
    int status = 0;
    std::string body;
    std::chrono::steady_clock::time_point first_byte;
  };

  static aql::Result<std::unique_ptr<HttpClient>> Connect(uint16_t port) {
    AQL_ASSIGN_OR_RETURN(aql::Socket socket, aql::Socket::ConnectLocal(port));
    AQL_RETURN_IF_ERROR(socket.SetTimeout(std::chrono::seconds(20)));
    return std::unique_ptr<HttpClient>(new HttpClient(std::move(socket)));
  }

  aql::Status Post(const std::string& target, const std::string& body, Response* out) {
    out->body.clear();
    buf_.clear();
    AQL_RETURN_IF_ERROR(socket_.WriteAll("POST " + target +
                                         " HTTP/1.1\r\nHost: aqlbench\r\nContent-Length: " +
                                         std::to_string(body.size()) + "\r\n\r\n" + body));
    size_t header_end;
    while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      const bool first = buf_.empty();
      AQL_RETURN_IF_ERROR(Fill());
      if (first) out->first_byte = std::chrono::steady_clock::now();
    }
    if (buf_.compare(0, 9, "HTTP/1.1 ") != 0 || buf_.size() < 12) {
      return aql::Status::IoError("malformed status line");
    }
    out->status = std::atoi(buf_.c_str() + 9);
    std::string head = buf_.substr(0, header_end);
    for (char& c : head) c = char(std::tolower(static_cast<unsigned char>(c)));
    size_t pos = header_end + 4;
    if (head.find("transfer-encoding: chunked") != std::string::npos) {
      for (;;) {
        size_t eol;
        while ((eol = buf_.find("\r\n", pos)) == std::string::npos) AQL_RETURN_IF_ERROR(Fill());
        size_t size = std::strtoull(buf_.c_str() + pos, nullptr, 16);
        pos = eol + 2;
        while (buf_.size() < pos + size + 2) AQL_RETURN_IF_ERROR(Fill());
        if (size == 0) return aql::Status::OK();
        out->body.append(buf_, pos, size);
        pos += size + 2;
      }
    }
    size_t at = head.find("content-length: ");
    if (at == std::string::npos) return aql::Status::IoError("response without a length");
    size_t length = std::strtoull(head.c_str() + at + 16, nullptr, 10);
    while (buf_.size() < pos + length) AQL_RETURN_IF_ERROR(Fill());
    out->body.assign(buf_, pos, length);
    return aql::Status::OK();
  }

 private:
  explicit HttpClient(aql::Socket socket) : socket_(std::move(socket)) {}

  // Appends one read's worth of bytes to buf_.
  aql::Status Fill() {
    char chunk[64 * 1024];
    AQL_ASSIGN_OR_RETURN(size_t n, socket_.Read(chunk, sizeof(chunk)));
    if (n == 0) return aql::Status::IoError("connection closed mid-response");
    buf_.append(chunk, n);
    return aql::Status::OK();
  }

  aql::Socket socket_;
  std::string buf_;
};

}  // namespace aqlb

#endif  // AQLBENCH_HTTP_CLIENT_H_
