#include "serve/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <stdexcept>

namespace sraps {
namespace {

constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 4 * 1024 * 1024;

std::string StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

std::string LowerCopy(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string TrimCopy(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Sends all of `data`; MSG_NOSIGNAL turns a closed peer into an error
/// return instead of SIGPIPE.
bool SendAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

HttpServer::HttpServer(Handler handler) : handler_(std::move(handler)) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Start(const std::string& bind_addr, int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("HttpServer: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpServer: bad bind address '" + bind_addr + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpServer: bind to " + bind_addr + ":" +
                             std::to_string(port) + " failed: " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpServer: listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this]() { AcceptLoop(); });
}

void HttpServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::unique_lock<std::mutex> lock(conn_mu_);
  // Half-close every open connection: a thread blocked in recv() sees EOF
  // and exits its keep-alive loop; a thread mid-handler finishes and writes
  // its response first (the write side stays open).
  for (int fd : open_fds_) ::shutdown(fd, SHUT_RD);
  conn_cv_.wait(lock, [this]() { return active_connections_ == 0; });
}

void HttpServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    ++connections_accepted_;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      open_fds_.insert(fd);
      ++active_connections_;
    }
    std::thread([this, fd]() {
      ServeConnection(fd);
      {
        // Notify under the lock: once it is released, Stop() may return and
        // the server be destroyed, so this thread must not touch `this`
        // after the scope ends.  The fd is closed last, outside the set, so
        // accept() cannot reuse its number while Stop() still tracks it.
        std::lock_guard<std::mutex> lock(conn_mu_);
        open_fds_.erase(fd);
        --active_connections_;
        conn_cv_.notify_all();
      }
      ::close(fd);
    }).detach();
  }
}

void HttpServer::ServeConnection(int fd) {
  std::string buf;
  for (;;) {
    HttpRequest req;
    if (!ReadRequest(fd, &buf, &req)) return;
    HttpResponse resp;
    try {
      resp = handler_(req);
    } catch (const std::exception& e) {
      resp.status = 500;
      resp.body = std::string("{\"error\": \"unhandled exception: ") + e.what() +
                  "\"}\n";
    }
    auto conn_it = req.headers.find("connection");
    const bool client_close =
        conn_it != req.headers.end() && LowerCopy(conn_it->second) == "close";
    const bool keep_alive = !client_close && !stopping_.load();
    if (!WriteResponse(fd, resp, keep_alive)) return;
    if (!keep_alive) return;
  }
}

bool HttpServer::ReadRequest(int fd, std::string* buf_ptr, HttpRequest* req) {
  std::string& buf = *buf_ptr;
  std::size_t header_end;
  char chunk[4096];
  while ((header_end = buf.find("\r\n\r\n")) == std::string::npos) {
    if (buf.size() > kMaxHeaderBytes) return false;
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }

  // Request line: METHOD SP path SP HTTP/1.x
  std::size_t line_end = buf.find("\r\n");
  const std::string line = buf.substr(0, line_end);
  std::size_t sp1 = line.find(' ');
  std::size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
  req->method = line.substr(0, sp1);
  req->path = line.substr(sp1 + 1, sp2 - sp1 - 1);

  std::size_t pos = line_end + 2;
  while (pos < header_end) {
    std::size_t eol = buf.find("\r\n", pos);
    const std::string header = buf.substr(pos, eol - pos);
    pos = eol + 2;
    std::size_t colon = header.find(':');
    if (colon == std::string::npos) continue;
    req->headers[LowerCopy(TrimCopy(header.substr(0, colon)))] =
        TrimCopy(header.substr(colon + 1));
  }

  std::size_t content_length = 0;
  auto cl = req->headers.find("content-length");
  if (cl != req->headers.end()) {
    try {
      content_length = static_cast<std::size_t>(std::stoull(cl->second));
    } catch (const std::exception&) {
      return false;
    }
  }
  if (content_length > kMaxBodyBytes) return false;
  const std::size_t total = header_end + 4 + content_length;
  while (buf.size() < total) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  req->body = buf.substr(header_end + 4, content_length);
  // Keep any pipelined follow-up request for the next ReadRequest call.
  buf.erase(0, total);
  return true;
}

bool HttpServer::WriteResponse(int fd, const HttpResponse& resp, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    StatusText(resp.status) + "\r\n";
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  for (const auto& [key, value] : resp.extra_headers) {
    out += key + ": " + value + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += resp.body;
  return SendAll(fd, out);
}

}  // namespace sraps
