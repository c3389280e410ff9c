#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "trace.h"

namespace perfbench {
namespace {

/// How long a reader waits for a reply before counting it lost.
constexpr time_t kReplyTimeoutS = 30;

bool SendAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one HTTP response off `fd` (bytes beyond it stay in `buf`).
/// Returns false on EOF, timeout or a malformed reply.
bool ReadResponse(int fd, std::string& buf, int* status, std::string* body) {
  char chunk[16384];
  auto fill = [&]() {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
    return true;
  };
  std::size_t header_end;
  while ((header_end = buf.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) return false;
  }
  const std::string head = buf.substr(0, header_end);
  const std::size_t sp = head.find(' ');
  if (head.compare(0, 5, "HTTP/") != 0 || sp == std::string::npos) return false;
  *status = std::atoi(head.c_str() + sp + 1);
  std::string lower = head;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  const std::size_t cl = lower.find("\r\ncontent-length:");
  if (cl == std::string::npos) return false;
  const std::size_t length =
      std::strtoull(head.c_str() + cl + std::strlen("\r\ncontent-length:"), nullptr, 10);
  const std::size_t total = header_end + 4 + length;
  while (buf.size() < total) {
    if (!fill()) return false;
  }
  body->assign(buf, header_end + 4, length);
  buf.erase(0, total);
  return true;
}

std::string Request(std::size_t seq, const std::string& body) {
  return "POST /whatif HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Seq: " + std::to_string(seq) +
         "\r\nContent-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

}  // namespace

LoadClient::LoadClient(int port, int connections) {
  for (int c = 0; c < connections; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("loadgen: socket() failed");
    fds_.push_back(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{};
    timeout.tv_sec = kReplyTimeoutS;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("loadgen: cannot connect to 127.0.0.1:" +
                               std::to_string(port));
    }
  }
  pending_.resize(fds_.size());
}

LoadClient::~LoadClient() {
  for (int fd : fds_) ::close(fd);
}

StepRecords LoadClient::RunStep(
    double rate, double seconds, const std::function<std::string(std::size_t)>& body_of,
    bool keep_bodies) {
  const std::size_t conns = fds_.size();
  const auto n = static_cast<std::size_t>(std::ceil(rate * seconds));
  StepRecords out;
  out.requests.resize(n);
  std::vector<std::string> wire(n);
  for (std::size_t i = 0; i < n; ++i) wire[i] = Request(i, body_of(i));

  const double start = NowS() + 0.005;
  for (std::size_t i = 0; i < n; ++i) {
    out.requests[i].due_s = start + static_cast<double>(i) / rate;
  }

  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < conns; ++c) {
    readers.emplace_back([&, c]() {
      std::string body;
      for (std::size_t i = c; i < n; i += conns) {
        int status = 0;
        if (!ReadResponse(fds_[c], pending_[c], &status, &body)) return;
        RequestRecord& r = out.requests[i];
        r.recv_s = NowS();
        r.status = status;
        if (keep_bodies) r.body = body;
      }
    });
  }
  {
    Tracer::Scope span("loadgen.send");
    for (std::size_t i = 0; i < n; ++i) {
      RequestRecord& r = out.requests[i];
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(r.due_s))));
      r.sent_s = NowS();
      if (!SendAll(fds_[i % conns], wire[i])) r.sent_s = 0.0;
    }
  }
  for (std::thread& t : readers) t.join();

  StepResult& res = out.result;
  res.rate_qps = rate;
  const double end = start + seconds;
  double last_recv = start;
  std::size_t ok = 0;
  for (const RequestRecord& r : out.requests) {
    if (r.sent_s > 0.0 && r.sent_s <= end) ++res.sent;
    if (r.recv_s > 0.0 && r.recv_s <= end) ++res.completed_by_end;
    if (r.sent_s > 0.0) out.late_ms.push_back(1000.0 * (r.sent_s - r.due_s));
    if (r.status == 200) {
      ++ok;
      last_recv = std::max(last_recv, r.recv_s);
      res.latency_ms.push_back(1000.0 * (r.recv_s - r.due_s));
    } else {
      ++res.failed;
      res.latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
  }
  res.achieved_qps = last_recv > start ? static_cast<double>(ok) / (last_recv - start) : 0.0;
  return out;
}

LoadClient::ClosedLoopResult LoadClient::RunClosedLoop(
    double seconds, const std::function<std::string(std::size_t)>& body_of) {
  const std::size_t conns = fds_.size();
  std::vector<std::size_t> replies(conns, 0), failed(conns, 0);
  const double start = NowS();
  const double end = start + seconds;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < conns; ++c) {
    clients.emplace_back([&, c]() {
      std::string body;
      for (std::size_t i = c; NowS() < end; i += conns) {
        int status = 0;
        if (!SendAll(fds_[c], Request(i, body_of(i))) ||
            !ReadResponse(fds_[c], pending_[c], &status, &body)) {
          ++failed[c];
          return;
        }
        ++(status == 200 ? replies[c] : failed[c]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ClosedLoopResult out;
  for (std::size_t c = 0; c < conns; ++c) {
    out.replies += replies[c];
    out.failed += failed[c];
  }
  out.replies_per_s = static_cast<double>(out.replies) / (NowS() - start);
  return out;
}

}  // namespace perfbench
