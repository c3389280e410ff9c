// Open-loop HTTP load generator for the serve workload.  One generator
// thread sends POST requests on a fixed schedule over a few keep-alive
// connections, pipelining them: it never waits for a reply before the next
// send, so a slow server faces a growing queue instead of a slower client.
// One reader thread per connection collects the replies, which HTTP/1.1
// returns in request order.  Every request is timed from the moment it was
// due, not from when it was sent, so a stall charges every request queued
// behind it.  A closed-loop mode measures how many replies the server can
// produce per second.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// One request's record.
struct RequestRecord {
  double due_s = 0.0;   ///< scheduled send time (steady clock)
  double sent_s = 0.0;  ///< when the generator began writing it
  double recv_s = 0.0;  ///< when the full reply was read (0 if never)
  int status = 0;       ///< HTTP status, 0 when no reply arrived
  std::string body;     ///< reply body (kept when requested)
};

struct StepRecords {
  StepResult result;                 ///< the verdict inputs
  std::vector<RequestRecord> requests;
  std::vector<double> late_ms;       ///< sent - due per request
};

class LoadClient {
 public:
  /// Connects `connections` keep-alive sockets to 127.0.0.1:`port`, each
  /// giving up on a reply after 30 s.  Throws std::runtime_error when a
  /// connection fails.
  LoadClient(int port, int connections);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Sends ceil(rate * seconds) requests, the i-th due at start + i / rate,
  /// request i on connection i % connections, with body `body_of(i)` and
  /// header "X-Seq: i".  Waits for every reply (or a 30 s read timeout), then
  /// returns the records.  `keep_bodies` keeps every reply body.
  StepRecords RunStep(double rate, double seconds,
                      const std::function<std::string(std::size_t)>& body_of,
                      bool keep_bodies);

  /// Closed loop for `seconds`: each connection sends its next request as
  /// soon as the previous reply arrives, so the server is never idle for
  /// want of work.  Returns the replies per second and the failures.
  struct ClosedLoopResult {
    double replies_per_s = 0.0;
    std::size_t replies = 0;
    std::size_t failed = 0;
  };
  ClosedLoopResult RunClosedLoop(double seconds,
                                 const std::function<std::string(std::size_t)>& body_of);

 private:
  std::vector<int> fds_;
  std::vector<std::string> pending_;  ///< per-connection unread bytes
};

}  // namespace perfbench
