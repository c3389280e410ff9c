// The benchmark's own arithmetic: medians, the tail-percentile rule, the
// latency-limit verdict of one open-loop step, and the ladder search that
// finds the highest rate meeting it.  Pure functions, checked by
// `perfbench selftest` (selftest.cc).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count).  Throws
/// std::invalid_argument on an empty sample.
double Median(std::vector<double> v);

/// Nearest-rank q-quantile (0 < q < 1) of `v`, reported only when at least
/// 10 samples lie above its rank: n - ceil(q * n) >= 10.  A p99 therefore
/// needs 1000 samples.  Infinite samples (failed or refused requests) sort
/// last, so they push the tail up.
std::optional<double> TailPercentile(std::vector<double> v, double q);

/// One step of the open-loop generator at a fixed rate.
struct StepResult {
  double rate_qps = 0.0;          ///< offered rate
  std::size_t sent = 0;           ///< requests sent by the end of the step
  std::size_t completed_by_end = 0;  ///< replies received by the end of the step
  std::size_t failed = 0;         ///< non-200 replies, refusals, lost replies
  /// Latency of every request, due time to reply, in ms (+inf when failed).
  std::vector<double> latency_ms;
  double achieved_qps = 0.0;      ///< replies / (last reply - first due)
};

/// The serve workload's latency limit on the p99 (ms).
constexpr double kLatencyLimitMs = 10.0;

/// A step meets the latency limit when nothing failed, its p99 (with >= 10
/// samples beyond) is at most kLatencyLimitMs, and replies kept up with
/// sends: by the end of the step no more than rate * limit requests may
/// still be outstanding, which is all that can be in flight without waiting
/// past the limit.
bool StepMeetsLimit(const StepResult& step);

/// A rate judged on several independent steps meets the limit when most of
/// them do, so one burst of host noise cannot decide it.
bool MostMeetLimit(const std::vector<StepResult>& steps);

/// What the ladder learns from probing one rate.
struct RateProbe {
  double rate_qps = 0.0;
  bool meets = false;
  double achieved_qps = 0.0;  ///< measured reply rate
};

struct LadderOutcome {
  bool found = false;         ///< some probed rate met the limit
  double rate_qps = 0.0;      ///< highest probed rate that met it
  double achieved_qps = 0.0;  ///< measured reply rate at that rate
  std::vector<RateProbe> probes;  ///< in probe order
};

/// Probes `rungs` in ascending order until one misses the limit, then halves
/// the gap between the last passing and the first failing rung 3 times
/// (rates rounded to whole q/s).  Assumes a rate that misses stays missed
/// above it.
LadderOutcome SearchMaxRate(const std::vector<double>& rungs,
                            const std::function<RateProbe(double)>& probe);

}  // namespace perfbench
