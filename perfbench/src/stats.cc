#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {
namespace {

/// Samples a tail percentile needs beyond its rank.
constexpr std::size_t kMinBeyond = 10;
/// Bisections of the ladder between its last passing and first failing rung.
constexpr int kRefineSteps = 3;

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("Median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double> TailPercentile(std::vector<double> v, double q) {
  if (v.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const std::size_t n = v.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0 || n - rank < kMinBeyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  return v[rank - 1];
}

bool StepMeetsLimit(const StepResult& step) {
  if (step.failed > 0) return false;
  const std::optional<double> p99 = TailPercentile(step.latency_ms, 0.99);
  if (!p99 || *p99 > kLatencyLimitMs) return false;
  const double in_flight_allowed = std::ceil(step.rate_qps * kLatencyLimitMs / 1000.0);
  const double backlog =
      static_cast<double>(step.sent) - static_cast<double>(step.completed_by_end);
  return backlog <= in_flight_allowed;
}

bool MostMeetLimit(const std::vector<StepResult>& steps) {
  const auto meeting = std::count_if(steps.begin(), steps.end(), [&](const StepResult& s) {
    return StepMeetsLimit(s);
  });
  return 2 * static_cast<std::size_t>(meeting) > steps.size();
}

LadderOutcome SearchMaxRate(const std::vector<double>& rungs,
                            const std::function<RateProbe(double)>& probe) {
  LadderOutcome out;
  auto try_rate = [&](double rate) {
    out.probes.push_back(probe(rate));
    const RateProbe& p = out.probes.back();
    if (!p.meets) return false;
    out.found = true;
    out.rate_qps = rate;
    out.achieved_qps = p.achieved_qps;
    return true;
  };
  double fail_rate = 0.0;
  for (double rate : rungs) {
    if (!try_rate(rate)) {
      fail_rate = rate;
      break;
    }
  }
  if (!out.found || fail_rate == 0.0) return out;
  double lo = out.rate_qps;
  double hi = fail_rate;
  for (int i = 0; i < kRefineSteps; ++i) {
    const double mid = std::round(0.5 * (lo + hi));
    if (mid <= lo || mid >= hi) break;
    if (try_rate(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return out;
}

}  // namespace perfbench
