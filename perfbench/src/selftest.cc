// Checks of the benchmark's own arithmetic, run by `perfbench selftest`
// before every measurement (perfbench/run.py): the tail-percentile rule,
// self time under nested and overlapping spans, the latency-limit verdict
// (including a step that misses only on backlog), the ladder search, and
// the digest the output checks compare.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "sha256.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  Expect(Near(Median({3, 1, 2}), 2.0), "median of an odd sample");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "median of an even sample");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const auto p99 = TailPercentile(v, 0.99);
  Expect(p99 && Near(*p99, 990.0), "p99 of 1..1000 is 990 with 10 samples beyond");
  v.pop_back();
  Expect(!TailPercentile(v, 0.99), "p99 of 999 samples has only 9 beyond: refused");
  Expect(TailPercentile(v, 0.98).has_value(), "p98 of 999 samples has 19 beyond");

  std::vector<double> with_failures(990, 1.0);
  with_failures.insert(with_failures.end(), 10, std::numeric_limits<double>::infinity());
  const auto tail = TailPercentile(with_failures, 0.99);
  Expect(tail && Near(*tail, 1.0), "10 failures sit beyond the p99 rank");
  with_failures.push_back(std::numeric_limits<double>::infinity());
  const auto worse = TailPercentile(with_failures, 0.99);
  Expect(worse && std::isinf(*worse), "an 11th failure reaches the p99");
}

void TestSelfTime() {
  // A [0,10] has children B [1,4] and D [3,6], which overlap, and E [9,12],
  // which outlives it; B has child C [2,3].
  std::vector<Span> spans = {
      {"A", 0, 10, -1, 0}, {"B", 1, 4, 0, 0}, {"C", 2, 3, 1, 0},
      {"D", 3, 6, 0, 0},   {"E", 9, 12, 0, 0},
  };
  const std::vector<double> self = SelfTimes(spans);
  Expect(Near(self[0], 4.0), "A self = 10 - |[1,6] u [9,10]| = 4");
  Expect(Near(self[1], 2.0), "B self = 3 - 1 = 2");
  Expect(Near(self[2], 1.0), "leaf C self = its duration");
  Expect(Near(self[3], 3.0), "D self = its duration");
  Expect(Near(self[4], 3.0), "E self = its duration");
  const SpanSum sum = SumSpans(spans, self, "B", 0);
  Expect(sum.count == 1 && Near(sum.total, 2.0), "SumSpans over self times");
  Expect(SumSpans(spans, {}, "A", 1).count == 0, "SumSpans filters by run");
}

StepResult Step(double rate, std::size_t n, double latency_ms, std::size_t backlog,
                std::size_t failed = 0) {
  StepResult s;
  s.rate_qps = rate;
  s.sent = n;
  s.completed_by_end = n - backlog;
  s.failed = failed;
  s.latency_ms.assign(n - failed, latency_ms);
  s.latency_ms.insert(s.latency_ms.end(), failed, std::numeric_limits<double>::infinity());
  s.achieved_qps = rate * 0.999;
  return s;
}

void TestVerdict() {
  Expect(StepMeetsLimit(Step(1000, 1100, 2.0, 3)), "fast step with a small backlog meets");
  Expect(!StepMeetsLimit(Step(1000, 1100, 12.0, 0)), "p99 over the limit misses");
  Expect(!StepMeetsLimit(Step(1000, 1100, 2.0, 0, 1)), "one failed query misses");
  Expect(StepMeetsLimit(Step(1000, 1100, 2.0, 10)),
         "rate x limit = 10 requests may be in flight");
  Expect(!StepMeetsLimit(Step(1000, 1100, 2.0, 11)),
         "latency fine but 11 outstanding: misses on backlog alone");
  Expect(!StepMeetsLimit(Step(1000, 999, 2.0, 0)), "too few samples for a p99 misses");

  StepResult slow_tail = Step(1000, 1000, 2.0, 0);
  std::fill(slow_tail.latency_ms.end() - 10, slow_tail.latency_ms.end(), 30.0);
  Expect(StepMeetsLimit(slow_tail), "10 slow queries of 1000 stay beyond the p99");
  slow_tail.latency_ms[0] = 30.0;
  Expect(!StepMeetsLimit(slow_tail), "11 slow queries of 1000 reach the p99");
}

void TestLadder() {
  // Three steps at one rate, one of them hit by a 30 ms burst, which the
  // majority verdict must absorb.
  std::vector<StepResult> steps(3, Step(1000, 1000, 2.0, 2));
  std::fill(steps[0].latency_ms.begin(), steps[0].latency_ms.end(), 30.0);
  Expect(MostMeetLimit(steps), "two of three steps meeting the limit is a pass");
  steps[1] = steps[0];
  Expect(!MostMeetLimit(steps), "two of three steps missing is a miss");

  // Latency stays at 2 ms everywhere; above 1200 q/s replies fall behind, so
  // every miss is a backlog miss.
  std::vector<double> probed;
  auto probe = [&](double rate) {
    probed.push_back(rate);
    const auto n = static_cast<std::size_t>(std::max(1000.0, rate));
    const std::vector<StepResult> parts(3, Step(rate, n, 2.0, rate > 1200 ? n / 4 : 2));
    return RateProbe{rate, MostMeetLimit(parts), parts[0].achieved_qps};
  };
  const LadderOutcome out = SearchMaxRate({500, 1000, 1500, 2000}, probe);
  const std::vector<double> expected = {500, 1000, 1500, 1250, 1125, 1188};
  Expect(probed == expected, "ladder probes 500 1000 1500, then bisects 1250 1125 1188");
  Expect(out.found && Near(out.rate_qps, 1188), "highest passing rate is 1188");
  Expect(Near(out.achieved_qps, 1188 * 0.999), "reports the achieved rate of that step");

  probed.clear();
  const LadderOutcome none = SearchMaxRate({1500, 2000}, probe);
  Expect(!none.found && probed.size() == 1, "a failing first rung stops the search");

  probed.clear();
  const LadderOutcome all = SearchMaxRate({250, 500}, probe);
  Expect(all.found && Near(all.rate_qps, 500) && probed.size() == 2,
         "all rungs pass: no bisection");
}

void TestDigest() {
  Expect(Sha256("abc") ==
             "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
         "sha256(abc)");
  Expect(Sha256("") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "sha256 of the empty string");
  Expect(Sha256(std::string(1000, 'a')) ==
             "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3",
         "sha256 across several blocks");
}

}  // namespace

int RunSelfTest() {
  TestPercentiles();
  TestSelfTime();
  TestVerdict();
  TestLadder();
  TestDigest();
  if (g_failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return g_failures;
}

}  // namespace perfbench
