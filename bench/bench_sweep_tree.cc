// Snapshot-tree sweeps: scenarios per wall second with and without
// `--sweep-tree` over two grids.
//
//   * Cap x demand-response: first effects land late in the horizon — the
//     tree shares one trajectory until the earliest divergence (the cap
//     watch's trip or the first DR window start), forks there, and only
//     simulates the post-fork tail per scenario (bench_baseline.json:
//     sweep_tree_speedup).
//   * Cap x price scale: the widest axis is trajectory-neutral, so each
//     trajectory is priced out per scale by accounting replay at the leaves
//     and throughput should approach (scale count)x the plain path's
//     (bench_baseline.json: sweep_tree_neutral_speedup).
//
// The CI gate enforces conservative floors on both ratios.  Shard/aggregate
// bit-identity between the two paths is asserted by tests/test_sweep_tree.cc,
// tests/test_sweep.cc and the CI sweep-smoke diff — this bench only measures
// the wall-clock win.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "workload/synthetic.h"

namespace sraps {
namespace {

JsonValue Window(std::int64_t start, std::int64_t end, double cap_w) {
  JsonObject w;
  w["start"] = start;
  w["end"] = end;
  w["cap_w"] = cap_w;
  return JsonValue(JsonArray{JsonValue(std::move(w))});
}

/// 2 caps x 4 DR schedules = 8 scenarios.  The earliest DR window opens at
/// hour 40 of 48, so >80% of every trajectory is shared prefix.
SweepSpec TreeGrid() {
  SweepSpec sweep;
  sweep.name = "bench-sweep-tree";
  sweep.base.name = "base";
  sweep.base.system = "mini";
  sweep.base.policy = "fcfs";
  sweep.base.backfill = "easy";
  sweep.base.record_history = false;
  sweep.base.event_calendar = true;
  sweep.base.duration = 48 * kHour;

  SyntheticWorkloadSpec wl;
  wl.horizon = 48 * kHour;
  wl.arrival_rate_per_hour = 6;
  wl.max_nodes = 8;
  wl.mean_nodes_log2 = 1.5;
  wl.seed = 29;
  sweep.synthetic = wl;

  sweep.axes.push_back(
      SweepAxis("power_cap_w", {JsonValue(4500.0), JsonValue(0.0)}));
  sweep.axes.push_back(SweepAxis(
      "grid.dr_windows",
      {JsonValue(JsonArray{}), Window(40 * kHour, 46 * kHour, 2000.0),
       Window(43 * kHour, 46 * kHour, 2000.0),
       Window(43 * kHour, 46 * kHour, 1500.0)}));
  return sweep;
}

/// 2 caps x 8 price scales = 16 scenarios: one trajectory per cap, forked
/// per scale variant with the accounting replayed.
SweepSpec NeutralGrid() {
  SweepSpec sweep = TreeGrid();
  sweep.name = "bench-sweep-tree-neutral";
  sweep.base.grid.price_usd_per_kwh = GridSignal::Diurnal(0.08, 0.5, 1.4);
  sweep.base.grid.carbon_kg_per_kwh = GridSignal::Diurnal(0.4, 0.6, 1.3);
  sweep.axes = {SweepAxis("power_cap_w", {JsonValue(1500.0), JsonValue(0.0)}),
                SweepAxis::LogRange("grid.price.scale", 0.25, 4.0, 8)};
  return sweep;
}

void RunSweepBench(benchmark::State& state, const SweepSpec& sweep, bool tree) {
  double scenarios = 0;
  std::size_t trajectories = 0;
  for (auto _ : state) {
    SweepOptions options;
    options.threads = 1;  // measure work, not the pool
    options.tree = tree;
    SweepRunner runner(sweep);
    const SweepSummary summary = runner.Run(options);
    if (summary.failed_count != 0) state.SkipWithError("sweep scenarios failed");
    if (tree && !summary.tree_used) state.SkipWithError("tree did not engage");
    scenarios += static_cast<double>(summary.total);
    trajectories = tree ? summary.tree_stats.Trajectories() : summary.total;
    benchmark::DoNotOptimize(summary.aggregates.ok_count);
  }
  state.counters["scenarios_per_s"] =
      benchmark::Counter(scenarios, benchmark::Counter::kIsRate);
  state.counters["trajectories"] =
      benchmark::Counter(static_cast<double>(trajectories));
}

void BM_SweepTreePlain(benchmark::State& state) {
  RunSweepBench(state, TreeGrid(), false);
}
void BM_SweepTree(benchmark::State& state) { RunSweepBench(state, TreeGrid(), true); }
void BM_SweepTreeNeutralPlain(benchmark::State& state) {
  RunSweepBench(state, NeutralGrid(), false);
}
void BM_SweepTreeNeutral(benchmark::State& state) {
  RunSweepBench(state, NeutralGrid(), true);
}

BENCHMARK(BM_SweepTreePlain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepTree)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepTreeNeutralPlain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepTreeNeutral)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sraps
