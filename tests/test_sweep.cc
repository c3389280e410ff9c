// SweepSpec / SweepRunner: lazy cross-product expansion must enumerate the
// grid exactly (ranges, log ranges, edge cases, duplicate/unknown-key
// rejection); streaming aggregation must match a materialise-everything
// oracle; and sharded spill + aggregates must be bit-identical at any
// thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "config/system_config.h"
#include "report/sweep_report.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "sweep/tree/first_effect.h"
#include "workload/synthetic.h"

namespace sraps {
namespace {

namespace fs = std::filesystem;

std::vector<Job> SmallWorkload(std::uint64_t seed = 21) {
  SyntheticWorkloadSpec wl;
  wl.horizon = 4 * kHour;
  wl.arrival_rate_per_hour = 10;
  wl.max_nodes = 12;
  wl.mean_nodes_log2 = 1.5;
  wl.runtime_mu = 7.0;
  wl.runtime_sigma = 0.8;
  wl.seed = seed;
  return GenerateSyntheticWorkload(wl);
}

ScenarioSpec MiniBase() {
  ScenarioSpec base;
  base.name = "base";
  base.system = "mini";
  base.jobs_override = SmallWorkload();
  base.policy = "fcfs";
  base.backfill = "easy";
  base.record_history = false;
  base.duration = 12 * kHour;
  return base;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// --- axis expansion ---------------------------------------------------------

TEST(SweepAxisTest, RangeInclusiveOfBothEndpoints) {
  const SweepAxis axis = SweepAxis::Range("power_cap_w", 10.0, 30.0, 10.0);
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_DOUBLE_EQ(axis.values[0].AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(axis.values[1].AsDouble(), 20.0);
  EXPECT_DOUBLE_EQ(axis.values[2].AsDouble(), 30.0);
}

TEST(SweepAxisTest, RangeToleratesFloatRounding) {
  // 0.1 + 0.1 + 0.1 > 0.3 in binary floating point; the endpoint must
  // still be included, clamped to `to` bit-exactly.
  const SweepAxis axis = SweepAxis::Range("tick", 0.1, 0.3, 0.1);
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_DOUBLE_EQ(axis.values.back().AsDouble(), 0.3);
}

TEST(SweepAxisTest, RangeSinglePointAndPartialStep) {
  EXPECT_EQ(SweepAxis::Range("k", 5.0, 5.0, 1.0).values.size(), 1u);
  // 1, 1.4, 1.8 — 2.2 overshoots.
  EXPECT_EQ(SweepAxis::Range("k", 1.0, 2.0, 0.4).values.size(), 3u);
}

TEST(SweepAxisTest, RangeRejectsBadSteps) {
  EXPECT_THROW(SweepAxis::Range("k", 0.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(SweepAxis::Range("k", 0.0, 1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(SweepAxis::Range("k", 2.0, 1.0, 0.5), std::invalid_argument);
}

TEST(SweepAxisTest, LogRangeHitsEndpointsExactly) {
  const SweepAxis axis = SweepAxis::LogRange("power_cap_w", 1e4, 1e6, 5);
  ASSERT_EQ(axis.values.size(), 5u);
  EXPECT_DOUBLE_EQ(axis.values.front().AsDouble(), 1e4);
  EXPECT_DOUBLE_EQ(axis.values.back().AsDouble(), 1e6);
  // Geometric: constant ratio between neighbours (10^(2/4) = sqrt(10) here).
  const double ratio = std::sqrt(10.0);
  for (std::size_t i = 1; i < axis.values.size(); ++i) {
    EXPECT_NEAR(axis.values[i].AsDouble() / axis.values[i - 1].AsDouble(), ratio,
                1e-9);
  }
}

TEST(SweepAxisTest, LogRangeEdgeCases) {
  EXPECT_EQ(SweepAxis::LogRange("k", 2.0, 2.0, 1).values.size(), 1u);
  EXPECT_THROW(SweepAxis::LogRange("k", 1.0, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(SweepAxis::LogRange("k", 0.0, 2.0, 3), std::invalid_argument);
  EXPECT_THROW(SweepAxis::LogRange("k", 1.0, 2.0, 0), std::invalid_argument);
}

TEST(SweepAxisTest, JsonRoundTripAndRangeForms) {
  const SweepAxis list = SweepAxis::FromJson(
      JsonValue::Parse(R"({"key": "backfill", "values": ["easy", "none"]})"));
  EXPECT_EQ(list.key, "backfill");
  ASSERT_EQ(list.values.size(), 2u);

  const SweepAxis range = SweepAxis::FromJson(JsonValue::Parse(
      R"({"key": "power_cap_w", "range": {"from": 1, "to": 3, "step": 1}})"));
  EXPECT_EQ(range.values.size(), 3u);

  // Canonical (ToJson) form is always an explicit value list.
  const SweepAxis reparsed = SweepAxis::FromJson(range.ToJson());
  EXPECT_EQ(reparsed.values.size(), 3u);

  EXPECT_THROW(SweepAxis::FromJson(JsonValue::Parse(R"({"key": "k"})")),
               std::invalid_argument);
  EXPECT_THROW(
      SweepAxis::FromJson(JsonValue::Parse(R"({"values": [1], "typo": 1})")),
      std::invalid_argument);
  // A typo'd field must be rejected even when a valid range form is present
  // (strict parse regardless of key iteration order), as must two competing
  // value forms and unknown range sub-keys.
  EXPECT_THROW(SweepAxis::FromJson(JsonValue::Parse(
                   R"({"key": "k", "range": {"from": 1, "to": 2, "step": 1},
                       "valuse": [1]})")),
               std::invalid_argument);
  EXPECT_THROW(SweepAxis::FromJson(JsonValue::Parse(
                   R"({"key": "k", "range": {"from": 1, "to": 2, "step": 1},
                       "values": [1]})")),
               std::invalid_argument);
  EXPECT_THROW(SweepAxis::FromJson(JsonValue::Parse(
                   R"({"key": "k", "range": {"from": 1, "to": 2, "stp": 1}})")),
               std::invalid_argument);
}

TEST(SweepSpecTest, ApplyScenarioKeyFailurePreservesSpec) {
  ScenarioSpec spec = MiniBase();
  const std::size_t jobs = spec.jobs_override.size();
  ASSERT_GT(jobs, 0u);
  EXPECT_THROW(ApplyScenarioKey(spec, "no_such_key", JsonValue(1)),
               std::invalid_argument);
  EXPECT_THROW(ApplyScenarioKey(spec, "power_cap_w", JsonValue("oops")),
               std::exception);
  // The caller can recover: the programmatic workload must survive the
  // failed patch.
  EXPECT_EQ(spec.jobs_override.size(), jobs);
  EXPECT_EQ(spec.policy, "fcfs");
}

TEST(SweepSpecTest, CrossProductLastAxisFastest) {
  SweepSpec sweep;
  sweep.name = "grid";
  sweep.base = MiniBase();
  sweep.axes.push_back(SweepAxis("scheduler", {JsonValue("default")}));
  sweep.axes.push_back(
      SweepAxis("power_cap_w", {JsonValue(1e5), JsonValue(2e5)}));
  sweep.axes.push_back(SweepAxis("backfill", {JsonValue("easy"), JsonValue("none")}));
  ASSERT_EQ(sweep.ScenarioCount(), 4u);

  // Index 0: (1e5, easy); 1: (1e5, none); 2: (2e5, easy); 3: (2e5, none).
  EXPECT_DOUBLE_EQ(sweep.Expand(0).spec.power_cap_w, 1e5);
  EXPECT_EQ(sweep.Expand(0).spec.backfill, "easy");
  EXPECT_EQ(sweep.Expand(1).spec.backfill, "none");
  EXPECT_DOUBLE_EQ(sweep.Expand(2).spec.power_cap_w, 2e5);
  EXPECT_EQ(sweep.Expand(2).spec.backfill, "easy");
  EXPECT_EQ(sweep.Expand(3).spec.backfill, "none");
  EXPECT_EQ(sweep.Expand(3).spec.name, "grid-000003");
  EXPECT_EQ(sweep.Expand(3).axis_values.size(), 3u);
  EXPECT_THROW(sweep.Expand(4), std::out_of_range);

  // The base workload rides along into every expansion.
  EXPECT_EQ(sweep.Expand(0).spec.jobs_override.size(),
            sweep.base.jobs_override.size());
}

TEST(SweepSpecTest, CoolingAxesExpandThroughDottedPaths) {
  // The thermal knobs sweep through the same dotted-path machinery as every
  // other key: a supply-setpoint axis and a recirculation-intensity axis
  // need zero sweep-side support code.
  SweepSpec sweep;
  sweep.name = "thermal";
  sweep.base = MiniBase();
  sweep.base.policy = "min_hr";
  sweep.base.cooling_topology.racks = 4;
  sweep.base.cooling_topology.nodes_per_rack = 4;
  sweep.base.cooling_topology.hr_matrix.kind = "layout";
  sweep.base.cooling_topology.hr_matrix.intra_rack = 0.04;
  sweep.base.cooling_topology.hr_matrix.cross_rack = 0.01;
  sweep.base.cooling_topology.airflow_w_per_k = 300.0;
  sweep.axes.push_back(SweepAxis("cooling.supply_temp_c",
                                 {JsonValue(20.0), JsonValue(27.0)}));
  sweep.axes.push_back(SweepAxis("cooling.topology.hr_matrix.intra_rack",
                                 {JsonValue(0.02), JsonValue(0.08)}));
  EXPECT_NO_THROW(sweep.Validate());
  ASSERT_EQ(sweep.ScenarioCount(), 4u);

  const ScenarioSpec hot = sweep.Expand(3).spec;  // (27.0, 0.08)
  ASSERT_TRUE(hot.cooling_supply_temp_c.has_value());
  EXPECT_DOUBLE_EQ(*hot.cooling_supply_temp_c, 27.0);
  EXPECT_DOUBLE_EQ(hot.cooling_topology.hr_matrix.intra_rack, 0.08);
  // Untouched topology fields ride along into every expansion.
  EXPECT_EQ(hot.cooling_topology.racks, 4);
  EXPECT_DOUBLE_EQ(hot.cooling_topology.airflow_w_per_k, 300.0);
  const ScenarioSpec cold = sweep.Expand(0).spec;  // (20.0, 0.02)
  EXPECT_DOUBLE_EQ(*cold.cooling_supply_temp_c, 20.0);
  EXPECT_DOUBLE_EQ(cold.cooling_topology.hr_matrix.intra_rack, 0.02);

  // A value the cooling parser rejects is caught at validation time (the
  // probe-apply), not mid-sweep.
  sweep.axes.push_back(
      SweepAxis("cooling.topology.hr_matrix.kind", {JsonValue("helical")}));
  EXPECT_THROW(sweep.Validate(), std::invalid_argument);
}

TEST(SweepSpecTest, ValidateRejectsBadAxes) {
  SweepSpec sweep;
  sweep.name = "bad";
  sweep.base = MiniBase();
  sweep.axes.push_back(SweepAxis("power_cap_w", {JsonValue(1e5)}));
  sweep.axes.push_back(SweepAxis("power_cap_w", {JsonValue(2e5)}));
  EXPECT_THROW(sweep.Validate(), std::invalid_argument);  // duplicate key

  sweep.axes.pop_back();
  sweep.axes.push_back(SweepAxis("no_such_field", {JsonValue(1)}));
  EXPECT_THROW(sweep.Validate(), std::invalid_argument);  // unknown key

  sweep.axes.pop_back();
  sweep.axes.push_back(SweepAxis("name", {JsonValue("x")}));
  EXPECT_THROW(sweep.Validate(), std::invalid_argument);  // name not sweepable

  sweep.axes.pop_back();
  sweep.axes.push_back(SweepAxis("backfill", {}));
  EXPECT_THROW(sweep.Validate(), std::invalid_argument);  // empty axis

  sweep.axes.pop_back();
  sweep.axes.push_back(SweepAxis("synth.seed", {JsonValue(1)}));
  EXPECT_THROW(sweep.Validate(), std::invalid_argument);  // no synthetic section

  sweep.synthetic = SyntheticWorkloadSpec{};
  EXPECT_NO_THROW(sweep.Validate());

  // Type errors surface at validation, not mid-run.
  sweep.axes.push_back(SweepAxis("power_cap_w", {JsonValue("not-a-number")}));
  EXPECT_THROW(sweep.Validate(), std::invalid_argument);
}

TEST(SweepSpecTest, FileRoundTrip) {
  SweepSpec sweep;
  sweep.name = "roundtrip";
  sweep.base = MiniBase();
  sweep.base.jobs_override.clear();  // not file-representable
  sweep.axes.push_back(SweepAxis::LogRange("power_cap_w", 1e4, 1e6, 3));
  sweep.synthetic = SyntheticWorkloadSpec{};
  sweep.synthetic->seed = 99;

  const SweepSpec reparsed = SweepSpec::FromJson(sweep.ToJson());
  EXPECT_EQ(reparsed.name, "roundtrip");
  EXPECT_EQ(reparsed.ScenarioCount(), 3u);
  ASSERT_TRUE(reparsed.synthetic.has_value());
  EXPECT_EQ(reparsed.synthetic->seed, 99u);
  EXPECT_EQ(reparsed.ToJson().Dump(2), sweep.ToJson().Dump(2));

  EXPECT_THROW(SweepSpec::FromJson(JsonValue::Parse(R"({"axez": []})")),
               std::invalid_argument);
}

// --- synthetic calibration --------------------------------------------------

TEST(SweepSyntheticTest, CalibrationFitsLoadedTrace) {
  const std::vector<Job> jobs = SmallWorkload();
  const SyntheticWorkloadSpec fit = CalibrateSyntheticWorkload(jobs);

  SimTime first = jobs.front().submit_time, last = jobs.front().submit_time;
  int max_nodes = 0;
  for (const Job& j : jobs) {
    first = std::min(first, j.submit_time);
    last = std::max(last, j.submit_time);
    max_nodes = std::max(max_nodes, j.nodes_required);
  }
  EXPECT_EQ(fit.first_submit, first);
  EXPECT_EQ(fit.max_nodes, max_nodes);
  const double expected_rate =
      static_cast<double>(jobs.size()) /
      (static_cast<double>(std::max<SimDuration>(last - first, kHour)) / kHour);
  EXPECT_NEAR(fit.arrival_rate_per_hour, expected_rate, 1e-9);
  // The fitted generator must be usable as-is.
  EXPECT_FALSE(GenerateSyntheticWorkload(fit).empty());

  EXPECT_THROW(CalibrateSyntheticWorkload({}), std::invalid_argument);
}

TEST(SweepSyntheticTest, SpecJsonRoundTrip) {
  SyntheticWorkloadSpec spec;
  spec.seed = 1234;
  spec.arrival_rate_per_hour = 17.5;
  spec.gpu_jobs = false;
  const SyntheticWorkloadSpec reparsed =
      SyntheticWorkloadSpec::FromJson(spec.ToJson());
  EXPECT_EQ(reparsed.seed, 1234u);
  EXPECT_DOUBLE_EQ(reparsed.arrival_rate_per_hour, 17.5);
  EXPECT_FALSE(reparsed.gpu_jobs);
  EXPECT_THROW(
      SyntheticWorkloadSpec::FromJson(JsonValue::Parse(R"({"sede": 1})")),
      std::invalid_argument);
}

// --- streaming aggregation vs oracle ----------------------------------------

SweepSpec CapGrid() {
  SweepSpec sweep;
  sweep.name = "capgrid";
  sweep.base = MiniBase();
  const double peak_w = MakeSystemConfig("mini").PeakItPowerW();
  sweep.axes.push_back(SweepAxis("power_cap_w",
                                 {JsonValue(0.0), JsonValue(peak_w * 0.7),
                                  JsonValue(peak_w * 0.5)}));
  sweep.axes.push_back(SweepAxis("backfill", {JsonValue("easy"), JsonValue("none")}));
  return sweep;
}

TEST(SweepRunnerTest, StreamingAggregationMatchesMaterializedOracle) {
  SweepSpec sweep = CapGrid();
  SweepRunner runner(sweep);
  SweepOptions options;
  options.threads = 4;
  const SweepSummary summary = runner.Run(options);
  ASSERT_EQ(summary.total, 6u);
  EXPECT_EQ(summary.ok_count, 6u);

  // Oracle: materialise every scenario result up front, fold in plain index
  // order, and require the identical aggregate JSON.
  SweepAggregator oracle(sweep.ScenarioCount());
  for (std::size_t i = 0; i < sweep.ScenarioCount(); ++i) {
    ExpandedScenario expanded = sweep.Expand(i);
    const ScenarioResult result = RunScenarioSpec(std::move(expanded.spec), "");
    oracle.Fold(RowFromResult(result, i, std::move(expanded.axis_values)));
  }
  EXPECT_EQ(summary.aggregates.ToJson().Dump(2), oracle.Finalize().ToJson().Dump(2));

  // Spot-check the fold actually aggregated: capped runs stretch waits.
  ASSERT_FALSE(summary.aggregates.metrics.empty());
  for (const auto& [name, s] : summary.aggregates.metrics) {
    EXPECT_GE(s.max, s.p99) << name;
    EXPECT_GE(s.p99, s.p50) << name;
    EXPECT_GE(s.p50, s.min) << name;
    EXPECT_GE(s.mean, s.min) << name;
    EXPECT_LE(s.mean, s.max) << name;
  }
  EXPECT_FALSE(summary.aggregates.pareto.empty());
  EXPECT_LE(summary.aggregates.pareto.size(), summary.aggregates.points.size());
}

TEST(SweepRunnerTest, AggregatorRejectsMisuse) {
  SweepAggregator agg(2);
  SweepRow row;
  row.index = 0;
  row.ok = true;
  agg.Fold(row);
  EXPECT_THROW(agg.Fold(row), std::logic_error);  // double fold
  row.index = 7;
  EXPECT_THROW(agg.Fold(row), std::out_of_range);
  // Unfolded slots count as failures (a killed sweep still finalises).
  const SweepAggregates result = agg.Finalize();
  EXPECT_EQ(result.ok_count, 1u);
  EXPECT_EQ(result.failed_count, 1u);
}

TEST(SweepRunnerTest, MachinesClassMixAxisRunsEveryScenario) {
  // A class-mix sweep: the machines.<class>.<key> dotted path dials the
  // node split between two declared classes (the workload fits the smallest
  // mix), plus a ladder-shape axis over the gpu class.
  SweepSpec sweep;
  sweep.name = "classmix";
  sweep.base = MiniBase();
  MachineClassSpec cpu;
  cpu.name = "cpu";
  cpu.num_nodes = 12;
  cpu.cores_per_node = 16;
  MachineClassSpec gpu;
  gpu.name = "gpu";
  gpu.num_nodes = 4;
  gpu.cores_per_node = 16;
  gpu.node_power.gpus_per_node = 4;
  sweep.base.machines = {cpu, gpu};
  sweep.axes.push_back(SweepAxis("machines.cpu.nodes",
                                 {JsonValue(static_cast<std::int64_t>(12)),
                                  JsonValue(static_cast<std::int64_t>(16)),
                                  JsonValue(static_cast<std::int64_t>(20))}));
  JsonArray shallow, deep;
  for (auto [f, p] : {std::pair{1.0, 1.0}, {0.8, 0.7}}) {
    JsonObject rung;
    rung["freq_scale"] = f;
    rung["power_scale"] = p;
    shallow.emplace_back(std::move(rung));
  }
  for (auto [f, p] : {std::pair{1.0, 1.0}, {0.85, 0.72}, {0.6, 0.4}}) {
    JsonObject rung;
    rung["freq_scale"] = f;
    rung["power_scale"] = p;
    deep.emplace_back(std::move(rung));
  }
  sweep.axes.push_back(SweepAxis("machines.gpu.pstates",
                                 {JsonValue(std::move(shallow)),
                                  JsonValue(std::move(deep))}));
  sweep.Validate();

  // Expansion patches the right class: spot-check one scenario per mix.
  for (std::size_t i = 0; i < sweep.ScenarioCount(); ++i) {
    const ExpandedScenario ex = sweep.Expand(i);
    EXPECT_EQ(ex.spec.machines[0].num_nodes, 12 + 4 * static_cast<int>(i / 2));
    EXPECT_EQ(ex.spec.machines[1].num_nodes, 4);
    EXPECT_EQ(ex.spec.machines[1].NumPStates(), i % 2 == 0 ? 2 : 3);
  }

  SweepOptions options;
  options.threads = 2;
  const SweepSummary summary = SweepRunner(sweep).Run(options);
  EXPECT_EQ(summary.total, 6u);
  EXPECT_EQ(summary.ok_count, 6u);

  // A machines axis is never trajectory-neutral: no prefix sharing.
  EXPECT_EQ(FirstEffectTime(sweep.base, "machines.cpu.nodes",
                            {JsonValue(static_cast<std::int64_t>(16))}),
            0);
  for (const AxisFirstEffect& fe : ClassifySweepAxes(sweep)) {
    EXPECT_EQ(fe.cls, AxisClass::kImmediate) << sweep.axes[fe.axis].key;
  }
}

TEST(SweepRunnerTest, ParetoExcludesEmptyAndDominatedRuns) {
  SweepAggregator agg(3);
  SweepRow a;  // on frontier: cheapest
  a.index = 0;
  a.ok = true;
  a.completed = 10;
  a.total_energy_j = 1e9;
  a.makespan_s = 2000;
  SweepRow b;  // dominated by a (more energy, slower)
  b.index = 1;
  b.ok = true;
  b.completed = 10;
  b.total_energy_j = 2e9;
  b.makespan_s = 3000;
  SweepRow c;  // zero completions: excluded even though it "wins" both axes
  c.index = 2;
  c.ok = true;
  c.completed = 0;
  c.total_energy_j = 0;
  c.makespan_s = 0;
  agg.Fold(b);
  agg.Fold(a);
  agg.Fold(c);
  const SweepAggregates result = agg.Finalize();
  ASSERT_EQ(result.pareto.size(), 1u);
  EXPECT_EQ(result.pareto[0].index, 0u);
  EXPECT_EQ(result.points.size(), 2u);
}

// --- determinism and spill --------------------------------------------------

TEST(SweepRunnerTest, ShardsAndAggregatesBitIdenticalAcrossThreadCounts) {
  const std::string dir1 = "test_sweep_out1";
  const std::string dir2 = "test_sweep_out2";
  fs::remove_all(dir1);
  fs::remove_all(dir2);

  SweepOptions opt1;
  opt1.threads = 1;
  opt1.output_dir = dir1;
  opt1.shard_size = 4;  // 6 scenarios -> 2 shards, one partial
  SweepSummary s1 = SweepRunner(CapGrid()).Run(opt1);

  SweepOptions opt2 = opt1;
  opt2.threads = 4;
  opt2.output_dir = dir2;
  SweepSummary s2 = SweepRunner(CapGrid()).Run(opt2);

  ASSERT_EQ(s1.shard_paths.size(), 2u);
  ASSERT_EQ(s2.shard_paths.size(), 2u);
  for (const char* file : {"rows-00000.csv", "rows-00001.csv", "aggregates.json",
                           "manifest.json"}) {
    EXPECT_EQ(ReadFile(dir1 + "/" + file), ReadFile(dir2 + "/" + file)) << file;
  }
  // The shard CSV carries one header + shard_size rows, index-ordered.
  std::istringstream shard(ReadFile(dir1 + "/rows-00000.csv"));
  std::string line;
  std::getline(shard, line);
  EXPECT_EQ(line.rfind("index,name,power_cap_w,backfill,ok,error,", 0), 0u) << line;
  std::getline(shard, line);
  EXPECT_EQ(line.rfind("0,capgrid-000000,", 0), 0u) << line;

  fs::remove_all(dir1);
  fs::remove_all(dir2);
}

TEST(SweepRunnerTest, SyntheticSeedAxisVariesWorkloadDeterministically) {
  SweepSpec sweep;
  sweep.name = "seeds";
  sweep.base = MiniBase();
  sweep.base.jobs_override.clear();
  sweep.synthetic = SyntheticWorkloadSpec{};
  sweep.synthetic->horizon = 2 * kHour;
  sweep.synthetic->arrival_rate_per_hour = 8;
  sweep.synthetic->max_nodes = 8;
  sweep.axes.push_back(
      SweepAxis("synth.seed", {JsonValue(1), JsonValue(2), JsonValue(1)}));

  SweepOptions options;
  options.threads = 3;
  const SweepSummary summary = SweepRunner(sweep).Run(options);
  EXPECT_EQ(summary.ok_count, 3u);
  // Same seed => same workload => identical fingerprint; different seed =>
  // different workload.  Re-run to confirm reproducibility.
  const SweepSummary again = SweepRunner(sweep).Run(options);
  EXPECT_EQ(summary.aggregates.ToJson().Dump(2), again.aggregates.ToJson().Dump(2));
}

TEST(SweepRunnerTest, CalibratedSweepResolvesAndRuns) {
  SweepSpec sweep;
  sweep.name = "calibrated";
  sweep.base = MiniBase();
  sweep.calibrate_synthetic = true;
  sweep.axes.push_back(SweepAxis("synth.seed", {JsonValue(5), JsonValue(6)}));
  // Scale beyond the recorded trace: double the fitted horizon.
  sweep.axes.push_back(
      SweepAxis("synth.horizon", {JsonValue(static_cast<std::int64_t>(8 * kHour))}));

  SweepRunner runner(sweep);
  const SweepSummary summary = runner.Run();
  EXPECT_EQ(summary.ok_count, 2u);
  // The resolved spec carries the fit, so saving it reproduces the sweep.
  ASSERT_TRUE(runner.spec().synthetic.has_value());
  EXPECT_FALSE(runner.spec().calibrate_synthetic);
  EXPECT_TRUE(runner.spec().base.jobs_override.empty());
}

TEST(SweepRunnerTest, PerScenarioFailuresBecomeFailedRows) {
  SweepSpec sweep;
  sweep.name = "failures";
  sweep.base = MiniBase();
  // power_cap_w = -1 passes JSON typing but fails scenario validation at
  // build time, per scenario.
  sweep.axes.push_back(SweepAxis("power_cap_w", {JsonValue(0.0), JsonValue(-1.0)}));
  const SweepSummary summary = SweepRunner(sweep).Run();
  EXPECT_EQ(summary.ok_count, 1u);
  EXPECT_EQ(summary.failed_count, 1u);
  ASSERT_EQ(summary.sample_errors.size(), 1u);
  EXPECT_NE(summary.sample_errors[0].find("power_cap_w"), std::string::npos);
}

TEST(SweepRunnerTest, GenerationThrowBecomesFailedRowNotTermination) {
  // arrival_rate_per_hour = 0 type-checks (so Validate's probe passes) but
  // makes Rng::Exponential throw inside workload generation, on a worker
  // thread.  That must fail the row, not the process.
  SweepSpec sweep;
  sweep.name = "genfail";
  sweep.base = MiniBase();
  sweep.base.jobs_override.clear();
  sweep.synthetic = SyntheticWorkloadSpec{};
  sweep.synthetic->horizon = 2 * kHour;
  sweep.synthetic->max_nodes = 8;
  sweep.axes.push_back(SweepAxis("synth.arrival_rate_per_hour",
                                 {JsonValue(8.0), JsonValue(0.0)}));
  SweepOptions options;
  options.threads = 2;
  const SweepSummary summary = SweepRunner(sweep).Run(options);
  EXPECT_EQ(summary.ok_count, 1u);
  EXPECT_EQ(summary.failed_count, 1u);
  ASSERT_EQ(summary.sample_errors.size(), 1u);
  EXPECT_NE(summary.sample_errors[0].find("genfail-000001"), std::string::npos);
}

TEST(SweepReportTest, RendersAggregatesAndFrontier) {
  SweepSpec sweep = CapGrid();
  SweepOptions options;
  options.threads = 2;
  const SweepSummary summary = SweepRunner(sweep).Run(options);
  const std::string html = RenderSweepReport(sweep, summary.aggregates);
  EXPECT_NE(html.find("capgrid"), std::string::npos);
  EXPECT_NE(html.find("power_cap_w"), std::string::npos);
  EXPECT_NE(html.find("Pareto"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  // No execution section unless tree stats are handed in.
  EXPECT_EQ(html.find("Snapshot-tree"), std::string::npos);
}

TEST(SweepReportTest, RendersTreeExecutionSectionWhenStatsProvided) {
  SweepSpec sweep = CapGrid();
  SweepOptions options;
  options.threads = 2;
  options.tree = true;
  const SweepSummary summary = SweepRunner(sweep).Run(options);
  ASSERT_TRUE(summary.tree_used);
  const std::string html =
      RenderSweepReport(sweep, summary.aggregates, &summary.tree_stats);
  EXPECT_NE(html.find("Snapshot-tree execution"), std::string::npos);
  EXPECT_NE(html.find("shared trajectories"), std::string::npos);
  EXPECT_NE(html.find("bit-identical"), std::string::npos);
}

// --- prefix sharing (the snapshot tree's neutral axes) ----------------------

/// A grid with a price/carbon context and a trajectory-neutral scale axis
/// next to trajectory-relevant ones: 2 caps x 2 backfills x 3 scales = 12
/// scenarios, 4 combinations of the non-neutral axes.
SweepSpec ScaleGrid() {
  SweepSpec sweep;
  sweep.name = "scalegrid";
  sweep.base = MiniBase();
  sweep.base.grid.price_usd_per_kwh = GridSignal::Diurnal(0.08, 0.5, 1.4);
  sweep.base.grid.carbon_kg_per_kwh = GridSignal::Diurnal(0.4, 0.6, 1.3);
  sweep.axes.push_back(SweepAxis("power_cap_w", {JsonValue(1500.0), JsonValue(0.0)}));
  sweep.axes.push_back(SweepAxis("backfill", {JsonValue(std::string("easy")),
                                              JsonValue(std::string("none"))}));
  sweep.axes.push_back(SweepAxis(
      "grid.price.scale", {JsonValue(0.5), JsonValue(1.0), JsonValue(2.0)}));
  return sweep;
}

/// The axis indices the classifier marks trajectory-neutral.
std::vector<std::size_t> NeutralAxes(const SweepSpec& sweep) {
  std::vector<std::size_t> neutral;
  for (const AxisFirstEffect& fe : ClassifySweepAxes(sweep)) {
    if (fe.cls == AxisClass::kNeutral) neutral.push_back(fe.axis);
  }
  return neutral;
}

SweepSummary RunTree(const SweepSpec& sweep, SweepOptions options) {
  options.tree = true;
  return SweepRunner(sweep).Run(options);
}

TEST(PrefixShareTest, FirstEffectTimes) {
  const ScenarioSpec base = MiniBase();
  EXPECT_EQ(FirstEffectTime(base, "grid.price.scale", {JsonValue(2.0)}),
            kTrajectoryNeutral);
  EXPECT_EQ(FirstEffectTime(base, "grid.carbon.scale", {JsonValue(0.5)}),
            kTrajectoryNeutral);
  // A grid-reactive policy reads the values: nothing is neutral any more.
  ScenarioSpec aware = base;
  aware.policy = "grid_aware";
  EXPECT_EQ(FirstEffectTime(aware, "grid.price.scale", {JsonValue(2.0)}), 0);
  // A non-positive scale would be rejected at build; never shareable.
  EXPECT_EQ(FirstEffectTime(base, "grid.price.scale", {JsonValue(-1.0)}), 0);
  // A DR schedule is inert until its earliest window opens.
  JsonArray windows;
  JsonObject w;
  w["start"] = JsonValue(static_cast<std::int64_t>(6 * kHour));
  w["end"] = JsonValue(static_cast<std::int64_t>(8 * kHour));
  w["cap_w"] = JsonValue(1500.0);
  windows.emplace_back(std::move(w));
  EXPECT_EQ(FirstEffectTime(base, "grid.dr_windows", {JsonValue(std::move(windows))}),
            6 * kHour);
  // A static cap can bind on the first tick: no static shared prefix.
  EXPECT_EQ(FirstEffectTime(base, "power_cap_w", {JsonValue(1500.0)}), 0);
}

TEST(PrefixShareTest, PlanGroupsByNonNeutralAxes) {
  // Only the scale axis is neutral.  Under an external scheduler no root
  // can take patch forks, so the tree splits on the cap and backfill values:
  // one trajectory per combination, each priced out for 3 scales.
  SweepSpec sweep = ScaleGrid();
  sweep.base.scheduler = "scheduleflow";
  EXPECT_EQ(NeutralAxes(sweep), std::vector<std::size_t>{2});
  SweepOptions options;
  options.threads = 1;
  const SweepSummary s = RunTree(sweep, options);
  ASSERT_TRUE(s.tree_used);
  EXPECT_EQ(s.tree_stats.roots, 4u);
  EXPECT_EQ(s.tree_stats.forks, 12u);  // one accounting replay per scenario
  EXPECT_EQ(s.tree_stats.max_depth, 0u);
  EXPECT_EQ(s.tree_stats.Trajectories(), 4u);
}

TEST(PrefixShareTest, GridAwarePolicyDisablesSharing) {
  SweepSpec sweep = ScaleGrid();
  sweep.base.policy = "grid_aware";
  sweep.base.grid.slack_s = kHour;
  EXPECT_TRUE(NeutralAxes(sweep).empty());
}

TEST(PrefixShareTest, PolicyAxisWithGridAwareValueDisablesSharing) {
  SweepSpec sweep = ScaleGrid();
  sweep.base.grid.slack_s = kHour;
  sweep.axes.push_back(SweepAxis(
      "policy", {JsonValue(std::string("fcfs")),
                 JsonValue(std::string("grid_aware"))}));
  EXPECT_TRUE(NeutralAxes(sweep).empty());
}

TEST(PrefixShareTest, NonWhitelistedSchedulerDisablesSharing) {
  // A plugin scheduler receives a grid pointer through its factory context
  // and may steer on signal values; only the bundled schedulers are known
  // safe, so anything else demotes scale axes to immediate.
  SweepSpec sweep = ScaleGrid();
  sweep.base.scheduler = "my_plugin";
  EXPECT_TRUE(NeutralAxes(sweep).empty());

  SweepSpec axis_sweep = ScaleGrid();
  axis_sweep.axes.push_back(
      SweepAxis("scheduler", {JsonValue(std::string("default")),
                              JsonValue(std::string("my_plugin"))}));
  EXPECT_TRUE(NeutralAxes(axis_sweep).empty());

  // The bundled external couplings never see the grid: still shareable.
  SweepSpec external = ScaleGrid();
  external.base.scheduler = "scheduleflow";
  EXPECT_FALSE(NeutralAxes(external).empty());
}

TEST(SweepRunnerTest, SharePrefixWithExternalSchedulerMatchesPlain) {
  // scheduleflow keeps private reservation state behind the bridge: the
  // tree must clone it per accounting fork, reproduce the plain path
  // exactly, and never try (and fail) a patch fork or a cap probe.
  const std::string dir_plain = "test_share_ext_plain";
  const std::string dir_tree = "test_share_ext_tree";
  fs::remove_all(dir_plain);
  fs::remove_all(dir_tree);
  SweepSpec sweep = ScaleGrid();
  sweep.base.scheduler = "scheduleflow";
  SweepOptions options;
  options.threads = 2;
  options.output_dir = dir_plain;
  SweepRunner(sweep).Run(options);
  options.output_dir = dir_tree;
  const SweepSummary tree = RunTree(sweep, options);
  EXPECT_EQ(tree.ok_count, 12u);
  EXPECT_EQ(tree.tree_stats.fallback_scenarios, 0u);
  EXPECT_EQ(tree.tree_stats.probe_runs, 0u);
  EXPECT_LE(tree.tree_stats.Trajectories(), 4u);
  for (const char* file : {"rows-00000.csv", "aggregates.json"}) {
    EXPECT_EQ(ReadFile(dir_plain + "/" + file), ReadFile(dir_tree + "/" + file))
        << file;
  }
  fs::remove_all(dir_plain);
  fs::remove_all(dir_tree);
}

TEST(SweepRunnerTest, SharePrefixFailureRowsMatchPlainPath) {
  // A scenario that fails at build time (negative cap) must produce the
  // SAME failed rows on the tree — its root falls back to plain per-member
  // runs instead of inventing its own failure shape.
  const std::string dir_plain = "test_share_fail_plain";
  const std::string dir_tree = "test_share_fail_on";
  fs::remove_all(dir_plain);
  fs::remove_all(dir_tree);

  SweepSpec sweep = ScaleGrid();
  sweep.axes[0] = SweepAxis("power_cap_w", {JsonValue(0.0), JsonValue(-1.0)});

  SweepOptions options;
  options.threads = 2;
  options.output_dir = dir_plain;
  const SweepSummary plain = SweepRunner(sweep).Run(options);
  options.output_dir = dir_tree;
  const SweepSummary tree = RunTree(sweep, options);

  EXPECT_EQ(plain.failed_count, 6u);  // the -1 cap half of 2x2x3
  EXPECT_EQ(tree.failed_count, 6u);
  EXPECT_EQ(tree.tree_stats.fallback_scenarios, 6u);
  EXPECT_EQ(ReadFile(dir_plain + "/rows-00000.csv"),
            ReadFile(dir_tree + "/rows-00000.csv"));
  EXPECT_EQ(ReadFile(dir_plain + "/aggregates.json"),
            ReadFile(dir_tree + "/aggregates.json"));

  fs::remove_all(dir_plain);
  fs::remove_all(dir_tree);
}

TEST(SweepRunnerTest, SharePrefixOutputsBitIdenticalToPlainPath) {
  const std::string dir_plain = "test_sweep_share_plain";
  const std::string dir_tree = "test_sweep_share_on";
  fs::remove_all(dir_plain);
  fs::remove_all(dir_tree);

  SweepOptions plain;
  plain.threads = 2;
  plain.output_dir = dir_plain;
  plain.shard_size = 5;  // 12 scenarios -> 3 shards, one partial
  const SweepSummary s_plain = SweepRunner(ScaleGrid()).Run(plain);

  SweepOptions tree = plain;
  tree.output_dir = dir_tree;
  const SweepSummary s_tree = RunTree(ScaleGrid(), tree);

  EXPECT_FALSE(s_plain.tree_used);
  ASSERT_TRUE(s_tree.tree_used);
  EXPECT_EQ(s_tree.ok_count, 12u);
  EXPECT_EQ(s_tree.tree_stats.fallback_scenarios, 0u);
  // Never more trajectories than non-neutral combinations.
  EXPECT_LE(s_tree.tree_stats.Trajectories(), 4u);

  for (const char* file : {"rows-00000.csv", "rows-00001.csv", "rows-00002.csv",
                           "aggregates.json", "manifest.json"}) {
    EXPECT_EQ(ReadFile(dir_plain + "/" + file), ReadFile(dir_tree + "/" + file))
        << file;
  }

  fs::remove_all(dir_plain);
  fs::remove_all(dir_tree);
}

TEST(SweepRunnerTest, SharePrefixBitIdenticalAcrossThreadCounts) {
  SweepOptions one;
  one.threads = 1;
  const SweepSummary s1 = RunTree(ScaleGrid(), one);
  SweepOptions four = one;
  four.threads = 4;
  const SweepSummary s4 = RunTree(ScaleGrid(), four);
  EXPECT_EQ(s1.aggregates.ToJson().Dump(2), s4.aggregates.ToJson().Dump(2));
  EXPECT_EQ(s1.tree_stats.ToJson().Dump(2), s4.tree_stats.ToJson().Dump(2));
}

TEST(SweepRunnerTest, SharePrefixFallsBackWithoutNeutralAxes) {
  // No neutral axis and a root that cannot take patch forks: nothing is
  // shared, so every scenario runs the plain way on its own.
  SweepSpec sweep = CapGrid();
  sweep.base.scheduler = "scheduleflow";
  SweepOptions options;
  options.threads = 2;
  const SweepSummary tree = RunTree(sweep, options);
  EXPECT_EQ(tree.tree_stats.roots, 0u);
  EXPECT_EQ(tree.tree_stats.forks, 0u);
  EXPECT_EQ(tree.tree_stats.plain_runs, sweep.ScenarioCount());
  EXPECT_EQ(tree.tree_stats.Trajectories(), sweep.ScenarioCount());
  const SweepSummary plain = SweepRunner(sweep).Run(options);
  EXPECT_EQ(plain.aggregates.ToJson().Dump(2), tree.aggregates.ToJson().Dump(2));
}

TEST(SweepRunnerTest, SharePrefixWithEventCalendarAndSyntheticSeeds) {
  // The nightly-grid shape in miniature: calendar engine, per-seed synthetic
  // workloads, and a price-scale axis — the tree must reproduce the plain
  // path exactly with one trajectory per seed.
  SweepSpec sweep;
  sweep.name = "share-synth";
  sweep.base = MiniBase();
  sweep.base.jobs_override.clear();
  sweep.base.event_calendar = true;
  sweep.base.grid.price_usd_per_kwh = GridSignal::Diurnal(0.08, 0.5, 1.4);
  SyntheticWorkloadSpec wl;
  wl.horizon = 4 * kHour;
  wl.arrival_rate_per_hour = 8;
  wl.max_nodes = 8;
  wl.seed = 3;
  sweep.synthetic = wl;
  sweep.axes.push_back(
      SweepAxis("synth.seed", {JsonValue(std::int64_t{1}), JsonValue(std::int64_t{2})}));
  sweep.axes.push_back(SweepAxis(
      "grid.price.scale", {JsonValue(0.5), JsonValue(1.0), JsonValue(2.0)}));

  SweepOptions options;
  options.threads = 2;
  const SweepSummary plain = SweepRunner(sweep).Run(options);
  const SweepSummary tree = RunTree(sweep, options);
  EXPECT_EQ(tree.tree_stats.Trajectories(), 2u);
  EXPECT_EQ(tree.tree_stats.forks, 6u);
  EXPECT_EQ(plain.aggregates.ToJson().Dump(2), tree.aggregates.ToJson().Dump(2));
}

}  // namespace
}  // namespace sraps
