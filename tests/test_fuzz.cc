// Randomized end-to-end property tests: across random workloads, policies,
// backfill modes, systems, and failure injections, the engine must uphold
// its invariants — no crash, utilisation within [0,100], conservation of
// job states, monotone time, positive energies, and capacity never
// oversubscribed.  Plus per-CDU cooling model properties, and the CSV input
// surface: the streaming tokenizer against the whole-text parser it
// replaced, and the streaming jobs/traces loaders against the table-based
// ones on byte-mutated files.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/csv.h"
#include "common/rng.h"
#include "cooling/multi_cdu.h"
#include "core/simulation.h"
#include "dataloaders/dataloader.h"
#include "dataloaders/jobs_io.h"
#include "dataloaders/replay_synth.h"
#include "dataloaders/trace_table.h"
#include "grid/grid_environment.h"
#include "workload/synthetic.h"

namespace sraps {
namespace {

namespace fs = std::filesystem;

struct FuzzCase {
  std::uint64_t seed;
  const char* policy;
  const char* backfill;
  bool outages;
  double cap_fraction;  // 0 = uncapped
};

// Without this, gtest prints the case as raw bytes, including the policy and
// backfill pointers; under ASLR that made the discovered ctest names change
// on every build.
void PrintTo(const FuzzCase& fc, std::ostream* os) {
  *os << "seed" << fc.seed << '_' << fc.policy << '_' << fc.backfill;
  if (fc.outages) *os << "_outages";
  if (fc.cap_fraction > 0) *os << "_cap" << fc.cap_fraction;
}

class EngineFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(EngineFuzz, InvariantsHold) {
  const FuzzCase& fc = GetParam();
  Rng rng(fc.seed);

  // Draw the recorded-schedule capacity cap first so jobs always fit it.
  const double utilization_cap = rng.Uniform(0.6, 1.0);
  const int usable = std::max(1, static_cast<int>(16 * utilization_cap));

  SyntheticWorkloadSpec wl;
  wl.horizon = static_cast<SimDuration>(rng.UniformInt(2, 8)) * kHour;
  wl.arrival_rate_per_hour = rng.Uniform(5, 60);
  wl.max_nodes = static_cast<int>(rng.UniformInt(1, usable));
  wl.mean_nodes_log2 = rng.Uniform(0.5, 2.5);
  wl.runtime_mu = rng.Uniform(6.5, 8.0);
  wl.runtime_sigma = rng.Uniform(0.4, 1.2);
  wl.seed = fc.seed * 7 + 1;
  std::vector<Job> jobs = GenerateSyntheticWorkload(wl);
  if (jobs.empty()) GTEST_SKIP() << "empty workload draw";

  ReplaySynthesisOptions rs;
  rs.total_nodes = 16;
  rs.utilization_cap = utilization_cap;
  rs.max_hold = rng.UniformInt(0, 30 * kMinute);
  rs.seed = fc.seed + 2;
  SynthesizeRecordedSchedule(jobs, rs);

  ScenarioSpec opts;
  opts.system = "mini";
  opts.jobs_override = jobs;
  opts.policy = fc.policy;
  opts.backfill = fc.backfill;
  opts.duration = wl.horizon + 12 * kHour;  // generous drain window
  if (fc.outages) {
    opts.outages = {{rng.UniformInt(0, kHour), rng.UniformInt(kHour, 4 * kHour),
                     {static_cast<int>(rng.UniformInt(0, 7)),
                      static_cast<int>(rng.UniformInt(8, 15))}}};
  }
  if (fc.cap_fraction > 0) {
    opts.power_cap_w = MakeSystemConfig("mini").PeakItPowerW() * fc.cap_fraction;
  }

  Simulation sim(opts);
  ASSERT_NO_THROW(sim.Run());
  const auto& eng = sim.engine();

  // Utilisation in range.
  EXPECT_GE(eng.recorder().MinOf("utilization"), 0.0);
  EXPECT_LE(eng.recorder().MaxOf("utilization"), 100.0 + 1e-9);

  // Every job ended in a valid terminal or live state, with consistent times.
  std::size_t completed = 0, dismissed = 0;
  for (std::size_t i = 0; i < eng.jobs().size(); ++i) {
    const Job& j = eng.jobs()[i];
    switch (j.state) {
      case JobState::kCompleted: {
        ++completed;
        EXPECT_GE(j.start, j.submit_time);
        EXPECT_GT(j.end, j.start);
        EXPECT_EQ(static_cast<int>(j.assigned_nodes.size()), j.nodes_required);
        const double e = eng.job_energy_j()[i];
        EXPECT_TRUE(std::isfinite(e));
        EXPECT_GT(e, 0.0);
        break;
      }
      case JobState::kDismissed:
        ++dismissed;
        break;
      case JobState::kQueued:
      case JobState::kRunning:
      case JobState::kPending:
        break;  // window may legitimately end with live jobs
    }
  }
  EXPECT_EQ(completed, eng.counters().completed);
  EXPECT_EQ(dismissed, eng.counters().dismissed);

  // Power always at least idle (down nodes stay powered) and at most peak.
  const SystemConfig config = MakeSystemConfig("mini");
  EXPECT_GE(eng.recorder().MinOf("it_power_kw") * 1000.0, config.IdleItPowerW() - 1e-6);
  EXPECT_LE(eng.recorder().MaxOf("it_power_kw") * 1000.0, config.PeakItPowerW() + 1e-6);

  // Under a cap, the recorded wall power respects it.
  if (fc.cap_fraction > 0) {
    EXPECT_LE(eng.recorder().MaxOf("power_kw") * 1000.0, opts.power_cap_w * 1.001);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EngineFuzz,
    ::testing::Values(FuzzCase{11, "fcfs", "none", false, 0},
                      FuzzCase{12, "fcfs", "easy", false, 0},
                      FuzzCase{13, "sjf", "firstfit", false, 0},
                      FuzzCase{14, "ljf", "easy", true, 0},
                      FuzzCase{15, "priority", "conservative", false, 0},
                      FuzzCase{16, "replay", "none", false, 0},
                      FuzzCase{17, "fcfs", "easy", true, 0},
                      FuzzCase{18, "sjf", "conservative", true, 0},
                      FuzzCase{19, "fcfs", "firstfit", false, 0.8},
                      FuzzCase{20, "priority", "easy", true, 0.7},
                      FuzzCase{21, "replay", "none", true, 0},
                      FuzzCase{22, "ljf", "none", false, 0.9},
                      FuzzCase{23, "fcfs", "conservative", true, 0.85},
                      FuzzCase{24, "sjf", "easy", false, 0},
                      FuzzCase{25, "priority", "firstfit", true, 0}));

// --- grid JSON block fuzz --------------------------------------------------------

/// Random "grid" JSON blocks — structurally valid and invalid alike — parsed
/// through the strict ScenarioSpec path.  Valid blocks must run with the
/// engine invariants intact (finite non-negative cost/emissions, wall power
/// under the effective cap inside DR windows); invalid ones must be rejected
/// with std::invalid_argument at load/build time, never crash mid-run.
class GridJsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridJsonFuzz, ParseValidateRunOrReject) {
  Rng rng(GetParam());
  const SimDuration horizon = 6 * kHour;

  JsonObject grid;
  // Price: one random kind (sometimes absent).
  switch (rng.UniformInt(0, 3)) {
    case 0: {
      JsonObject sig;
      sig["kind"] = "constant";
      sig["value"] = rng.Uniform(0.01, 0.5);
      grid["price"] = JsonValue(std::move(sig));
      break;
    }
    case 1: {
      JsonObject sig;
      sig["kind"] = "diurnal";
      sig["base"] = rng.Uniform(0.02, 0.3);
      sig["dip"] = rng.Uniform(0.2, 1.0);
      sig["peak"] = rng.Uniform(1.0, 2.0);
      sig["scale"] = rng.Uniform(0.5, 2.0);
      grid["price"] = JsonValue(std::move(sig));
      break;
    }
    case 2: {
      JsonObject sig;
      sig["kind"] = "steps";
      JsonArray times, values;
      SimTime t = rng.UniformInt(0, kHour);
      for (int i = 0, n = static_cast<int>(rng.UniformInt(1, 6)); i < n; ++i) {
        times.emplace_back(static_cast<std::int64_t>(t));
        values.emplace_back(rng.Uniform(0.01, 0.4));
        t += rng.UniformInt(1, 2 * kHour);
      }
      sig["times"] = JsonValue(std::move(times));
      sig["values"] = JsonValue(std::move(values));
      grid["price"] = JsonValue(std::move(sig));
      break;
    }
    default:
      break;  // no price signal
  }
  if (rng.UniformInt(0, 1) == 0) {
    JsonObject sig;
    sig["kind"] = "constant";
    sig["value"] = rng.Uniform(0.1, 0.6);
    grid["carbon"] = JsonValue(std::move(sig));
  }
  // DR windows; a "broken" draw injects end <= start, an out-of-range
  // window, or a non-positive cap — each must be rejected cleanly.
  const int breakage = static_cast<int>(rng.UniformInt(0, 5));  // 0-2 break
  const double peak_w = MakeSystemConfig("mini").PeakItPowerW();
  {
    JsonArray windows;
    const int n = static_cast<int>(rng.UniformInt(0, 2));
    for (int i = 0; i < n || (breakage <= 2 && i == 0); ++i) {
      JsonObject w;
      SimTime start = rng.UniformInt(0, horizon - kHour);
      SimTime end = start + rng.UniformInt(kMinute, 2 * kHour);
      double cap = peak_w * rng.Uniform(0.3, 0.9);
      if (i == 0 && breakage == 0) end = start - rng.UniformInt(0, kHour);
      if (i == 0 && breakage == 1) {
        start = horizon + kDay;
        end = start + kHour;
      }
      if (i == 0 && breakage == 2) cap = -cap;
      w["start"] = JsonValue(static_cast<std::int64_t>(start));
      w["end"] = JsonValue(static_cast<std::int64_t>(end));
      w["cap_w"] = cap;
      windows.emplace_back(std::move(w));
    }
    if (!windows.empty()) grid["dr_windows"] = JsonValue(std::move(windows));
  }
  if (rng.UniformInt(0, 1) == 0) {
    grid["slack_s"] = JsonValue(static_cast<std::int64_t>(rng.UniformInt(0, 2 * kHour)));
  }
  const bool expect_reject = breakage <= 2 && grid.count("dr_windows") > 0;

  SyntheticWorkloadSpec wl;
  wl.horizon = horizon / 2;
  wl.arrival_rate_per_hour = 8;
  wl.max_nodes = 8;
  wl.seed = GetParam();
  JsonObject spec_json;
  spec_json["name"] = "grid-fuzz";
  spec_json["system"] = "mini";
  spec_json["duration"] = JsonValue(static_cast<std::int64_t>(horizon));
  spec_json["grid"] = JsonValue(std::move(grid));

  ScenarioSpec opts;
  try {
    opts = ScenarioSpec::FromJson(JsonValue(std::move(spec_json)));
    opts.jobs_override = GenerateSyntheticWorkload(wl);
    ValidateScenarioSpec(opts);
    Simulation sim(opts);
    sim.Run();
    EXPECT_FALSE(expect_reject) << "broken grid block was accepted";
    const auto& eng = sim.engine();
    EXPECT_TRUE(std::isfinite(eng.grid_cost_usd()));
    EXPECT_TRUE(std::isfinite(eng.grid_co2_kg()));
    EXPECT_GE(eng.grid_cost_usd(), 0.0);
    EXPECT_GE(eng.grid_co2_kg(), 0.0);
    if (opts.grid.HasSignals()) {
      EXPECT_EQ(eng.stats().has_grid(), true);
    }
    // Wall power respects the effective cap inside every DR window.
    if (!opts.grid.dr_windows.empty() && eng.recorder().Has("power_kw")) {
      const Channel& power = eng.recorder().Get("power_kw");
      for (std::size_t i = 0; i < power.times.size(); ++i) {
        const double cap =
            opts.grid.EffectiveCapW(power.times[i], opts.power_cap_w);
        if (cap > 0.0) {
          EXPECT_LE(power.values[i] * 1000.0, cap * 1.001) << power.times[i];
        }
      }
    }
    // The grid block round-trips through the spec JSON.
    const ScenarioSpec back = ScenarioSpec::FromJson(opts.ToJson());
    EXPECT_EQ(back.grid.ToJson().Dump(2), opts.grid.ToJson().Dump(2));
  } catch (const std::invalid_argument& e) {
    // A structurally valid draw may still be rejected when the random
    // workload's window happens not to contain it — but only for that
    // reason; anything else is a real bug.
    if (!expect_reject) {
      EXPECT_NE(std::string(e.what()).find("outside the simulated window"),
                std::string::npos)
          << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridJsonFuzz,
                         ::testing::Range<std::uint64_t>(100, 130));

// --- machines JSON block fuzz ----------------------------------------------------

/// Random "machines" JSON blocks — well-formed heterogeneous class lists and
/// deliberately broken ones (duplicate names, bad ladder roots, non-monotone
/// power scales, out-of-range scales, unknown keys, negative node counts).
/// Valid blocks must run under fcfs and the power-state policy family with
/// the engine invariants intact; broken ones must be rejected with
/// std::invalid_argument at parse/validate time, never crash mid-run.
class MachinesJsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MachinesJsonFuzz, ParseValidateRunOrReject) {
  Rng rng(GetParam());
  const int breakage = static_cast<int>(rng.UniformInt(0, 11));  // 0-5 break

  auto make_class = [&](const char* name, int nodes) {
    JsonObject c;
    c["name"] = name;
    c["nodes"] = JsonValue(static_cast<std::int64_t>(nodes));
    c["cores"] = JsonValue(static_cast<std::int64_t>(rng.UniformInt(8, 32)));
    if (rng.UniformInt(0, 1) == 0) c["memory_gb"] = rng.Uniform(64.0, 512.0);
    // A random strictly-descending ladder rooted at {1.0, 1.0}.
    JsonArray ladder;
    double freq = 1.0, power = 1.0;
    for (int r = 0, rungs = static_cast<int>(rng.UniformInt(2, 4)); r < rungs; ++r) {
      JsonObject p;
      p["freq_scale"] = freq;
      p["power_scale"] = power;
      ladder.emplace_back(std::move(p));
      freq -= rng.Uniform(0.05, 0.2);
      power -= rng.Uniform(0.05, 0.2);
    }
    c["pstates"] = JsonValue(std::move(ladder));
    if (rng.UniformInt(0, 1) == 0) {
      JsonObject cs;
      cs["power_w"] = rng.Uniform(20.0, 80.0);
      cs["wake_latency_s"] =
          JsonValue(static_cast<std::int64_t>(rng.UniformInt(1, 120)));
      c["c_state"] = JsonValue(std::move(cs));
      if (rng.UniformInt(0, 1) == 0) {
        JsonObject ss;
        ss["power_w"] = rng.Uniform(1.0, 15.0);
        ss["wake_latency_s"] =
            JsonValue(static_cast<std::int64_t>(rng.UniformInt(120, 900)));
        c["s_state"] = JsonValue(std::move(ss));
      }
    }
    return c;
  };

  JsonObject cls = make_class("a", static_cast<int>(rng.UniformInt(8, 12)));
  JsonArray machines;
  switch (breakage) {
    case 1: {  // ladder root must be exactly {1.0, 1.0}
      JsonArray bad;
      JsonObject p;
      p["freq_scale"] = 0.9;
      p["power_scale"] = 1.0;
      bad.emplace_back(std::move(p));
      cls["pstates"] = JsonValue(std::move(bad));
      break;
    }
    case 2: {  // power_scale not strictly decreasing
      JsonArray bad;
      JsonObject p0, p1;
      p0["freq_scale"] = 1.0;
      p0["power_scale"] = 1.0;
      p1["freq_scale"] = 0.8;
      p1["power_scale"] = 1.0;
      bad.emplace_back(std::move(p0));
      bad.emplace_back(std::move(p1));
      cls["pstates"] = JsonValue(std::move(bad));
      break;
    }
    case 3: {  // freq_scale outside (0, 1]
      JsonArray bad;
      JsonObject p0, p1;
      p0["freq_scale"] = 1.0;
      p0["power_scale"] = 1.0;
      p1["freq_scale"] = 1.5;
      p1["power_scale"] = 0.7;
      bad.emplace_back(std::move(p0));
      bad.emplace_back(std::move(p1));
      cls["pstates"] = JsonValue(std::move(bad));
      break;
    }
    case 4:  // strict parsing: unknown keys throw
      cls["typo_knob"] = JsonValue(static_cast<std::int64_t>(1));
      break;
    case 5:  // negative node count
      cls["nodes"] = JsonValue(static_cast<std::int64_t>(-3));
      break;
    default:
      break;
  }
  machines.emplace_back(std::move(cls));
  if (breakage == 0) {
    machines.emplace_back(make_class("a", 4));  // duplicate class name
  } else if (rng.UniformInt(0, 1) == 0) {
    machines.emplace_back(make_class("b", static_cast<int>(rng.UniformInt(2, 6))));
  }
  const bool expect_reject = breakage <= 5;

  JsonObject spec_json;
  spec_json["name"] = "machines-fuzz";
  spec_json["system"] = "mini";
  spec_json["duration"] = JsonValue(static_cast<std::int64_t>(6 * kHour));
  static const char* const kPolicies[] = {"fcfs", "race_to_idle", "pace_to_cap"};
  spec_json["policy"] = kPolicies[rng.UniformInt(0, 2)];
  spec_json["backfill"] = "easy";
  spec_json["machines"] = JsonValue(std::move(machines));

  SyntheticWorkloadSpec wl;
  wl.horizon = 3 * kHour;
  wl.arrival_rate_per_hour = 8;
  wl.max_nodes = 8;  // always fits: class "a" declares >= 8 nodes
  wl.seed = GetParam();

  try {
    ScenarioSpec opts = ScenarioSpec::FromJson(JsonValue(std::move(spec_json)));
    opts.jobs_override = GenerateSyntheticWorkload(wl);
    ValidateScenarioSpec(opts);
    Simulation sim(opts);
    sim.Run();
    EXPECT_FALSE(expect_reject) << "broken machines block was accepted";
    const auto& eng = sim.engine();
    EXPECT_EQ(eng.counters().submitted, opts.jobs_override.size());
    EXPECT_LE(eng.recorder().MaxOf("utilization"), 100.001);
    EXPECT_GE(eng.recorder().MinOf("power_kw"), 0.0);
    for (double j : eng.class_energy_j()) {
      EXPECT_TRUE(std::isfinite(j));
      EXPECT_GE(j, 0.0);
    }
    // The machines block round-trips through the spec JSON bit-exactly.
    const ScenarioSpec back = ScenarioSpec::FromJson(opts.ToJson());
    EXPECT_EQ(back.ToJson().Dump(2), opts.ToJson().Dump(2));
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(expect_reject) << "valid machines block rejected: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachinesJsonFuzz,
                         ::testing::Range<std::uint64_t>(300, 340));

// --- cooling JSON block fuzz -----------------------------------------------------

/// Random scenario-level "cooling" blocks — supply setpoints and thermal
/// topologies over the mini machine (dense / banded / layout recirculation
/// matrices), plus deliberately broken draws (rack grid that does not tile the
/// machine, row sums above 1, non-square dense matrices, decay outside (0,1],
/// unknown keys, negative airflow, unknown matrix kinds).  Valid blocks must
/// run under a thermal placement policy with the engine invariants intact and
/// round-trip through the spec JSON bit-exactly; broken ones must be rejected
/// with std::invalid_argument at parse/validate/build time, never crash
/// mid-run.
class CoolingJsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoolingJsonFuzz, ParseValidateRunOrReject) {
  Rng rng(GetParam());
  const int breakage = static_cast<int>(rng.UniformInt(0, 13));  // 0-6 break

  // The mini machine has 16 nodes; a valid grid must tile it exactly.
  JsonObject topo;
  topo["racks"] = JsonValue(static_cast<std::int64_t>(4));
  topo["nodes_per_rack"] = JsonValue(static_cast<std::int64_t>(4));
  topo["airflow_w_per_k"] = rng.Uniform(150.0, 2000.0);
  topo["fan_leak_w_per_k"] = rng.Uniform(0.0, 5.0);

  JsonObject hr;
  switch (static_cast<int>(rng.UniformInt(0, 2))) {
    case 0: {  // dense 16x16, zero diagonal, row sums well under 1
      hr["kind"] = "dense";
      JsonArray rows;
      for (int i = 0; i < 16; ++i) {
        JsonArray row;
        for (int j = 0; j < 16; ++j) {
          row.emplace_back(i == j ? 0.0 : rng.Uniform(0.0, 0.05));
        }
        rows.emplace_back(std::move(row));
      }
      hr["rows"] = JsonValue(std::move(rows));
      break;
    }
    case 1:
      hr["kind"] = "banded";
      hr["coeff"] = rng.Uniform(0.01, 0.1);
      hr["decay"] = rng.Uniform(0.2, 0.9);
      hr["width"] = JsonValue(static_cast<std::int64_t>(rng.UniformInt(1, 4)));
      break;
    default:
      hr["kind"] = "layout";
      hr["intra_rack"] = rng.Uniform(0.0, 0.1);
      hr["cross_rack"] = rng.Uniform(0.0, 0.05);
      break;
  }

  switch (breakage) {
    case 0:  // 3 x 4 = 12 racks-grid does not tile the 16-node machine
      topo["racks"] = JsonValue(static_cast<std::int64_t>(3));
      break;
    case 1: {  // dense row sums above 1
      hr["kind"] = "dense";
      hr.erase("rows");
      JsonArray rows;
      for (int i = 0; i < 16; ++i) {
        JsonArray row;
        for (int j = 0; j < 16; ++j) row.emplace_back(0.2);
        rows.emplace_back(std::move(row));
      }
      hr["rows"] = JsonValue(std::move(rows));
      break;
    }
    case 2: {  // dense matrix not square
      hr["kind"] = "dense";
      hr.erase("rows");
      JsonArray rows;
      for (int i = 0; i < 16; ++i) {
        JsonArray row;
        for (int j = 0; j < (i == 7 ? 3 : 16); ++j) row.emplace_back(0.0);
        rows.emplace_back(std::move(row));
      }
      hr["rows"] = JsonValue(std::move(rows));
      break;
    }
    case 3:  // banded decay outside (0, 1]
      hr["kind"] = "banded";
      hr["coeff"] = 0.05;
      hr["decay"] = 1.5;
      hr["width"] = JsonValue(static_cast<std::int64_t>(2));
      break;
    case 4:  // strict parsing: unknown topology key throws
      topo["typo_knob"] = JsonValue(static_cast<std::int64_t>(1));
      break;
    case 5:  // airflow must be > 0
      topo["airflow_w_per_k"] = -3.0;
      break;
    case 6:  // unknown matrix kind
      hr["kind"] = "helical";
      break;
    default:
      break;
  }
  topo["hr_matrix"] = JsonValue(std::move(hr));
  const bool expect_reject = breakage <= 6;

  JsonObject cool;
  cool["enabled"] = rng.UniformInt(0, 1) == 0;
  if (rng.UniformInt(0, 1) == 0) cool["supply_temp_c"] = rng.Uniform(18.0, 30.0);
  cool["topology"] = JsonValue(std::move(topo));

  JsonObject spec_json;
  spec_json["name"] = "cooling-fuzz";
  spec_json["system"] = "mini";
  spec_json["duration"] = JsonValue(static_cast<std::int64_t>(6 * kHour));
  static const char* const kPolicies[] = {"fcfs", "low_temp_first", "min_hr",
                                          "center_rack_first", "best_edp"};
  spec_json["policy"] = kPolicies[rng.UniformInt(0, 4)];
  spec_json["backfill"] = "easy";
  spec_json["cooling"] = JsonValue(std::move(cool));

  SyntheticWorkloadSpec wl;
  wl.horizon = 3 * kHour;
  wl.arrival_rate_per_hour = 8;
  wl.max_nodes = 8;
  wl.seed = GetParam();

  try {
    ScenarioSpec opts = ScenarioSpec::FromJson(JsonValue(std::move(spec_json)));
    opts.jobs_override = GenerateSyntheticWorkload(wl);
    ValidateScenarioSpec(opts);
    Simulation sim(opts);
    sim.Run();
    EXPECT_FALSE(expect_reject) << "broken cooling block was accepted";
    const auto& eng = sim.engine();
    EXPECT_EQ(eng.counters().submitted, opts.jobs_override.size());
    EXPECT_LE(eng.recorder().MaxOf("utilization"), 100.001);
    EXPECT_GE(eng.recorder().MinOf("power_kw"), 0.0);
    // Inlet temperatures never drop below the supply setpoint.
    EXPECT_GE(eng.recorder().MinOf("max_inlet_c"),
              opts.cooling_supply_temp_c.value_or(
                  MakeSystemConfig("mini").cooling.supply_temp_c) -
                  1e-9);
    // The cooling block round-trips through the spec JSON bit-exactly.
    const ScenarioSpec back = ScenarioSpec::FromJson(opts.ToJson());
    EXPECT_EQ(back.ToJson().Dump(2), opts.ToJson().Dump(2));
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(expect_reject) << "valid cooling block rejected: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoolingJsonFuzz,
                         ::testing::Range<std::uint64_t>(500, 540));

/// Random cooling.transient blocks — RC lag, CRAC loop, thermal trips —
/// mixed valid and broken (negative tau, throttle outside (0, 1], a CRAC
/// slew without a target, unknown keys, a CRAC floor above the base supply,
/// the block enabled without a thermal topology).  Valid blocks must run
/// with the transient invariants intact — rack temperatures bounded by the
/// quasi-static channel above and the supply floor below (relaxation never
/// overshoots its target), tripped_nodes within the machine, clears never
/// outnumbering trips — and round-trip through the spec JSON bit-exactly;
/// broken ones must throw std::invalid_argument, never crash mid-run.
class TransientThermalJsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransientThermalJsonFuzz, ParseValidateRunOrReject) {
  Rng rng(GetParam());
  const int breakage = static_cast<int>(rng.UniformInt(0, 11));  // 0-5 break

  const double base_supply = MakeSystemConfig("mini").cooling.supply_temp_c;

  JsonObject tr;
  tr["enabled"] = rng.UniformInt(0, 4) != 0;  // mostly enabled
  tr["rack_tau_s"] = rng.Uniform(0.0, 2400.0);
  const bool with_crac = rng.UniformInt(0, 1) == 0;
  if (with_crac) {
    tr["crac_target_max_inlet_c"] = base_supply + rng.Uniform(0.2, 3.0);
    tr["crac_slew_c_per_s"] = rng.Uniform(0.0001, 0.01);
    tr["crac_min_supply_c"] = base_supply - rng.Uniform(2.0, 8.0);
  }
  const bool with_trip = rng.UniformInt(0, 1) == 0;
  if (with_trip) {
    tr["trip_inlet_c"] = base_supply + rng.Uniform(0.1, 2.0);
    tr["trip_throttle"] = rng.Uniform(0.1, 1.0);
    tr["clear_margin_c"] = rng.Uniform(0.0, 0.5);
  }

  bool drop_topology = false;
  switch (breakage) {
    case 0:  // tau must be finite and >= 0
      tr["rack_tau_s"] = -rng.Uniform(0.1, 100.0);
      break;
    case 1:  // throttle outside (0, 1]
      tr["trip_inlet_c"] = base_supply + 1.0;
      tr["trip_throttle"] = rng.UniformInt(0, 1) == 0 ? 0.0 : 1.5;
      break;
    case 2:  // a slew without a target: the CRAC loop has no setpoint
      tr["crac_slew_c_per_s"] = 0.01;
      tr["crac_target_max_inlet_c"] = 0.0;
      break;
    case 3:  // strict parsing: unknown keys throw
      tr["rack_tau_minutes"] = 5.0;
      break;
    case 4:  // CRAC floor above the base supply: the loop could only heat
      tr["enabled"] = true;
      tr["crac_target_max_inlet_c"] = base_supply + 1.0;
      tr["crac_slew_c_per_s"] = 0.01;
      tr["crac_min_supply_c"] = base_supply + 5.0;
      break;
    case 5:  // enabled without a thermal topology: no racks to lag
      tr["enabled"] = true;
      drop_topology = true;
      break;
    default:
      break;
  }
  const bool expect_reject = breakage <= 5;
  const bool enabled = tr.at("enabled").AsBool();

  JsonObject cool;
  cool["enabled"] = rng.UniformInt(0, 1) == 0;
  if (!drop_topology) {
    JsonObject topo;
    topo["racks"] = JsonValue(static_cast<std::int64_t>(4));
    topo["nodes_per_rack"] = JsonValue(static_cast<std::int64_t>(4));
    topo["airflow_w_per_k"] = rng.Uniform(150.0, 2000.0);
    topo["fan_leak_w_per_k"] = rng.Uniform(0.0, 5.0);
    JsonObject hr;
    hr["kind"] = "layout";
    hr["intra_rack"] = rng.Uniform(0.0, 0.1);
    hr["cross_rack"] = rng.Uniform(0.0, 0.05);
    topo["hr_matrix"] = JsonValue(std::move(hr));
    cool["topology"] = JsonValue(std::move(topo));
  }
  cool["transient"] = JsonValue(std::move(tr));

  JsonObject spec_json;
  spec_json["name"] = "transient-fuzz";
  spec_json["system"] = "mini";
  spec_json["duration"] = JsonValue(static_cast<std::int64_t>(6 * kHour));
  spec_json["event_calendar"] = rng.UniformInt(0, 1) == 0;
  spec_json["policy"] = "fcfs";
  spec_json["backfill"] = "easy";
  spec_json["cooling"] = JsonValue(std::move(cool));

  SyntheticWorkloadSpec wl;
  wl.horizon = 3 * kHour;
  wl.arrival_rate_per_hour = 8;
  wl.max_nodes = 8;
  wl.seed = GetParam();

  try {
    ScenarioSpec opts = ScenarioSpec::FromJson(JsonValue(std::move(spec_json)));
    opts.jobs_override = GenerateSyntheticWorkload(wl);
    ValidateScenarioSpec(opts);
    Simulation sim(opts);
    sim.Run();
    EXPECT_FALSE(expect_reject) << "broken transient block was accepted";
    const auto& eng = sim.engine();
    EXPECT_EQ(eng.counters().submitted, opts.jobs_override.size());
    EXPECT_EQ(eng.recorder().Has("rack0_transient_c"), enabled);
    if (enabled) {
      // Relaxation boundedness: every rack temperature stays between the
      // coolest reachable supply and its own quasi-static channel peak.
      const double floor =
          with_crac ? opts.cooling_transient->crac_min_supply_c : base_supply;
      for (int r = 0; r < 4; ++r) {
        const std::string tr_ch = "rack" + std::to_string(r) + "_transient_c";
        const std::string qs_ch = "rack" + std::to_string(r) + "_inlet_c";
        EXPECT_GE(eng.recorder().MinOf(tr_ch), floor - 1e-9) << tr_ch;
        EXPECT_LE(eng.recorder().MaxOf(tr_ch),
                  eng.recorder().MaxOf(qs_ch) + 1e-9)
            << tr_ch;
      }
      EXPECT_LE(eng.counters().thermal_clears, eng.counters().thermal_trips);
      if (with_trip) {
        EXPECT_GE(eng.recorder().MinOf("tripped_nodes"), 0.0);
        EXPECT_LE(eng.recorder().MaxOf("tripped_nodes"), 16.0);
      } else {
        EXPECT_EQ(eng.counters().thermal_trips, 0u);
      }
    }
    // The transient block round-trips through the spec JSON bit-exactly.
    const ScenarioSpec back = ScenarioSpec::FromJson(opts.ToJson());
    EXPECT_EQ(back.ToJson().Dump(2), opts.ToJson().Dump(2));
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(expect_reject) << "valid transient block rejected: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransientThermalJsonFuzz,
                         ::testing::Range<std::uint64_t>(600, 640));

// --- per-CDU cooling -------------------------------------------------------------

CoolingSpec FrontierSpec() { return MakeSystemConfig("frontier").cooling; }

/// `it_power_w` split evenly across the model's CDUs.
std::vector<double> UniformSplit(const MultiCduCoolingModel& m, double it_power_w) {
  return std::vector<double>(m.num_cdus(), it_power_w / m.num_cdus());
}

TEST(MultiCduTest, UniformHeatGivesZeroSpread) {
  MultiCduCoolingModel m(FrontierSpec());
  const double load = FrontierSpec().design_it_load_kw * 800.0;
  m.Reset(load);
  MultiCduSample s{};
  for (int i = 0; i < 50; ++i) s = m.Step(UniformSplit(m, load), 0, 60.0);
  EXPECT_NEAR(s.spread_c, 0.0, 1e-6);
  EXPECT_EQ(static_cast<int>(m.cdu_states().size()), m.num_cdus());
}

TEST(MultiCduTest, SkewedHeatCreatesHotSpot) {
  const CoolingSpec spec = FrontierSpec();
  MultiCduCoolingModel m(spec);
  const double total = spec.design_it_load_kw * 800.0;
  m.Reset(total);
  // All heat on the first half of the CDUs (a packed full-machine job).
  std::vector<double> skew(m.num_cdus(), 0.0);
  for (int i = 0; i < m.num_cdus() / 2; ++i) skew[i] = total / (m.num_cdus() / 2);
  MultiCduSample s{};
  for (int i = 0; i < 100; ++i) s = m.Step(skew, 0, 60.0);
  EXPECT_GT(s.spread_c, 1.0);  // hot-spot CDUs clearly hotter
  EXPECT_GT(s.hottest_cdu_c, s.facility.supply_temp_c);
  // Facility-side heat balance unchanged vs the uniform case.
  MultiCduCoolingModel uniform(spec);
  uniform.Reset(total);
  MultiCduSample u{};
  for (int i = 0; i < 100; ++i) u = uniform.Step(UniformSplit(uniform, total), 0, 60.0);
  EXPECT_NEAR(s.facility.tower_return_temp_c, u.facility.tower_return_temp_c, 0.2);
}

TEST(MultiCduTest, Validation) {
  MultiCduCoolingModel m(FrontierSpec());
  EXPECT_THROW(m.Step({1.0}, 0, 60.0), std::invalid_argument);  // wrong size
  std::vector<double> neg(m.num_cdus(), 1.0);
  neg[0] = -5;
  EXPECT_THROW(m.Step(neg, 0, 60.0), std::invalid_argument);
  CoolingSpec bad = FrontierSpec();
  bad.num_cdus = 0;
  EXPECT_THROW(MultiCduCoolingModel{bad}, std::invalid_argument);
}

TEST(MultiCduTest, HeatDistributionByCabinet) {
  // 8 nodes, 2 per cabinet, 2 CDUs: cabinets 0,2 -> CDU 0; 1,3 -> CDU 1.
  std::vector<double> per_node = {1, 1, 2, 2, 4, 4, 8, 8};
  const auto per_cdu = DistributeHeatByCabinet(per_node, 2, 2);
  ASSERT_EQ(per_cdu.size(), 2u);
  EXPECT_DOUBLE_EQ(per_cdu[0], 1 + 1 + 4 + 4);
  EXPECT_DOUBLE_EQ(per_cdu[1], 2 + 2 + 8 + 8);
  EXPECT_THROW(DistributeHeatByCabinet(per_node, 0, 2), std::invalid_argument);
}

TEST(MultiCduTest, SecondaryLoopLagsStep) {
  MultiCduCoolingModel m(FrontierSpec());
  const double low = FrontierSpec().design_it_load_kw * 300.0;
  const double high = FrontierSpec().design_it_load_kw * 900.0;
  m.Reset(low);
  m.Step(UniformSplit(m, low), 0, 10.0);
  const double before = m.cdu_states()[0].return_temp_c;
  m.Step(UniformSplit(m, high), 0, 10.0);
  const double after_1step = m.cdu_states()[0].return_temp_c;
  for (int i = 0; i < 500; ++i) m.Step(UniformSplit(m, high), 0, 60.0);
  EXPECT_GT(after_1step, before);                           // moving up
  EXPECT_GT(m.cdu_states()[0].return_temp_c, after_1step);  // not yet settled
}

// --- CSV surface fuzz ------------------------------------------------------------

/// The table parser CsvReader replaced: one pass over the whole text, kept
/// here as the tokenizer's oracle.
std::vector<std::vector<std::string>> OracleParseRows(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        end_field();
        field_started = true;
        break;
      case '\r':
        break;
      case '\n':
        if (!row.empty() || !field.empty() || field_started) end_row();
        break;
      default:
        field += c;
        break;
    }
  }
  if (in_quotes) throw std::runtime_error("CSV: unterminated quoted field");
  if (!row.empty() || !field.empty() || field_started) end_row();
  return rows;
}

/// Every row CsvReader yields for `text` read through `buffer_size` bytes at
/// a time, or nullopt when it throws std::runtime_error.
std::optional<std::vector<std::vector<std::string>>> ReaderRows(const std::string& text,
                                                                std::size_t buffer_size) {
  CsvReader reader = CsvReader::FromText(text, buffer_size);
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> fields;
  try {
    while (reader.Next(fields)) rows.push_back(fields);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
  return rows;
}

void ExpectReaderMatchesOracle(const std::string& text, std::size_t buffer_size) {
  std::optional<std::vector<std::vector<std::string>>> want;
  try {
    want = OracleParseRows(text);
  } catch (const std::runtime_error&) {
    // An unterminated quote: the reader must throw too.
  }
  EXPECT_EQ(ReaderRows(text, buffer_size), want)
      << "buffer " << buffer_size << ", input '" << text << "'";
}

TEST(CsvFuzz, ReaderMatchesWholeTextParser) {
  // Short random texts over the bytes the grammar cares about, read through
  // buffers from one byte up, so every token lands on a boundary somewhere.
  const std::string alphabet = "ab1,,\"\"\r\n\n ";
  Rng rng(41);
  for (int c = 0; c < 2000; ++c) {
    std::string text(static_cast<std::size_t>(rng.UniformInt(0, 40)), ' ');
    for (char& ch : text) {
      ch = alphabet[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    }
    for (const std::size_t buffer : {1u, 2u, 3u, 5u, 8u, 64u}) {
      ExpectReaderMatchesOracle(text, buffer);
    }
  }
}

TEST(CsvFuzz, FeaturesAcrossTheReadBufferBoundary) {
  // Inputs longer than the default read buffer with a quoted field, a ""
  // escape and a \r\n each placed across the first buffer boundary.
  const std::size_t kBuf = CsvReader::kBufferSize;
  const std::vector<std::string> features = {"\"a,b\nc\"", "\"x\"\"y\"", "9\r\n"};
  for (const std::string& feature : features) {
    for (std::size_t cut = 0; cut <= feature.size(); ++cut) {
      // Filler rows of "k,v" up to the point where `feature`, the second
      // field of its row, has `cut` of its bytes before byte kBuf.
      std::string text = "key,value\n";
      while (text.size() + 8 < kBuf - cut) text += "k,v\n";
      text += std::string(kBuf - cut - text.size() - 1, 'z') + ",";
      text += feature;
      text += ",tail\nlast,row\n";
      ExpectReaderMatchesOracle(text, kBuf);
      ExpectReaderMatchesOracle(text, kBuf / 2 + 1);
    }
  }
}

/// One random edit of `text`: a byte replaced, inserted or deleted, drawn
/// from the bytes CSV and the loaders' cell grammars care about.
void MutateOnce(Rng& rng, std::string& text) {
  static const std::string bytes = "0123456789-+.eE,\"\r\n|x ";
  const char b = bytes[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(bytes.size()) - 1))];
  const auto at = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(text.size())));
  switch (rng.UniformInt(0, 2)) {
    case 0:
      if (at < text.size()) text[at] = b;
      break;
    case 1:
      text.insert(at, 1, b);
      break;
    default:
      if (at < text.size()) text.erase(at, 1);
      break;
  }
}

void WriteText(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

std::string ReadText(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// What a loader did with one file: the exception type it threw (empty when
/// it loaded) and its message.
struct Outcome {
  std::string thrown;
  std::string message;
};

template <typename Fn>
Outcome Attempt(Fn&& fn) {
  try {
    fn();
    return {};
  } catch (const std::bad_optional_access& e) {
    return {"bad_optional_access", e.what()};
  } catch (const std::invalid_argument& e) {
    return {"invalid_argument", e.what()};
  } catch (const std::out_of_range& e) {
    return {"out_of_range", e.what()};
  } catch (const std::runtime_error& e) {
    return {"runtime_error", e.what()};
  } catch (const std::exception& e) {
    return {"exception", e.what()};
  }
}

/// Byte-mutates the file `write` makes, then loads it with the table-based
/// loader and the streaming one, `cases` times per edit count.
///  - One edit makes at most one fault, and both loaders must then throw the
///    same type, except that the table loader reached an empty required
///    jobs.csv cell through optional::value() (a message-less
///    bad_optional_access) where the streaming one throws runtime_error.
///  - With several edits the streaming loader reports the first fault in
///    file order, while the table loader reported a ragged row or an
///    unterminated quote anywhere before any cell fault; only whether they
///    throw must agree.
/// Every streaming error names the file and the line; files both load must
/// hold the same values (`same`).
template <typename Table, typename Stream, typename Write, typename Same>
void FuzzLoader(const fs::path& path, std::uint64_t seed, int cases, Write write,
                Table table_load, Stream stream_load, Same same) {
  Rng rng(seed);
  for (const int edits : {1, 2}) {
    int loaded = 0;
    for (int c = 0; c < cases; ++c) {
      write(rng, c);
      std::string text = ReadText(path);
      for (int e = 0; e < edits; ++e) MutateOnce(rng, text);
      WriteText(path, text);
      decltype(table_load(c)) want_value;
      decltype(stream_load(c)) got_value;
      const Outcome want = Attempt([&] { want_value = table_load(c); });
      const Outcome got = Attempt([&] { got_value = stream_load(c); });
      if (edits == 1) {
        const std::string type =
            want.thrown == "bad_optional_access" ? "runtime_error" : want.thrown;
        EXPECT_EQ(got.thrown, type) << "table: " << want.message
                                    << "\nstream: " << got.message << "\ninput:\n"
                                    << text;
      } else {
        EXPECT_EQ(got.thrown.empty(), want.thrown.empty())
            << "table: " << want.message << "\nstream: " << got.message
            << "\ninput:\n" << text;
      }
      if (!got.thrown.empty()) {
        EXPECT_NE(got.message.find(path.string() + ":"), std::string::npos)
            << got.message;
      }
      if (want.thrown.empty() && got.thrown.empty()) {
        ++loaded;
        EXPECT_TRUE(same(want_value, got_value)) << "input:\n" << text;
      }
    }
    // The edits must leave both outcomes common, or the check proves little.
    EXPECT_GT(loaded, cases / 20) << edits << " edits";
    EXPECT_LT(loaded, cases - cases / 20) << edits << " edits";
  }
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameSeries(const TraceSeries& a, const TraceSeries& b) {
  if (a.size() != b.size() || a.is_constant() != b.is_constant() ||
      a.offsets() != b.offsets()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a.values()[i], b.values()[i])) return false;
  }
  return true;
}

/// The CsvTable-based traces.csv loader the streaming one replaced.
std::map<JobId, JobTraces> TableLoadTraceTable(const std::string& path) {
  struct SeriesBuilder {
    std::vector<SimDuration> offsets;
    std::vector<double> values;

    void Add(SimDuration offset, double v) {
      offsets.push_back(offset);
      values.push_back(v);
    }
    TraceSeries Build() && {
      if (offsets.empty()) return TraceSeries();
      return TraceSeries(std::move(offsets), std::move(values));
    }
  };
  const CsvTable table = CsvTable::Load(path);
  std::map<JobId, JobTraces> result;
  std::map<JobId, SeriesBuilder> cpu, gpu, power;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const auto id_opt = table.GetInt(r, "job_id");
    const auto off_opt = table.GetInt(r, "offset_s");
    if (!id_opt || !off_opt) {
      throw std::runtime_error("traces.csv: row " + std::to_string(r) +
                               " missing job_id/offset_s");
    }
    const JobId id = *id_opt;
    const SimDuration off = *off_opt;
    if (auto v = table.GetDouble(r, "cpu_util")) cpu[id].Add(off, *v);
    if (auto v = table.GetDouble(r, "gpu_util")) gpu[id].Add(off, *v);
    if (auto v = table.GetDouble(r, "node_power_w")) power[id].Add(off, *v);
  }
  for (auto& [id, b] : cpu) result[id].cpu_util = std::move(b).Build();
  for (auto& [id, b] : gpu) result[id].gpu_util = std::move(b).Build();
  for (auto& [id, b] : power) result[id].node_power_w = std::move(b).Build();
  return result;
}

/// The CsvTable-based jobs.csv reader the streaming one replaced.
std::vector<Job> TableReadJobsCsv(const std::string& path, bool filter_shared) {
  const CsvTable t = CsvTable::Load(path);
  const bool has_shared = t.ColumnIndex("shared").has_value();
  std::vector<Job> jobs;
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    if (filter_shared && has_shared) {
      if (const auto s = t.GetInt(r, "shared"); s && *s != 0) continue;
    }
    Job j;
    j.id = t.GetInt(r, "job_id").value();
    j.user = t.Cell(r, "user");
    j.account = t.Cell(r, "account");
    j.submit_time = t.GetInt(r, "submit_time").value();
    j.recorded_start = t.GetInt(r, "start_time").value_or(-1);
    j.recorded_end = t.GetInt(r, "end_time").value_or(-1);
    j.time_limit = t.GetInt(r, "time_limit").value_or(0);
    j.nodes_required = static_cast<int>(t.GetInt(r, "num_nodes").value());
    j.recorded_nodes = loader_detail::ParseNodeList(t.Cell(r, "nodes_allocated"));
    j.priority = t.GetDouble(r, "priority").value_or(0.0);
    if (auto p = t.GetDouble(r, "avg_node_power_w")) {
      j.node_power_w = TraceSeries::Constant(*p);
    }
    j.name = "job-" + std::to_string(j.id);
    jobs.push_back(std::move(j));
  }
  return jobs;
}

bool SameJob(const Job& a, const Job& b) {
  return a.id == b.id && a.name == b.name && a.user == b.user && a.account == b.account &&
         a.submit_time == b.submit_time && a.recorded_start == b.recorded_start &&
         a.recorded_end == b.recorded_end && a.time_limit == b.time_limit &&
         a.nodes_required == b.nodes_required && a.recorded_nodes == b.recorded_nodes &&
         SameBits(a.priority, b.priority) && SameSeries(a.node_power_w, b.node_power_w);
}

/// A few jobs with traces on mini's cadence: interleaving, gaps and the
/// empty cells of a series that has no sample at some offset.
std::vector<Job> FuzzJobs(Rng& rng) {
  std::vector<Job> jobs;
  for (JobId id = 1; id <= 3; ++id) {
    Job j;
    j.id = id * 7;
    j.user = "u" + std::to_string(id);
    j.account = id == 2 ? "a,quoted" : "acct";
    j.submit_time = rng.UniformInt(0, 500);
    j.recorded_start = j.submit_time + rng.UniformInt(0, 60);
    j.recorded_end = j.recorded_start + rng.UniformInt(60, 600);
    j.time_limit = 900;
    j.nodes_required = static_cast<int>(id);
    for (int n = 0; n < j.nodes_required; ++n) j.recorded_nodes.push_back(n * 3);
    j.priority = rng.Uniform(-10, 10);
    std::vector<SimDuration> off;
    std::vector<double> cpu;
    for (SimDuration t = 0; t < 80; t += 20) {
      off.push_back(t);
      cpu.push_back(rng.Uniform(0, 1));
    }
    j.cpu_util = TraceSeries(off, cpu);
    if (id != 2) {
      j.node_power_w = TraceSeries({off[0], off[2]}, {rng.Uniform(100, 900), 250.0});
    } else {
      j.node_power_w = TraceSeries::Constant(rng.Uniform(100, 900));
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

fs::path FuzzDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("sraps_fuzz_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(CsvFuzz, TraceLoaderMatchesTableLoader) {
  const fs::path dir = FuzzDir("traces");
  const fs::path path = dir / "traces.csv";
  FuzzLoader(
      path, 43, 300, [&](Rng& rng, int) { SaveTraceTable(path.string(), FuzzJobs(rng)); },
      [&](int) { return TableLoadTraceTable(path.string()); },
      [&](int) { return LoadTraceTable(path.string()); },
      [](const std::map<JobId, JobTraces>& table, const TraceTable& stream) {
        if (stream.size() != table.size()) return false;
        for (const auto& [id, t] : table) {
          const auto it = stream.find(id);
          if (it == stream.end() || !SameSeries(it->second.cpu_util, t.cpu_util) ||
              !SameSeries(it->second.gpu_util, t.gpu_util) ||
              !SameSeries(it->second.node_power_w, t.node_power_w)) {
            return false;
          }
        }
        return true;
      });
  fs::remove_all(dir);
}

TEST(CsvFuzz, JobsLoaderMatchesTableLoader) {
  const fs::path dir = FuzzDir("jobs");
  const fs::path path = dir / "jobs.csv";
  // Odd cases filter the shared-node rows out, as the Marconi100 loader does.
  FuzzLoader(
      path, 47, 300,
      [&](Rng& rng, int) {
        WriteJobsCsv(path.string(), FuzzJobs(rng), {false, true, false});
      },
      [&](int c) { return TableReadJobsCsv(path.string(), c % 2 == 1); },
      [&](int c) { return ReadJobsCsv(path.string(), c % 2 == 1); },
      [](const std::vector<Job>& table, const std::vector<Job>& stream) {
        if (stream.size() != table.size()) return false;
        for (std::size_t i = 0; i < table.size(); ++i) {
          if (!SameJob(table[i], stream[i])) return false;
        }
        return true;
      });
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sraps
