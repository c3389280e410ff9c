// Randomized end-to-end property tests: across random workloads, policies,
// backfill modes, systems, and failure injections, the engine must uphold
// its invariants — no crash, utilisation within [0,100], conservation of
// job states, monotone time, positive energies, and capacity never
// oversubscribed.  Plus per-CDU cooling model properties.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "cooling/multi_cdu.h"
#include "core/simulation.h"
#include "dataloaders/replay_synth.h"
#include "grid/grid_environment.h"
#include "workload/synthetic.h"

namespace sraps {
namespace {

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
  EXPECT_EQ(static_cast<int>(s.cdus.size()), m.num_cdus());
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
  const double before = m.Step(UniformSplit(m, low), 0, 10.0).cdus[0].return_temp_c;
  const double after_1step = m.Step(UniformSplit(m, high), 0, 10.0).cdus[0].return_temp_c;
  MultiCduSample settled{};
  for (int i = 0; i < 500; ++i) settled = m.Step(UniformSplit(m, high), 0, 60.0);
  EXPECT_GT(after_1step, before);                          // moving up
  EXPECT_GT(settled.cdus[0].return_temp_c, after_1step);   // not yet settled
}

}  // namespace
}  // namespace sraps
