// Snapshot-tree sweeps: per-axis first-effect bounds and the tree runner's
// bit-identity contract.
//
// Every bounded axis class has a "fork at the bound is bit-identical to a
// straight run" test against the raw Simulation API (the contract
// first_effect.h promises and tree_runner.cc relies on), and — where the
// physics makes divergence provable — a "one tick later is NOT identical"
// counterpart showing the bound is tight enough to matter.  On top of that,
// the tree runner itself is diffed byte-for-byte against the plain sweep
// path (shards, aggregates, manifest) at multiple thread counts, through
// its runtime fallback, and across the distributed tier's scenario
// subranges.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "core/simulation.h"
#include "core/simulation_builder.h"
#include "core/snapshot.h"
#include "engine/simulation_engine.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "sweep/tree/first_effect.h"
#include "sweep/tree/tree_runner.h"
#include "workload/synthetic.h"

namespace sraps {
namespace {

namespace fs = std::filesystem;

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

Job MakeJob(JobId id, SimTime submit, SimDuration runtime, int nodes,
            double cpu = 0.5) {
  Job j;
  j.id = id;
  j.submit_time = submit;
  j.recorded_start = submit;
  j.recorded_end = submit + runtime;
  j.time_limit = runtime * 2;
  j.nodes_required = nodes;
  j.account = "acct";
  j.user = "u";
  j.cpu_util = TraceSeries::Constant(cpu);
  return j;
}

/// A day of load on mini: an early ramp, mid-morning contention, three
/// same-instant 8-node jobs racing for 16 nodes at 12 h (where fcfs and sjf
/// provably pick different winners), and a late straggler.
std::vector<Job> DayWorkload() {
  std::vector<Job> jobs;
  jobs.push_back(MakeJob(1, 0, 3600, 4, 0.9));
  jobs.push_back(MakeJob(2, 1800, 7200, 4, 0.7));
  jobs.push_back(MakeJob(3, 6 * kHour, 3600, 6, 0.8));
  jobs.push_back(MakeJob(4, 6 * kHour + 300, 5400, 6, 0.6));
  jobs.push_back(MakeJob(5, 7 * kHour, 1800, 2, 0.9));
  jobs.push_back(MakeJob(6, 12 * kHour, 4 * kHour, 8, 0.8));
  jobs.push_back(MakeJob(7, 12 * kHour, kHour, 8, 0.8));
  jobs.push_back(MakeJob(8, 12 * kHour, 2 * kHour, 8, 0.8));
  jobs.push_back(MakeJob(9, 18 * kHour, 900, 8, 0.5));
  return jobs;
}

ScenarioSpec TreeBase() {
  ScenarioSpec s;
  s.name = "tree-base";
  s.system = "mini";
  s.jobs_override = DayWorkload();
  s.policy = "fcfs";
  s.backfill = "easy";
  s.record_history = false;  // ForkWithPatch precondition
  s.duration = 24 * kHour;
  return s;
}

/// Jobs 2-4 submit at the same instant AFTER an idle-but-simulated lead-in:
/// job 1 ends before the fast-forwarded window opens, so it only anchors the
/// dataset window at 0 and sim runs [6 h, 24 h) with the queue first
/// non-empty at 12 h — a genuinely non-degenerate first-schedule bound.
std::vector<Job> QueueRaceWorkload() {
  std::vector<Job> jobs;
  jobs.push_back(MakeJob(1, 0, kHour, 2));
  jobs.push_back(MakeJob(2, 12 * kHour, 4 * kHour, 8, 0.8));  // longest
  jobs.push_back(MakeJob(3, 12 * kHour, kHour, 8, 0.8));      // shortest
  jobs.push_back(MakeJob(4, 12 * kHour, 2 * kHour, 8, 0.8));
  return jobs;
}

ScenarioSpec RaceSpec() {
  ScenarioSpec s;
  s.name = "queue-race";
  s.system = "mini";
  s.jobs_override = QueueRaceWorkload();
  s.policy = "fcfs";
  s.backfill = "none";
  s.record_history = false;
  s.fast_forward = 6 * kHour;
  s.duration = 18 * kHour;
  return s;
}

JsonValue OneWindowSchedule(SimTime start, SimTime end, double cap_w) {
  JsonArray windows;
  JsonObject w;
  w["start"] = JsonValue(static_cast<std::int64_t>(start));
  w["end"] = JsonValue(static_cast<std::int64_t>(end));
  w["cap_w"] = JsonValue(cap_w);
  windows.emplace_back(std::move(w));
  return JsonValue(std::move(windows));
}

JsonValue EmptySchedule() { return JsonValue(JsonArray{}); }

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The snapshot suite's bitwise-equivalence battery, applied across a
/// ForkWithPatch boundary.
void ExpectSameOutcome(const Simulation& straight, const Simulation& forked) {
  const SimulationEngine& a = straight.engine();
  const SimulationEngine& b = forked.engine();
  EXPECT_EQ(a.counters().submitted, b.counters().submitted);
  EXPECT_EQ(a.counters().started, b.counters().started);
  EXPECT_EQ(a.counters().completed, b.counters().completed);
  EXPECT_EQ(a.counters().dismissed, b.counters().dismissed);
  EXPECT_EQ(a.counters().scheduler_invocations, b.counters().scheduler_invocations);
  EXPECT_EQ(a.now(), b.now());
  EXPECT_TRUE(BitIdentical(a.class_energy_j(), b.class_energy_j()));
  EXPECT_TRUE(BitIdentical({a.grid_cost_usd()}, {b.grid_cost_usd()}));
  EXPECT_TRUE(BitIdentical({a.grid_co2_kg()}, {b.grid_co2_kg()}));
  EXPECT_EQ(a.stats().Fingerprint(), b.stats().Fingerprint());
  EXPECT_EQ(a.stats().ToJson().Dump(2), b.stats().ToJson().Dump(2));
  ASSERT_EQ(a.jobs().size(), b.jobs().size());
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    const Job& x = a.jobs()[i];
    const Job& y = b.jobs()[i];
    EXPECT_EQ(x.state, y.state) << "job " << x.id;
    EXPECT_EQ(x.start, y.start) << "job " << x.id;
    EXPECT_EQ(x.end, y.end) << "job " << x.id;
    EXPECT_EQ(x.assigned_nodes, y.assigned_nodes) << "job " << x.id;
  }
  EXPECT_TRUE(BitIdentical(a.job_energy_j(), b.job_energy_j()));
}

SimTime AlignDown(SimTime t, SimTime start, SimDuration tick) {
  return start + (t - start) / tick * tick;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// --- static classification & plural FirstEffectTime -------------------------

TEST(TreeFirstEffectTest, GridScaleAxisIsNeutral) {
  const ScenarioSpec base = TreeBase();
  EXPECT_EQ(FirstEffectTime(base, "grid.price.scale",
                            {JsonValue(0.5), JsonValue(2.0)}),
            kTrajectoryNeutral);
  // One invalid scale poisons the whole axis.
  EXPECT_EQ(FirstEffectTime(base, "grid.price.scale",
                            {JsonValue(0.5), JsonValue(-1.0)}),
            0);
  // A grid-reactive policy reads the values on every boundary.
  ScenarioSpec aware = base;
  aware.policy = "grid_aware";
  EXPECT_EQ(FirstEffectTime(aware, "grid.carbon.scale",
                            std::vector<JsonValue>{JsonValue(2.0)}),
            0);
}

TEST(TreeFirstEffectTest, DrWindowsBoundIsEarliestStartAcrossValues) {
  const ScenarioSpec base = TreeBase();
  const std::vector<JsonValue> values = {
      EmptySchedule(), OneWindowSchedule(8 * kHour, 12 * kHour, 1300.0),
      OneWindowSchedule(6 * kHour, 7 * kHour, 1500.0)};
  EXPECT_EQ(FirstEffectTime(base, "grid.dr_windows", values), 6 * kHour);
  // Every swept schedule empty: the axis can never diverge.
  EXPECT_EQ(FirstEffectTime(base, "grid.dr_windows",
                            std::vector<JsonValue>{EmptySchedule()}),
            kTrajectoryNeutral);
  // A malformed schedule claims nothing.
  EXPECT_EQ(FirstEffectTime(base, "grid.dr_windows",
                            std::vector<JsonValue>{JsonValue(7)}),
            0);
}

TEST(TreeFirstEffectTest, PowerCapStaticBoundIsSimStart) {
  // The static answer is conservative (a cap can bind on the first tick);
  // the tree runner's demand probe is what tightens it.
  EXPECT_EQ(FirstEffectTime(TreeBase(), "power_cap_w",
                            {JsonValue(1500.0), JsonValue(0.0)}),
            0);
}

TEST(TreeFirstEffectTest, SwapBoundIsFirstSubmit) {
  ScenarioSpec base = RaceSpec();
  const std::vector<JsonValue> policies = {JsonValue(std::string("fcfs")),
                                           JsonValue(std::string("sjf"))};
  // Job 1 submits at 0 — the bound is over the whole materialised workload
  // (the runner clamps it to sim start per root).
  EXPECT_EQ(FirstEffectTime(base, "policy", policies), 0);
  base.jobs_override.erase(base.jobs_override.begin());  // drop the anchor
  EXPECT_EQ(FirstEffectTime(base, "policy", policies), 12 * kHour);
  EXPECT_EQ(FirstEffectTime(base, "backfill",
                            {JsonValue(std::string("easy")),
                             JsonValue(std::string("none"))}),
            12 * kHour);
  // An unregistered policy claims nothing; replay is never swappable.
  EXPECT_EQ(FirstEffectTime(
                base, "policy",
                std::vector<JsonValue>{JsonValue(std::string("no_such_policy"))}),
            0);
  EXPECT_EQ(FirstEffectTime(
                base, "policy",
                std::vector<JsonValue>{JsonValue(std::string("replay"))}),
            0);
  // A workload that is not materialised on the spec claims nothing.
  base.jobs_override.clear();
  EXPECT_EQ(FirstEffectTime(base, "policy", policies), 0);
}

TEST(TreeFirstEffectTest, SupplyTempBoundIsOneTickBeforeFirstSubmit) {
  ScenarioSpec base = RaceSpec();
  base.jobs_override.erase(base.jobs_override.begin());
  base.tick = 600;
  const std::vector<JsonValue> temps = {JsonValue(18.0), JsonValue(26.0)};
  // No thermal policy: the setpoint never steers the schedule.
  EXPECT_EQ(FirstEffectTime(base, "cooling.supply_temp_c", temps),
            kTrajectoryNeutral);
  base.policy = "low_temp_first";
  EXPECT_EQ(FirstEffectTime(base, "cooling.supply_temp_c", temps),
            12 * kHour - 600);
  // The coupled cooling loop feels the setpoint from the first tick.
  base.cooling = true;
  EXPECT_EQ(FirstEffectTime(base, "cooling.supply_temp_c", temps), 0);
}

TEST(TreeFirstEffectTest, TransientThermalDemotesSupplyTempAndDrWindows) {
  ScenarioSpec base = RaceSpec();
  base.policy = "low_temp_first";
  base.jobs_override.erase(base.jobs_override.begin());
  base.tick = 600;
  const std::vector<JsonValue> temps = {JsonValue(18.0), JsonValue(26.0)};
  // Quasi-static thermal state: the pre-transient bound stands.
  EXPECT_EQ(FirstEffectTime(base, "cooling.supply_temp_c", temps),
            12 * kHour - 600);
  TransientThermalSpec ts;
  ts.enabled = true;
  ts.rack_tau_s = 900.0;
  base.cooling_transient = ts;
  // Rack RC state reads the setpoint from tick 0: the axis claims nothing.
  EXPECT_EQ(FirstEffectTime(base, "cooling.supply_temp_c", temps), 0);
  // dr_windows keeps its window-start bound while no trip is configured —
  // RC lag alone never feeds back into timing...
  const std::vector<JsonValue> schedules = {
      EmptySchedule(), OneWindowSchedule(6 * kHour, 7 * kHour, 1500.0)};
  EXPECT_EQ(FirstEffectTime(base, "grid.dr_windows", schedules), 6 * kHour);
  // ...and demotes the moment thermal-trip throttling is in play: a DR cap
  // edge moves the heat trajectory, hence trip edges, hence runtimes.
  base.cooling_transient->trip_inlet_c = 30.0;
  EXPECT_EQ(FirstEffectTime(base, "grid.dr_windows", schedules), 0);
  // A per-class trip override configures trips just as well.
  base.cooling_transient->trip_inlet_c = 0.0;
  EXPECT_EQ(FirstEffectTime(base, "grid.dr_windows", schedules), 6 * kHour);
  MachineClassSpec cls;
  cls.thermal_trip_c = 40.0;
  base.machines.push_back(cls);
  EXPECT_EQ(FirstEffectTime(base, "grid.dr_windows", schedules), 0);
}

SweepSpec FourClassSweep() {
  SweepSpec sweep;
  sweep.name = "treegrid";
  sweep.base = TreeBase();
  sweep.base.grid.price_usd_per_kwh = GridSignal::Diurnal(0.08, 0.5, 1.4);
  sweep.base.grid.carbon_kg_per_kwh = GridSignal::Diurnal(0.4, 0.6, 1.3);
  sweep.axes.push_back(
      SweepAxis("power_cap_w", {JsonValue(4500.0), JsonValue(0.0)}));
  sweep.axes.push_back(SweepAxis(
      "grid.dr_windows",
      {EmptySchedule(), OneWindowSchedule(11 * kHour, 14 * kHour, 2000.0)}));
  sweep.axes.push_back(SweepAxis("policy", {JsonValue(std::string("fcfs")),
                                            JsonValue(std::string("sjf"))}));
  sweep.axes.push_back(
      SweepAxis("grid.price.scale", {JsonValue(0.5), JsonValue(2.0)}));
  return sweep;
}

TEST(TreeClassifyTest, RecognisesEveryBoundedClass) {
  SweepSpec sweep = FourClassSweep();
  sweep.axes.push_back(
      SweepAxis("cooling.supply_temp_c", {JsonValue(18.0), JsonValue(26.0)}));
  sweep.axes.push_back(SweepAxis("tick", {JsonValue(600.0), JsonValue(1200.0)}));
  const std::vector<AxisFirstEffect> plan = ClassifySweepAxes(sweep);
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_EQ(plan[0].cls, AxisClass::kPowerCap);
  EXPECT_DOUBLE_EQ(plan[0].cap_threshold_w, 4500.0);  // tightest positive
  EXPECT_EQ(plan[1].cls, AxisClass::kDrWindows);
  EXPECT_EQ(plan[1].bound, 11 * kHour);
  EXPECT_EQ(plan[2].cls, AxisClass::kFirstSchedule);
  EXPECT_EQ(plan[3].cls, AxisClass::kNeutral);
  EXPECT_EQ(plan[4].cls, AxisClass::kSupplyTemp);
  EXPECT_EQ(plan[5].cls, AxisClass::kImmediate);  // tick: no bound
}

TEST(TreeClassifyTest, TransientThermalDemotesSupplyTempAndTripDemotesDr) {
  SweepSpec sweep = FourClassSweep();
  sweep.axes.push_back(
      SweepAxis("cooling.supply_temp_c", {JsonValue(18.0), JsonValue(26.0)}));
  TransientThermalSpec ts;
  ts.enabled = true;
  ts.rack_tau_s = 600.0;
  sweep.base.cooling_transient = ts;
  std::vector<AxisFirstEffect> plan = ClassifySweepAxes(sweep);
  ASSERT_EQ(plan.size(), 5u);
  EXPECT_EQ(plan[4].cls, AxisClass::kImmediate);  // supply axis: RC state
  EXPECT_EQ(plan[1].cls, AxisClass::kDrWindows);  // no trip: bound stands
  // Configuring a trip temperature (anywhere) demotes the DR axis too.
  sweep.base.cooling_transient->trip_inlet_c = 30.0;
  plan = ClassifySweepAxes(sweep);
  EXPECT_EQ(plan[1].cls, AxisClass::kImmediate);
  // The non-thermal classes keep their bounds: trips dilate runtimes through
  // the same lazily re-keyed completion heap the cap throttle uses.
  EXPECT_EQ(plan[0].cls, AxisClass::kPowerCap);
  EXPECT_EQ(plan[2].cls, AxisClass::kFirstSchedule);
  EXPECT_EQ(plan[3].cls, AxisClass::kNeutral);
}

TEST(TreeClassifyTest, RecordHistoryDemotesPatchClassesButNotNeutral) {
  SweepSpec sweep = FourClassSweep();
  sweep.base.record_history = true;
  const std::vector<AxisFirstEffect> plan = ClassifySweepAxes(sweep);
  EXPECT_EQ(plan[0].cls, AxisClass::kImmediate);
  EXPECT_EQ(plan[1].cls, AxisClass::kImmediate);
  EXPECT_EQ(plan[2].cls, AxisClass::kImmediate);
  // The accounting replay reproduces recorded channels exactly.
  EXPECT_EQ(plan[3].cls, AxisClass::kNeutral);
}

TEST(TreeClassifyTest, GridReactivePolicyInPlayDemotesGridClasses) {
  SweepSpec sweep = FourClassSweep();
  sweep.base.grid.slack_s = kHour;
  sweep.axes[2] = SweepAxis("policy", {JsonValue(std::string("fcfs")),
                                       JsonValue(std::string("grid_aware"))});
  const std::vector<AxisFirstEffect> plan = ClassifySweepAxes(sweep);
  EXPECT_EQ(plan[1].cls, AxisClass::kImmediate);  // dr_windows
  EXPECT_EQ(plan[3].cls, AxisClass::kImmediate);  // grid.price.scale
  // The cap still forks: a throttle is read by no policy's signal logic.
  EXPECT_EQ(plan[0].cls, AxisClass::kPowerCap);
}

TEST(TreeClassifyTest, AllPowerStatePoliciesInPlayDemotePatchClasses) {
  // race_to_idle plans node power states against the live wall power and
  // the effective cap, so ForkWithPatch refuses EVERY fork from such a
  // root (core/snapshot.cc power_state_policy guard).  With no swap-safe
  // policy anywhere in the sweep, keeping the bounded classes would make
  // the whole tree probe + fallback waste — the classifier demotes them.
  SweepSpec sweep = FourClassSweep();
  sweep.axes.push_back(
      SweepAxis("cooling.supply_temp_c", {JsonValue(18.0), JsonValue(26.0)}));
  sweep.axes.erase(sweep.axes.begin() + 2);  // drop the policy axis
  sweep.base.policy = "race_to_idle";
  const std::vector<AxisFirstEffect> plan = ClassifySweepAxes(sweep);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].cls, AxisClass::kImmediate);  // power_cap_w
  EXPECT_EQ(plan[1].cls, AxisClass::kImmediate);  // grid.dr_windows
  EXPECT_EQ(plan[3].cls, AxisClass::kImmediate);  // supply temp
  // Accounting replay stays valid: race_to_idle never reads signal values.
  EXPECT_EQ(plan[2].cls, AxisClass::kNeutral);  // grid.price.scale

  // A mixed policy axis keeps the patch classes: the fcfs roots fork, the
  // race_to_idle roots run one trajectory per bounded-value combination
  // (like roots under an external scheduler).
  sweep.base.policy = "fcfs";
  sweep.axes.push_back(
      SweepAxis("policy", {JsonValue(std::string("fcfs")),
                           JsonValue(std::string("race_to_idle"))}));
  const std::vector<AxisFirstEffect> mixed = ClassifySweepAxes(sweep);
  EXPECT_EQ(mixed[0].cls, AxisClass::kPowerCap);
  EXPECT_EQ(mixed[1].cls, AxisClass::kDrWindows);
  EXPECT_EQ(mixed[4].cls, AxisClass::kImmediate);  // the mixed policy axis
}

TEST(TreeClassifyTest, ExternalSchedulerInPlayDemotesSwapAndSupply) {
  SweepSpec sweep = FourClassSweep();
  sweep.axes.push_back(
      SweepAxis("cooling.supply_temp_c", {JsonValue(18.0), JsonValue(26.0)}));
  sweep.axes.push_back(
      SweepAxis("scheduler", {JsonValue(std::string("default")),
                              JsonValue(std::string("scheduleflow"))}));
  const std::vector<AxisFirstEffect> plan = ClassifySweepAxes(sweep);
  EXPECT_EQ(plan[2].cls, AxisClass::kImmediate);  // policy swap
  EXPECT_EQ(plan[4].cls, AxisClass::kImmediate);  // supply temp
  EXPECT_EQ(plan[5].cls, AxisClass::kImmediate);  // the scheduler axis itself
  // The bundled external couplings ignore signal VALUES: still neutral.
  EXPECT_EQ(plan[3].cls, AxisClass::kNeutral);
  // The cap axis keeps its class: the default-scheduler roots fork it, the
  // scheduleflow roots split on it before running (covered below).
  EXPECT_EQ(plan[0].cls, AxisClass::kPowerCap);
}

// --- per-axis fork-at-bound A/B tests ---------------------------------------

struct CapProbe {
  double cap_w = 0.0;
  SimTime trip = 0;
};

/// Self-calibrating: finds a swept cap whose demand watch trips strictly
/// inside the run (so the bound is a real mid-run time, not sim start).
CapProbe FindBitingCap(const ScenarioSpec& uncapped) {
  for (double cap : {2000.0, 2500.0, 3000.0, 3500.0, 4000.0, 4500.0, 5000.0,
                     5500.0, 6000.0, 7000.0, 8000.0}) {
    auto probe = SimulationBuilder(uncapped).Build();
    SimulationEngine& eng = probe->mutable_engine();
    eng.SetPowerWatch(cap);
    while (eng.power_watch_tripped_at() == kNever && eng.StepOnce()) {
    }
    const SimTime trip = eng.power_watch_tripped_at();
    if (trip != kNever && trip >= probe->sim_start() + 1000 &&
        trip + 2 * eng.tick() < probe->sim_end()) {
      return {cap, trip};
    }
  }
  return {};
}

TEST(TreeBoundTest, PowerCapForkAtProbeTripMatchesStraightCappedRun) {
  const ScenarioSpec uncapped = TreeBase();
  const CapProbe probe = FindBitingCap(uncapped);
  ASSERT_GT(probe.cap_w, 0.0) << "no swept cap trips strictly inside the run";

  ScenarioSpec capped = uncapped;
  ApplyScenarioKey(capped, "power_cap_w", JsonValue(probe.cap_w));
  auto straight = SimulationBuilder(capped).Build();
  straight->Run();

  auto source = SimulationBuilder(uncapped).Build();
  const SimTime start = source->sim_start();
  const SimDuration tick = source->engine().tick();
  const SimTime bound = AlignDown(probe.trip, start, tick);
  source->RunUntilExact(bound);
  const SimStateSnapshot at_bound = source->Snapshot();
  // Before the trip the throttle is provably 1.0: the capped run IS the
  // uncapped run, so patching the cap in at the bound loses nothing.
  auto fork = Simulation::ForkWithPatch(at_bound, "power_cap_w",
                                        JsonValue(probe.cap_w));
  fork->Run();
  ExpectSameOutcome(*straight, *fork);

  // One tick later the shared trajectory has already run a span the straight
  // run throttled: the outputs are no longer identical.
  source->RunUntilExact(bound + tick);
  const SimStateSnapshot late = source->Snapshot();
  source.reset();
  auto late_fork =
      Simulation::ForkWithPatch(late, "power_cap_w", JsonValue(probe.cap_w));
  late_fork->Run();
  // The straight run throttled (and so cut every running job's energy) in
  // the span the late fork ran uncapped.
  EXPECT_FALSE(BitIdentical(straight->engine().job_energy_j(),
                            late_fork->engine().job_energy_j()));
}

TEST(TreeBoundTest, DrWindowsForkAtEarliestStartMatchesStraightRun) {
  ScenarioSpec base = TreeBase();
  base.grid.price_usd_per_kwh = GridSignal::Diurnal(0.08, 0.5, 1.4);
  base.grid.carbon_kg_per_kwh = GridSignal::Diurnal(0.4, 0.6, 1.3);
  const JsonValue schedule = OneWindowSchedule(6 * kHour, 10 * kHour, 1300.0);

  ScenarioSpec windowed = base;
  ApplyScenarioKey(windowed, "grid.dr_windows", schedule);
  auto straight = SimulationBuilder(windowed).Build();
  straight->Run();

  auto source = SimulationBuilder(base).Build();
  const SimTime start = source->sim_start();
  const SimDuration tick = source->engine().tick();
  ASSERT_EQ((6 * kHour - start) % tick, 0) << "window start must be on the grid";
  source->RunUntilExact(6 * kHour);
  const SimStateSnapshot at_start = source->Snapshot();
  auto fork = Simulation::ForkWithPatch(at_start, "grid.dr_windows", schedule);
  fork->Run();
  ExpectSameOutcome(*straight, *fork);

  // One tick past the earliest window start the fork is REFUSED (the window
  // would have to rewrite the past), not silently wrong.
  source->RunUntilExact(6 * kHour + tick);
  const SimStateSnapshot late = source->Snapshot();
  source.reset();
  EXPECT_THROW(Simulation::ForkWithPatch(late, "grid.dr_windows", schedule),
               std::invalid_argument);
}

TEST(TreeBoundTest, PolicySwapForkAtFirstQueueTimeMatchesStraightRun) {
  const ScenarioSpec fcfs = RaceSpec();
  ScenarioSpec sjf = fcfs;
  ApplyScenarioKey(sjf, "policy", JsonValue(std::string("sjf")));
  auto straight = SimulationBuilder(sjf).Build();
  straight->Run();

  auto source = SimulationBuilder(fcfs).Build();
  const SimTime start = source->sim_start();
  ASSERT_EQ(start, 6 * kHour);  // fast-forwarded past the anchor job
  const SimDuration tick = source->engine().tick();
  ASSERT_EQ((12 * kHour - start) % tick, 0);

  // The runner's conservative bound (first submit clamped to sim start).
  const SimStateSnapshot at_start = source->Snapshot();
  auto early =
      Simulation::ForkWithPatch(at_start, "policy", JsonValue(std::string("sjf")));
  early->Run();
  ExpectSameOutcome(*straight, *early);

  // The tight bound: the queue is first non-empty at 12 h; until then every
  // policy's trajectory is identical.
  source->RunUntilExact(12 * kHour);
  const SimStateSnapshot at_bound = source->Snapshot();
  auto fork = Simulation::ForkWithPatch(at_bound, "policy",
                                        JsonValue(std::string("sjf")));
  fork->Run();
  ExpectSameOutcome(*straight, *fork);

  // One tick later fcfs has already started the LONGEST job; sjf would have
  // picked the two shortest.  The swap cannot unwind that.
  source->RunUntilExact(12 * kHour + tick);
  const SimStateSnapshot late = source->Snapshot();
  source.reset();
  auto late_fork =
      Simulation::ForkWithPatch(late, "policy", JsonValue(std::string("sjf")));
  late_fork->Run();
  EXPECT_NE(straight->engine().stats().Fingerprint(),
            late_fork->engine().stats().Fingerprint());
}

TEST(TreeBoundTest, SupplyTempForkOneTickBeforeFirstAllocationMatches) {
  ScenarioSpec base = RaceSpec();
  base.policy = "low_temp_first";
  base.cooling_supply_temp_c = 18.0;
  base.cooling_topology.racks = 4;
  base.cooling_topology.nodes_per_rack = 4;
  base.cooling_topology.hr_matrix.kind = "layout";
  base.cooling_topology.hr_matrix.intra_rack = 0.1;
  base.cooling_topology.hr_matrix.cross_rack = 0.02;
  base.cooling_topology.airflow_w_per_k = 200.0;

  ScenarioSpec warm = base;
  ApplyScenarioKey(warm, "cooling.supply_temp_c", JsonValue(26.0));
  auto straight = SimulationBuilder(warm).Build();
  straight->Run();

  auto source = SimulationBuilder(base).Build();
  const SimTime start = source->sim_start();
  const SimDuration tick = source->engine().tick();
  // One tick of lead: the fork's first integrated span republishes the inlet
  // temperatures the 12 h allocations are scored against, under the patched
  // supply, before any placement happens.
  const SimTime bound = AlignDown(12 * kHour - tick, start, tick);
  source->RunUntilExact(bound);
  const SimStateSnapshot snap = source->Snapshot();
  source.reset();
  auto fork =
      Simulation::ForkWithPatch(snap, "cooling.supply_temp_c", JsonValue(26.0));
  fork->Run();
  ExpectSameOutcome(*straight, *fork);
}

/// Why kSupplyTemp demotes under transient thermal: the old one-tick-before-
/// first-allocation bound is NOT sound any more — the rack RC state reads the
/// setpoint from tick 0, so two runs under different supplies have already
/// diverged long before the first allocation.  ForkWithPatch refuses the key
/// outright rather than let a caller fork at the stale bound.
TEST(TreeBoundTest, SupplyTempOldBoundDivergesUnderTransientAndPatchRefuses) {
  ScenarioSpec base = RaceSpec();
  base.policy = "low_temp_first";
  base.cooling_supply_temp_c = 18.0;
  base.cooling_topology.racks = 4;
  base.cooling_topology.nodes_per_rack = 4;
  base.cooling_topology.hr_matrix.kind = "layout";
  base.cooling_topology.hr_matrix.intra_rack = 0.1;
  base.cooling_topology.hr_matrix.cross_rack = 0.02;
  base.cooling_topology.airflow_w_per_k = 200.0;
  TransientThermalSpec ts;
  ts.enabled = true;
  ts.rack_tau_s = 1800.0;
  base.cooling_transient = ts;

  ScenarioSpec warm = base;
  ApplyScenarioKey(warm, "cooling.supply_temp_c", JsonValue(26.0));

  auto cold = SimulationBuilder(base).Build();
  auto hot = SimulationBuilder(warm).Build();
  const SimDuration tick = cold->engine().tick();
  const SimTime bound =
      AlignDown(12 * kHour - tick, cold->sim_start(), tick);
  cold->RunUntilExact(bound);
  hot->RunUntilExact(bound);
  // The tightness counterexample: at the old quasi-static bound the two
  // trajectories' rack RC states already differ, so a fork patched here
  // could never be bit-identical to the from-scratch run.
  EXPECT_FALSE(BitIdentical(cold->engine().rack_transient_c(),
                            hot->engine().rack_transient_c()));
  const SimStateSnapshot snap = cold->Snapshot();
  try {
    Simulation::ForkWithPatch(snap, "cooling.supply_temp_c", JsonValue(26.0));
    FAIL() << "supply-temp patch accepted with transient thermal enabled";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("guard=transient_thermal"),
              std::string::npos)
        << e.what();
  }
}

TEST(TreeBoundTest, DrWindowsPatchRefusedWhenTripConfigured) {
  ScenarioSpec base = TreeBase();
  base.cooling_topology.racks = 4;
  base.cooling_topology.nodes_per_rack = 4;
  base.cooling_topology.hr_matrix.kind = "layout";
  base.cooling_topology.hr_matrix.intra_rack = 0.04;
  base.cooling_topology.hr_matrix.cross_rack = 0.01;
  base.cooling_topology.airflow_w_per_k = 200.0;
  TransientThermalSpec ts;
  ts.enabled = true;
  ts.rack_tau_s = 600.0;
  ts.trip_inlet_c = 45.0;  // configured — never mind whether it ever trips
  base.cooling_transient = ts;

  auto source = SimulationBuilder(base).Build();
  source->RunUntilExact(
      AlignDown(4 * kHour, source->sim_start(), source->engine().tick()));
  const SimStateSnapshot snap = source->Snapshot();
  const JsonValue schedule = OneWindowSchedule(8 * kHour, 12 * kHour, 1300.0);
  try {
    Simulation::ForkWithPatch(snap, "grid.dr_windows", schedule);
    FAIL() << "dr_windows patch accepted with thermal trips configured";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("guard=transient_thermal"),
              std::string::npos)
        << e.what();
  }

  // Control: the identical fork is accepted once no trip is configured —
  // RC lag alone cannot move any timing, so the window-start bound stands.
  base.cooling_transient->trip_inlet_c = 0.0;
  auto source2 = SimulationBuilder(base).Build();
  source2->RunUntilExact(
      AlignDown(4 * kHour, source2->sim_start(), source2->engine().tick()));
  const SimStateSnapshot snap2 = source2->Snapshot();
  auto fork = Simulation::ForkWithPatch(snap2, "grid.dr_windows", schedule);
  fork->Run();
  EXPECT_EQ(fork->engine().now(), fork->sim_end());
}

// --- tree runner vs plain path ----------------------------------------------

TEST(TreeRunnerTest, TreeMatchesPlainBytesAtMultipleThreadCounts) {
  const std::string dir_plain = "test_tree_plain";
  const std::string dir_t1 = "test_tree_t1";
  const std::string dir_t4 = "test_tree_t4";
  for (const auto& d : {dir_plain, dir_t1, dir_t4}) fs::remove_all(d);

  SweepOptions plain;
  plain.threads = 2;
  plain.output_dir = dir_plain;
  const SweepSummary s_plain = SweepRunner(FourClassSweep()).Run(plain);
  EXPECT_FALSE(s_plain.tree_used);
  EXPECT_EQ(s_plain.ok_count, 16u);

  SweepOptions tree1;
  tree1.threads = 1;
  tree1.tree = true;
  tree1.output_dir = dir_t1;
  const SweepSummary s_t1 = SweepRunner(FourClassSweep()).Run(tree1);

  SweepOptions tree4 = tree1;
  tree4.threads = 4;
  tree4.output_dir = dir_t4;
  const SweepSummary s_t4 = SweepRunner(FourClassSweep()).Run(tree4);

  for (const SweepSummary* s : {&s_t1, &s_t4}) {
    EXPECT_TRUE(s->tree_used);
    EXPECT_EQ(s->ok_count, 16u);
    EXPECT_EQ(s->tree_stats.scenarios, 16u);
    // Every axis is bounded, so the whole grid hangs off ONE shared root.
    EXPECT_EQ(s->tree_stats.roots, 1u);
    EXPECT_EQ(s->tree_stats.fallback_scenarios, 0u);
    EXPECT_GT(s->tree_stats.forks, 0u);
    EXPECT_LT(s->tree_stats.sim_seconds_stepped, s->tree_stats.sim_seconds_plain);
    EXPECT_GT(s->tree_stats.SavedFraction(), 0.0);
  }
  // The tree's shape is deterministic: thread count changes nothing.
  EXPECT_EQ(s_t1.tree_stats.forks, s_t4.tree_stats.forks);
  EXPECT_EQ(s_t1.tree_stats.max_depth, s_t4.tree_stats.max_depth);
  EXPECT_EQ(s_t1.tree_stats.sim_seconds_stepped, s_t4.tree_stats.sim_seconds_stepped);

  // Byte-identical artifacts: shards, aggregates, manifest.
  for (const char* file : {"/rows-00000.csv", "/aggregates.json", "/manifest.json"}) {
    const std::string want = ReadFile(dir_plain + file);
    EXPECT_EQ(want, ReadFile(dir_t1 + file)) << file;
    EXPECT_EQ(want, ReadFile(dir_t4 + file)) << file;
  }
  // Tree stats go to their own file — present on tree runs, absent on plain
  // (aggregates.json must hash identically either way).
  EXPECT_FALSE(fs::exists(dir_plain + "/tree_stats.json"));
  ASSERT_TRUE(fs::exists(dir_t1 + "/tree_stats.json"));
  const JsonValue stats = JsonValue::Parse(ReadFile(dir_t1 + "/tree_stats.json"));
  EXPECT_EQ(stats.At("scenarios").AsInt(), 16);

  for (const auto& d : {dir_plain, dir_t1, dir_t4}) fs::remove_all(d);
}

TEST(TreeRunnerTest, CapProbeEngagesWhenNoEarlierForkExists) {
  SweepSpec sweep = FourClassSweep();
  // Only cap x DR: the earliest non-cap fork is the 11 h window start, so
  // the runner probes the shared trajectory's demand curve up to it.
  sweep.axes.erase(sweep.axes.begin() + 2, sweep.axes.end());

  SweepOptions plain;
  plain.threads = 2;
  const SweepSummary s_plain = SweepRunner(sweep).Run(plain);
  SweepOptions tree = plain;
  tree.tree = true;
  const SweepSummary s_tree = SweepRunner(sweep).Run(tree);

  EXPECT_TRUE(s_tree.tree_used);
  EXPECT_EQ(s_tree.tree_stats.probe_runs, 1u);
  EXPECT_EQ(s_tree.tree_stats.fallback_scenarios, 0u);
  EXPECT_EQ(s_plain.aggregates.ToJson().Dump(2),
            s_tree.aggregates.ToJson().Dump(2));
}

/// Plain and tree runs of `sweep` with shards on disk: the tree's shards and
/// aggregates must be byte-identical to the plain path's.  Returns the
/// tree's stats.
TreeStats ExpectTreeMatchesPlain(const SweepSpec& sweep, const std::string& tag) {
  const std::string dir_plain = "test_tree_" + tag + "_plain";
  const std::string dir_tree = "test_tree_" + tag + "_tree";
  fs::remove_all(dir_plain);
  fs::remove_all(dir_tree);
  SweepOptions plain;
  plain.threads = 2;
  plain.output_dir = dir_plain;
  const SweepSummary s_plain = SweepRunner(sweep).Run(plain);
  SweepOptions tree = plain;
  tree.tree = true;
  tree.output_dir = dir_tree;
  const SweepSummary s_tree = SweepRunner(sweep).Run(tree);
  EXPECT_TRUE(s_tree.tree_used);
  EXPECT_EQ(s_tree.ok_count, s_plain.ok_count);
  for (const char* file : {"/rows-00000.csv", "/aggregates.json"}) {
    EXPECT_EQ(ReadFile(dir_plain + file), ReadFile(dir_tree + file)) << file;
  }
  fs::remove_all(dir_plain);
  fs::remove_all(dir_tree);
  return s_tree.tree_stats;
}

TEST(TreeRunnerTest, FallsBackToPlainRowsOnNonForkableScheduler) {
  // scheduleflow makes ForkWithPatch refuse every patch.  The runner sees
  // that before it runs anything: no probe, no fallback, one trajectory
  // per cap value, priced out per scale at the leaves.
  SweepSpec sweep = FourClassSweep();
  sweep.axes.erase(sweep.axes.begin() + 1, sweep.axes.begin() + 3);  // cap x scale
  sweep.base.scheduler = "scheduleflow";
  const TreeStats stats = ExpectTreeMatchesPlain(sweep, "ext");
  EXPECT_EQ(stats.fallback_scenarios, 0u);
  EXPECT_EQ(stats.probe_runs, 0u);
  EXPECT_EQ(stats.roots, 2u);
  EXPECT_EQ(stats.Trajectories(), 2u);
}

/// The CLI what-if grid shape: 2 caps x a policy or scheduler axis x 4
/// price scales on a synthetic calendar-mode day, one of whose values
/// ForkWithPatch cannot fork.
SweepSpec MixedGrid(const std::string& key, const std::string& forkable,
                    const std::string& unforkable) {
  SweepSpec sweep;
  sweep.name = "mixed-" + key;
  sweep.base = TreeBase();
  sweep.base.jobs_override.clear();
  sweep.base.event_calendar = true;
  sweep.base.grid.price_usd_per_kwh = GridSignal::Diurnal(0.08, 0.5, 1.4);
  sweep.base.grid.carbon_kg_per_kwh = GridSignal::Diurnal(0.38, 0.55, 1.35);
  SyntheticWorkloadSpec wl;
  wl.horizon = 6 * kHour;
  wl.arrival_rate_per_hour = 20;
  wl.max_nodes = 16;
  wl.mean_nodes_log2 = 1.5;
  wl.seed = 7;
  sweep.synthetic = wl;
  sweep.axes.push_back(SweepAxis("power_cap_w", {JsonValue(100000.0), JsonValue(0.0)}));
  sweep.axes.push_back(SweepAxis(key, {JsonValue(forkable), JsonValue(unforkable)}));
  sweep.axes.push_back(SweepAxis::LogRange("grid.price.scale", 0.5, 4.0, 4));
  return sweep;
}

TEST(TreeRunnerTest, MixedPolicyGridNeverProbesOrFallsBack) {
  // race_to_idle roots split on the cap and share per scale; the fcfs root
  // forks the cap.  One trajectory per cap and policy value would be 4.
  const TreeStats stats =
      ExpectTreeMatchesPlain(MixedGrid("policy", "fcfs", "race_to_idle"), "mixpol");
  EXPECT_EQ(stats.fallback_scenarios, 0u);
  EXPECT_EQ(stats.probe_runs, 0u);
  EXPECT_LE(stats.Trajectories(), 4u);
}

TEST(TreeRunnerTest, MixedSchedulerGridNeverProbesOrFallsBack) {
  const TreeStats stats = ExpectTreeMatchesPlain(
      MixedGrid("scheduler", "default", "scheduleflow"), "mixsched");
  EXPECT_EQ(stats.fallback_scenarios, 0u);
  EXPECT_EQ(stats.probe_runs, 0u);
  EXPECT_LE(stats.Trajectories(), 4u);
}

TEST(TreeRunnerTest, PlainRunsCountTowardsSavedSimTime) {
  // cap {100 kW, 0} x scheduler {default, scheduleflow}: the default root
  // shares one trajectory between both caps, and scheduleflow's two members
  // run plainly.  Three windows stepped for four scenarios: 25 % saved, less
  // the final tick each cap branch steps after the fork.  Counting only the
  // shared root read 50 %.
  SweepSpec sweep = MixedGrid("scheduler", "default", "scheduleflow");
  sweep.axes.pop_back();  // cap x scheduler
  const TreeStats stats = ExpectTreeMatchesPlain(sweep, "plaincount");
  EXPECT_EQ(stats.plain_runs, 2u);
  EXPECT_EQ(stats.Trajectories(), 3u);
  EXPECT_NEAR(stats.SavedFraction(), 0.25, 1e-3);
  EXPECT_LT(stats.SavedFraction(), 0.25);
}

TEST(TreeRunnerTest, RunTimeFallbackCountsItsRerunsAsSteppedWork) {
  // The second DR schedule lies after the simulated window: the plain path
  // rejects it, and so does ForkWithPatch at the window's fork, so every
  // root runs its shared prefix, aborts, and reruns its members plainly.
  SweepSpec sweep = FourClassSweep();
  sweep.axes.erase(sweep.axes.begin() + 2, sweep.axes.end());  // cap x DR
  sweep.axes[1] = SweepAxis(
      "grid.dr_windows",
      {EmptySchedule(), OneWindowSchedule(30 * kHour, 32 * kHour, 2000.0)});
  const TreeStats stats = ExpectTreeMatchesPlain(sweep, "fallback");
  EXPECT_EQ(stats.fallback_scenarios, stats.scenarios);
  EXPECT_GT(stats.sim_seconds_stepped, stats.sim_seconds_plain);
  EXPECT_EQ(stats.SavedFraction(), 0.0);
}

TEST(TreeRunnerTest, TreeSilentlyUsesPlainPathWhenNoAxisIsBounded) {
  SweepSpec sweep;
  sweep.name = "unbounded";
  sweep.base = TreeBase();
  // A single-value cap axis is demoted (its value is baked into every
  // root's spec by Expand); tick has no bound at all.
  sweep.axes.push_back(SweepAxis("power_cap_w", {JsonValue(1500.0)}));
  sweep.axes.push_back(SweepAxis("tick", {JsonValue(600.0), JsonValue(1200.0)}));

  SweepOptions tree;
  tree.threads = 2;
  tree.tree = true;
  const SweepSummary s = SweepRunner(sweep).Run(tree);
  EXPECT_FALSE(s.tree_used);
  EXPECT_EQ(s.ok_count, 2u);
  EXPECT_EQ(s.tree_stats.scenarios, 0u);
}

// --- scenario subranges (the distributed tier's work unit) ------------------

TEST(TreeRunnerTest, AlignedSubrangesProduceByteIdenticalShards) {
  const std::string dir_full = "test_tree_sub_full";
  const std::string dir_a = "test_tree_sub_a";
  const std::string dir_b = "test_tree_sub_b";
  for (const auto& d : {dir_full, dir_a, dir_b}) fs::remove_all(d);

  SweepOptions full;
  full.threads = 2;
  full.tree = true;
  full.shard_size = 8;
  full.output_dir = dir_full;
  const SweepSummary s_full = SweepRunner(FourClassSweep()).Run(full);
  EXPECT_EQ(s_full.ok_count, 16u);

  SweepOptions part = full;
  part.write_aggregates = false;
  part.scenario_begin = 0;
  part.scenario_end = 8;
  part.output_dir = dir_a;
  const SweepSummary s_a = SweepRunner(FourClassSweep()).Run(part);
  EXPECT_EQ(s_a.total, 8u);
  EXPECT_EQ(s_a.ok_count, 8u);
  EXPECT_EQ(s_a.aggregates.total, 0u);  // a subrange finalizes nothing

  part.scenario_begin = 8;
  part.scenario_end = std::numeric_limits<std::size_t>::max();  // clamped
  part.output_dir = dir_b;
  const SweepSummary s_b = SweepRunner(FourClassSweep()).Run(part);
  EXPECT_EQ(s_b.total, 8u);

  EXPECT_EQ(ReadFile(dir_full + "/rows-00000.csv"),
            ReadFile(dir_a + "/rows-00000.csv"));
  EXPECT_EQ(ReadFile(dir_full + "/rows-00001.csv"),
            ReadFile(dir_b + "/rows-00001.csv"));
  // Each worker writes ONLY its complete shards and no merged artifacts.
  EXPECT_FALSE(fs::exists(dir_a + "/rows-00001.csv"));
  EXPECT_FALSE(fs::exists(dir_b + "/rows-00000.csv"));
  EXPECT_FALSE(fs::exists(dir_a + "/aggregates.json"));
  EXPECT_FALSE(fs::exists(dir_a + "/manifest.json"));

  for (const auto& d : {dir_full, dir_a, dir_b}) fs::remove_all(d);
}

TEST(TreeRunnerTest, SubrangeGuards) {
  const std::string dir = "test_tree_sub_guards";
  fs::remove_all(dir);
  SweepOptions bad;
  bad.threads = 1;
  bad.shard_size = 8;
  bad.output_dir = dir;
  bad.write_aggregates = false;
  bad.scenario_begin = 4;  // not shard-aligned
  bad.scenario_end = 8;
  EXPECT_THROW(SweepRunner(FourClassSweep()).Run(bad), std::invalid_argument);

  bad.scenario_begin = 0;
  bad.scenario_end = 8;
  bad.write_aggregates = true;  // a subrange cannot write merged artifacts
  EXPECT_THROW(SweepRunner(FourClassSweep()).Run(bad), std::invalid_argument);

  bad.write_aggregates = false;
  bad.scenario_begin = 8;
  bad.scenario_end = 4;  // inverted
  EXPECT_THROW(SweepRunner(FourClassSweep()).Run(bad), std::invalid_argument);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sraps
