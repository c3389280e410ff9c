// Snapshot/fork A/B equivalence — the Simulation::Snapshot / ForkFrom
// contract: a simulation captured at time t and resumed in a fork must
// finish *bit-identically* to one that was never interrupted — identical
// counters, stats records and JSON, per-job energy, recorded telemetry,
// realised schedules, and grid cost/CO2 — in tick and event-calendar modes,
// with grid signals, outages, and power caps active.  Also covers the edge
// cases: fork at t=0, fork at sim_end, fork mid-outage, fork with jobs
// mid-throttle under a DR cap, double-fork independence, snapshots that
// outlive their source, and the ForkWithGrid re-scaled-accounting path the
// sweep tree's price/carbon-scale leaves build on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "core/simulation.h"
#include "core/simulation_builder.h"
#include "core/snapshot.h"
#include "engine/simulation_engine.h"
#include "sched/scheduler.h"

namespace sraps {
namespace {

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

// A handful of jobs over a day: idle spans, queue contention around 6 h
// (12 nodes requested on an 8-node machine), and a late straggler.
std::vector<Job> Workload() {
  std::vector<Job> jobs;
  jobs.push_back(MakeJob(1, 0, 3600, 4, 0.9));
  jobs.push_back(MakeJob(2, 1800, 7200, 4, 0.7));
  jobs.push_back(MakeJob(3, 6 * kHour, 3600, 6, 0.8));
  jobs.push_back(MakeJob(4, 6 * kHour + 300, 5400, 6, 0.6));
  jobs.push_back(MakeJob(5, 7 * kHour, 1800, 2, 0.9));
  jobs.push_back(MakeJob(6, 18 * kHour, 900, 8, 0.5));
  return jobs;
}

ScenarioSpec BaseSpec(bool event_calendar) {
  ScenarioSpec s;
  s.name = "snapshot-ab";
  s.system = "mini";
  s.jobs_override = Workload();
  s.policy = "fcfs";
  s.backfill = "easy";
  s.duration = 24 * kHour;
  s.event_calendar = event_calendar;
  return s;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The full bitwise-equivalence battery from the event-calendar A/B suites,
/// applied across the snapshot/fork boundary.
void ExpectEquivalent(const Simulation& straight, const Simulation& forked) {
  const SimulationEngine& a = straight.engine();
  const SimulationEngine& b = forked.engine();
  EXPECT_EQ(a.counters().submitted, b.counters().submitted);
  EXPECT_EQ(a.counters().started, b.counters().started);
  EXPECT_EQ(a.counters().completed, b.counters().completed);
  EXPECT_EQ(a.counters().dismissed, b.counters().dismissed);
  EXPECT_EQ(a.counters().prepopulated, b.counters().prepopulated);
  EXPECT_EQ(a.counters().scheduler_invocations, b.counters().scheduler_invocations);
  EXPECT_EQ(a.counters().scheduler_skips, b.counters().scheduler_skips);
  EXPECT_EQ(a.counters().grid_events, b.counters().grid_events);
  EXPECT_EQ(a.counters().power_plan_invocations, b.counters().power_plan_invocations);
  EXPECT_EQ(a.counters().pstate_changes, b.counters().pstate_changes);
  EXPECT_EQ(a.counters().nodes_slept, b.counters().nodes_slept);
  EXPECT_EQ(a.counters().nodes_woken, b.counters().nodes_woken);
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

  ASSERT_EQ(a.recorder().ChannelNames(), b.recorder().ChannelNames());
  for (const std::string& name : a.recorder().ChannelNames()) {
    const Channel& x = a.recorder().Get(name);
    const Channel& y = b.recorder().Get(name);
    EXPECT_EQ(x.times, y.times) << "channel " << name;
    EXPECT_TRUE(BitIdentical(x.values, y.values)) << "channel " << name;
  }
}

std::unique_ptr<Simulation> Straight(const ScenarioSpec& spec) {
  auto sim = SimulationBuilder(spec).Build();
  sim->Run();
  return sim;
}

/// Runs to `t`, snapshots, forks, and finishes the fork.
std::unique_ptr<Simulation> ForkedAt(const ScenarioSpec& spec, SimTime t) {
  auto source = SimulationBuilder(spec).Build();
  source->RunUntil(t);
  const SimStateSnapshot snap = source->Snapshot();
  source.reset();  // the snapshot must be fully self-contained
  auto fork = Simulation::ForkFrom(snap);
  fork->Run();
  return fork;
}

class SnapshotAB : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(TickAndEventCalendar, SnapshotAB, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "EventCalendar" : "TickLoop";
                         });

TEST_P(SnapshotAB, ForkAtMidpointMatchesStraightRun) {
  const ScenarioSpec spec = BaseSpec(GetParam());
  ExpectEquivalent(*Straight(spec), *ForkedAt(spec, 5 * kHour));
}

TEST_P(SnapshotAB, ForkAtZeroMatchesStraightRun) {
  const ScenarioSpec spec = BaseSpec(GetParam());
  ExpectEquivalent(*Straight(spec), *ForkedAt(spec, 0));
}

TEST_P(SnapshotAB, ForkAtSimEndMatchesStraightRun) {
  // RunUntil(sim_end) stops after the window's last step but BEFORE the
  // final completion sweep; the fork's Run() must perform it.
  const ScenarioSpec spec = BaseSpec(GetParam());
  ExpectEquivalent(*Straight(spec), *ForkedAt(spec, 24 * kHour));
}

TEST_P(SnapshotAB, ForkAtEndOfNonTickMultipleWindowMatches) {
  // When the window length is not a tick multiple the final tick overshoots
  // sim_end; an end-of-run snapshot carries that clock and must restore.
  ScenarioSpec spec = BaseSpec(GetParam());
  spec.tick = 60;
  spec.duration = 24 * kHour + 37;
  ExpectEquivalent(*Straight(spec), *ForkedAt(spec, spec.duration));
}

TEST_P(SnapshotAB, ForkDuringQueueContentionMatches) {
  const ScenarioSpec spec = BaseSpec(GetParam());
  ExpectEquivalent(*Straight(spec), *ForkedAt(spec, 6 * kHour + 400));
}

TEST_P(SnapshotAB, ForkMidOutageMatches) {
  ScenarioSpec spec = BaseSpec(GetParam());
  // Nodes 0-2 drain at 1 h and recover at 8 h: the fork lands with the
  // outage active and pending-down drain state in flight.
  spec.outages.push_back({1 * kHour, 8 * kHour, {0, 1, 2}});
  ExpectEquivalent(*Straight(spec), *ForkedAt(spec, 4 * kHour));
}

TEST_P(SnapshotAB, ForkMidThrottleUnderDrCapMatches) {
  ScenarioSpec spec = BaseSpec(GetParam());
  // A demand-response window tight enough to throttle the contended phase:
  // the fork lands mid-window with dilated job ends and stale (lazily
  // re-keyed) completion-heap entries.
  spec.grid.dr_windows = {{6 * kHour, 10 * kHour, 1300.0}};
  const auto straight = Straight(spec);
  ASSERT_TRUE(straight->engine().recorder().Has("throttle_factor"));
  const Channel& th = straight->engine().recorder().Get("throttle_factor");
  bool throttled = false;
  for (double v : th.values) throttled |= v < 1.0;
  ASSERT_TRUE(throttled) << "test setup: DR cap never throttled";
  ExpectEquivalent(*straight, *ForkedAt(spec, 7 * kHour));
}

TEST_P(SnapshotAB, ForkMidWakeTransitionMatches) {
  // race_to_idle sleeps the idle machine; the 6 h contention wave wakes it
  // through the per-class wake latencies.  Fork while wake transitions are
  // in flight: the snapshot must carry kWaking node modes and the pending
  // wake-event heap verbatim so the fork pops them in the same order.
  ScenarioSpec spec = BaseSpec(GetParam());
  spec.policy = "race_to_idle";
  const auto straight = Straight(spec);
  ASSERT_GT(straight->engine().counters().nodes_slept, 0u);

  auto source = SimulationBuilder(spec).Build();
  source->RunUntil(6 * kHour + 60);
  bool mid_transition = false;
  for (int n = 0; n < 8; ++n) {
    mid_transition |= source->engine().NodeMode(n) == NodePowerMode::kWaking;
  }
  ASSERT_TRUE(mid_transition || source->engine().nodes_asleep() > 0)
      << "test setup: no sleep/wake state live at the fork point";
  const SimStateSnapshot snap = source->Snapshot();
  source.reset();
  auto fork = Simulation::ForkFrom(snap);
  fork->Run();
  ExpectEquivalent(*straight, *fork);
}

TEST_P(SnapshotAB, ForkMidPStateRungMatches) {
  // pace_to_cap holds deep rungs while the DR window bites; fork lands with
  // non-zero per-node P-states and a pending power event in the snapshot.
  ScenarioSpec spec = BaseSpec(GetParam());
  spec.policy = "pace_to_cap";
  spec.grid.dr_windows = {{6 * kHour, 10 * kHour, 1300.0}};
  const auto straight = Straight(spec);
  ASSERT_GT(straight->engine().counters().pstate_changes, 0u);
  ExpectEquivalent(*straight, *ForkedAt(spec, 7 * kHour));
}

TEST_P(SnapshotAB, ForkWithGridSignalsStaticCapAndCoolingMatches) {
  ScenarioSpec spec = BaseSpec(GetParam());
  spec.grid.price_usd_per_kwh = GridSignal::Diurnal(0.08, 0.5, 1.4);
  spec.grid.carbon_kg_per_kwh = GridSignal::Diurnal(0.4, 0.6, 1.3);
  spec.power_cap_w = 1500.0;
  spec.cooling = true;
  ExpectEquivalent(*Straight(spec), *ForkedAt(spec, 13 * kHour));
}

TEST_P(SnapshotAB, ReplayPolicyForkMatches) {
  // Replay's scheduler is time-triggered (NeedsTimeTriggered): every tick
  // schedules, so the fork must resume the per-tick cadence exactly.
  ScenarioSpec spec = BaseSpec(GetParam());
  spec.policy = "replay";
  spec.backfill = "";
  ExpectEquivalent(*Straight(spec), *ForkedAt(spec, 2 * kHour));
}

TEST_P(SnapshotAB, ExternalSchedulerForkMatches) {
  // The scheduleflow coupling keeps private reservation state behind the
  // bridge; CloneExternal must carry it across the fork.
  ScenarioSpec spec = BaseSpec(GetParam());
  spec.scheduler = "scheduleflow";
  ExpectEquivalent(*Straight(spec), *ForkedAt(spec, 6 * kHour + 600));
}

ScenarioSpec ThermalSpec(bool event_calendar) {
  // The snapshot workload on a 4x4 thermal layout, placed by inlet
  // temperature — the scheduler reads previous-span state (node_inlet_c), so
  // the fork must restore it verbatim or its first placement diverges.
  ScenarioSpec spec = BaseSpec(event_calendar);
  spec.policy = "low_temp_first";
  spec.cooling_topology.racks = 4;
  spec.cooling_topology.nodes_per_rack = 4;
  spec.cooling_topology.hr_matrix.kind = "layout";
  spec.cooling_topology.hr_matrix.intra_rack = 0.1;
  spec.cooling_topology.hr_matrix.cross_rack = 0.02;
  spec.cooling_topology.airflow_w_per_k = 200.0;
  return spec;
}

TEST_P(SnapshotAB, ThermalPlacementForkMatches) {
  // Fork during the 6 h contention wave: jobs are queued and the next
  // scored placement depends on the captured inlet temperatures.
  const ScenarioSpec spec = ThermalSpec(GetParam());
  ExpectEquivalent(*Straight(spec), *ForkedAt(spec, 6 * kHour + 400));
}

TEST_P(SnapshotAB, ThermalMultiCduCoolingForkMatches) {
  // Cooling coupled on a topology: the snapshot carries the per-CDU loop
  // states instead of the lumped cooling model.
  ScenarioSpec spec = ThermalSpec(GetParam());
  spec.cooling = true;
  ExpectEquivalent(*Straight(spec), *ForkedAt(spec, 7 * kHour));
}

TEST_P(SnapshotAB, ThermalForkMidOutageUnderDrCapMatches) {
  // The full stack at the fork point: thermal placement, an active outage,
  // and a biting DR cap with dilated completions in flight.
  ScenarioSpec spec = ThermalSpec(GetParam());
  spec.outages.push_back({1 * kHour, 8 * kHour, {0, 1, 2}});
  spec.grid.dr_windows = {{6 * kHour, 10 * kHour, 1300.0}};
  ExpectEquivalent(*Straight(spec), *ForkedAt(spec, 7 * kHour));
}

TEST(SnapshotTest, ThermalStateChangesTheFingerprint) {
  // Two snapshots whose only difference is thermal history must not collide:
  // node_inlet_c is part of the captured state.
  const ScenarioSpec cold = ThermalSpec(true);
  ScenarioSpec hot = cold;
  hot.cooling_topology.airflow_w_per_k = 120.0;  // hotter inlets, same schedule
  auto a = SimulationBuilder(cold).Build();
  auto b = SimulationBuilder(hot).Build();
  a->RunUntil(2 * kHour);
  b->RunUntil(2 * kHour);
  EXPECT_NE(a->Snapshot().Fingerprint(), b->Snapshot().Fingerprint());
}

TEST(SnapshotTest, ThermalCountersAndStateAreDigestedAndSized) {
  // Each field below is perturbed on its own: the digest must see the trip
  // counters, and the size estimate the inlet and per-CDU state.
  ScenarioSpec spec = ThermalSpec(true);
  spec.cooling = true;  // per-CDU loops on the topology
  auto sim = SimulationBuilder(spec).Build();
  sim->RunUntil(7 * kHour);
  const EngineState state = sim->engine().CaptureState();
  ASSERT_FALSE(state.node_inlet_c.empty());
  ASSERT_TRUE(state.cooling.has_value());

  const std::uint64_t digest = EngineStateFingerprint(state);
  EngineState trips = state;
  ++trips.counters.thermal_trips;
  EXPECT_NE(EngineStateFingerprint(trips), digest);
  EngineState clears = state;
  ++clears.counters.thermal_clears;
  EXPECT_NE(EngineStateFingerprint(clears), digest);

  const std::size_t bytes = EngineStateBytes(state);
  EngineState no_inlets = state;
  no_inlets.node_inlet_c.clear();
  EXPECT_EQ(bytes - EngineStateBytes(no_inlets),
            state.node_inlet_c.size() * sizeof(double));
  EngineState no_cdus = state;
  no_cdus.cooling.reset();
  EXPECT_GE(bytes - EngineStateBytes(no_cdus),
            state.cooling->cdu_states().size() * sizeof(CduState));
  EXPECT_EQ(sim->Snapshot().ApproxBytes(), sizeof(SimStateSnapshot) + bytes);
}

// --- the EngineState field list ------------------------------------------

TEST(SnapshotTest, ForEachFieldVisitsEveryMemberOnce) {
  // The structured binding in ForEachField stops compiling when a member is
  // missing from it; this checks the visit list beneath it.  In address
  // order the visited fields must tile EngineState with nothing between
  // them but the padding their alignment demands.
  EngineState state;
  struct Extent {
    std::uintptr_t begin, end, align;
  };
  std::vector<Extent> fields;
  ForEachField(state, [&fields](auto& field) {
    using T = std::remove_cvref_t<decltype(field)>;
    const auto begin = reinterpret_cast<std::uintptr_t>(&field);
    fields.push_back({begin, begin + sizeof(T), alignof(T)});
  });
  std::sort(fields.begin(), fields.end(),
            [](const Extent& a, const Extent& b) { return a.begin < b.begin; });
  const auto round_up = [](std::uintptr_t x, std::uintptr_t a) {
    return (x + a - 1) / a * a;
  };
  std::uintptr_t at = reinterpret_cast<std::uintptr_t>(&state);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(fields[i].begin, round_up(at, fields[i].align)) << "field " << i;
    at = fields[i].end;
  }
  EXPECT_EQ(round_up(at, alignof(EngineState)),
            reinterpret_cast<std::uintptr_t>(&state) + sizeof(EngineState));
}

/// Every engine-state feature live at once: a thermal topology with per-CDU
/// cooling and the transient layer, a power-state policy, and a price signal
/// with the per-tick energy basis captured.
ScenarioSpec FullStateSpec() {
  ScenarioSpec spec = ThermalSpec(true);
  spec.cooling = true;
  spec.policy = "race_to_idle";
  TransientThermalSpec transient;
  transient.enabled = true;
  transient.rack_tau_s = 300.0;
  transient.trip_inlet_c = 60.0;
  spec.cooling_transient = transient;
  spec.grid.price_usd_per_kwh = GridSignal::Diurnal(0.08, 0.5, 1.4);
  spec.capture_grid_basis = true;
  return spec;
}

/// One visible change per EngineState field type.
struct PerturbField {
  template <typename T>
  void operator()(T& v) const {
    static_assert(std::is_arithmetic_v<T>);
    if constexpr (std::is_same_v<T, bool>) {
      v = !v;
    } else {
      v += 1;
    }
  }
  template <typename T>
  void operator()(std::vector<T>& v) const { v.emplace_back(); }
  void operator()(std::vector<Job>& jobs) const { jobs.front().end += 1; }
  void operator()(JobQueue& queue) const { queue.Push(0); }
  void operator()(std::optional<ResourceManager>& rm) const {
    if (rm->IsAsleep(0)) {
      rm->MarkAwake(0);
    } else {
      rm->MarkDown({0});
    }
  }
  void operator()(SimulationStats& stats) const {
    Job job;
    job.id = 999;
    job.nodes_required = 1;
    job.start = 0;
    job.end = 60;
    stats.RecordCompletion(job, 1.0);
  }
  void operator()(TimeSeriesRecorder& recorder) const {
    recorder.Mutable("perturbed").Append(0, 1.0);
  }
  void operator()(AccountRegistry& accounts) const { accounts.GetOrCreate("perturbed"); }
  void operator()(EngineCounters& counters) const { ++counters.thermal_clears; }
  void operator()(std::optional<MultiCduCoolingModel>& cdus) const {
    cdus->Step(std::vector<double>(cdus->num_cdus(), 5e3), 0.0, 60.0);
  }
};

TEST(SnapshotTest, EveryEngineStateFieldIsDigested) {
  auto sim = SimulationBuilder(FullStateSpec()).Build();
  sim->RunUntil(7 * kHour);
  const EngineState base = sim->engine().CaptureState();
  ASSERT_TRUE(base.cooling.has_value());
  ASSERT_FALSE(base.rack_temp_c.empty());
  ASSERT_FALSE(base.tick_wall_kwh.empty());
  ASSERT_GT(base.counters.nodes_slept, 0u);

  const std::uint64_t digest = EngineStateFingerprint(base);
  std::size_t fields = 0;
  ForEachField(base, [&fields](const auto&) { ++fields; });
  const PerturbField perturb;
  for (std::size_t i = 0; i < fields; ++i) {
    EngineState state = base;
    std::size_t k = 0;
    ForEachField(state, [&](auto& field) {
      if (k++ != i) return;
      perturb(field);
    });
    EXPECT_NE(EngineStateFingerprint(state), digest) << "EngineState field " << i;
  }
}

TEST(SnapshotTest, RestoreThenCaptureKeepsDigestAndSize) {
  auto sim = SimulationBuilder(FullStateSpec()).Build();
  sim->RunUntil(7 * kHour);
  const SimStateSnapshot snap = sim->Snapshot();
  const SimStateSnapshot again = Simulation::ForkFrom(snap)->Snapshot();
  EXPECT_EQ(again.Fingerprint(), snap.Fingerprint());
  EXPECT_EQ(again.ApproxBytes(), snap.ApproxBytes());
  EXPECT_EQ(EngineStateFingerprint(sim->engine().CaptureState()), snap.Fingerprint());
}

TEST(SnapshotTest, RestoreClearsStateItsOptionsLeaveUnused) {
  // Restored without cooling and without the transient layer, the engine
  // holds neither loop nor rack state, as an engine run that way never had.
  auto sim = SimulationBuilder(FullStateSpec()).Build();
  sim->RunUntil(7 * kHour);
  EngineState state = sim->engine().CaptureState();
  ASSERT_FALSE(state.rack_temp_c.empty());
  state.thermal_event_pending = true;
  SystemConfig config = sim->engine().config();
  config.cooling.transient.enabled = false;
  EngineOptions options = sim->engine().options();
  options.enable_cooling = false;
  const AccountRegistry accounts;
  SchedulerCloneContext ctx;
  ctx.accounts = &accounts;
  ctx.grid = &options.grid;
  const auto engine = SimulationEngine::Restore(
      config, sim->engine().scheduler().Clone(ctx), options, std::move(state));
  const EngineState restored = engine->CaptureState();
  EXPECT_FALSE(restored.cooling.has_value());
  EXPECT_TRUE(restored.rack_temp_c.empty());
  EXPECT_TRUE(restored.rack_class_tripped.empty());
  EXPECT_EQ(restored.crac_supply_c, 0.0);
  EXPECT_FALSE(restored.thermal_event_pending);
}

TEST(SnapshotTest, DoubleForkFromOneSnapshotIsIndependent) {
  ScenarioSpec spec = BaseSpec(true);
  spec.grid.price_usd_per_kwh = GridSignal::Diurnal(0.08, 0.5, 1.4);
  auto source = SimulationBuilder(spec).Build();
  source->RunUntil(5 * kHour);
  const SimStateSnapshot snap = source->Snapshot();
  source.reset();

  // Run the first fork to completion BEFORE creating the second: if the
  // snapshot shared any mutable state (telemetry buffers, RNG-like scheduler
  // internals, heap arrays), the second fork would see the first's run.
  auto fork1 = Simulation::ForkFrom(snap);
  fork1->Run();
  auto fork2 = Simulation::ForkFrom(snap);
  fork2->Run();

  ExpectEquivalent(*fork1, *fork2);
  ExpectEquivalent(*Straight(spec), *fork2);
}

TEST(SnapshotTest, SnapshotObserversReportCaptureState) {
  ScenarioSpec spec = BaseSpec(false);
  auto source = SimulationBuilder(spec).Build();
  source->RunUntil(3 * kHour);
  const SimStateSnapshot snap = source->Snapshot();
  EXPECT_EQ(snap.captured_at(), source->engine().now());
  EXPECT_EQ(snap.sim_start(), source->sim_start());
  EXPECT_EQ(snap.sim_end(), source->sim_end());
  EXPECT_FALSE(snap.has_grid_basis());
  EXPECT_EQ(snap.spec().policy, "fcfs");
  EXPECT_TRUE(snap.spec().jobs_override.empty());  // workload lives in the state
}

// --- ForkWithGrid: the re-scaled-accounting path -----------------------------

ScenarioSpec GridSpec(bool event_calendar, double price_scale) {
  ScenarioSpec spec = BaseSpec(event_calendar);
  spec.grid.price_usd_per_kwh = GridSignal::Diurnal(0.08, 0.5, 1.4);
  spec.grid.price_usd_per_kwh.SetScale(price_scale);
  spec.grid.carbon_kg_per_kwh = GridSignal::Diurnal(0.4, 0.6, 1.3);
  spec.capture_grid_basis = true;
  return spec;
}

class ForkWithGridAB : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(TickAndEventCalendar, ForkWithGridAB, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "EventCalendar" : "TickLoop";
                         });

TEST_P(ForkWithGridAB, RescaledForkMatchesFullVariantRun) {
  // One trajectory at scale 1.0, forked to scale 2.0 with accounting
  // replayed, must be bit-identical — cost, CO2, and the recorded price
  // channel included — to simulating the 2.0 variant from scratch.
  const ScenarioSpec base = GridSpec(GetParam(), 1.0);
  auto shared = SimulationBuilder(base).Build();
  shared->Run();
  const SimStateSnapshot snap = shared->Snapshot();
  shared.reset();

  const ScenarioSpec variant = GridSpec(GetParam(), 2.0);
  auto fork = Simulation::ForkWithGrid(snap, variant.grid);
  ExpectEquivalent(*Straight(variant), *fork);
}

TEST_P(ForkWithGridAB, MidRunRescaledForkMatchesFullVariantRun) {
  // ForkWithGrid also works mid-run: the prefix is replayed from the basis,
  // the suffix accrues live under the new scale.
  const ScenarioSpec base = GridSpec(GetParam(), 1.0);
  auto source = SimulationBuilder(base).Build();
  source->RunUntil(9 * kHour);
  const SimStateSnapshot snap = source->Snapshot();

  const ScenarioSpec variant = GridSpec(GetParam(), 0.5);
  auto fork = Simulation::ForkWithGrid(snap, variant.grid);
  fork->Run();
  ExpectEquivalent(*Straight(variant), *fork);
}

TEST_P(ForkWithGridAB, NonTickMultipleWindowRescaleMatches) {
  // End-of-run snapshot with the clock past sim_end (window not a tick
  // multiple): the basis still covers every elapsed tick and the replay
  // must match a full variant run.
  ScenarioSpec base = GridSpec(GetParam(), 1.0);
  base.tick = 60;
  base.duration = 24 * kHour + 37;
  auto shared = SimulationBuilder(base).Build();
  shared->Run();
  const SimStateSnapshot snap = shared->Snapshot();

  ScenarioSpec variant = GridSpec(GetParam(), 2.0);
  variant.tick = base.tick;
  variant.duration = base.duration;
  auto fork = Simulation::ForkWithGrid(snap, variant.grid);
  ExpectEquivalent(*Straight(variant), *fork);
}

TEST(ForkWithGridTest, RejectsSnapshotWithoutBasis) {
  ScenarioSpec spec = GridSpec(true, 1.0);
  spec.capture_grid_basis = false;
  auto sim = SimulationBuilder(spec).Build();
  sim->Run();
  const SimStateSnapshot snap = sim->Snapshot();
  EXPECT_THROW(Simulation::ForkWithGrid(snap, spec.grid), std::invalid_argument);
}

TEST(ForkWithGridTest, RejectsTrajectoryChangingGrids) {
  const ScenarioSpec spec = GridSpec(true, 1.0);
  auto sim = SimulationBuilder(spec).Build();
  sim->Run();
  const SimStateSnapshot snap = sim->Snapshot();

  GridEnvironment with_dr = spec.grid;
  with_dr.dr_windows = {{6 * kHour, 8 * kHour, 1300.0}};
  EXPECT_THROW(Simulation::ForkWithGrid(snap, with_dr), std::invalid_argument);

  GridEnvironment no_carbon = spec.grid;
  no_carbon.carbon_kg_per_kwh = GridSignal();
  EXPECT_THROW(Simulation::ForkWithGrid(snap, no_carbon), std::invalid_argument);

  // An off-hour step boundary: not masked by the carbon signal's hourly
  // grid, so the boundary union — and therefore the event calendar — would
  // change.  (A price boundary that coincides with an existing carbon
  // boundary is fine: the union, which is what the engine batches against,
  // is unchanged.)
  GridEnvironment moved_boundaries = spec.grid;
  moved_boundaries.price_usd_per_kwh =
      GridSignal::Steps({0, 5 * kHour + 600}, {0.08, 0.12});
  EXPECT_THROW(Simulation::ForkWithGrid(snap, moved_boundaries),
               std::invalid_argument);
}

TEST(ForkWithGridTest, RejectsGridReactivePolicy) {
  ScenarioSpec spec = GridSpec(true, 1.0);
  spec.policy = "grid_aware";
  spec.grid.slack_s = 2 * kHour;
  auto sim = SimulationBuilder(spec).Build();
  sim->Run();
  const SimStateSnapshot snap = sim->Snapshot();
  // grid_aware holds jobs based on signal values: scaling could (in
  // principle) flip a comparison, so the fork must refuse.
  EXPECT_THROW(Simulation::ForkWithGrid(snap, spec.grid), std::invalid_argument);
}

}  // namespace
}  // namespace sraps
