// First-effect classification for sweep axes — the snapshot-tree runner's
// planning layer (tree_runner.h executes the plan).
//
// Every sweep scenario would re-simulate from t=0, even when many variants
// share an identical prefix: the same workload and schedule until the swept
// knob first matters.  This module classifies every axis into one of six
// classes, each with a conservative lower bound on the first simulated time
// at which a branch carrying one of the axis's values can diverge from a
// shared run carrying the axis's neutral value:
//
//   kNeutral       grid.price.scale / grid.carbon.scale under policies and
//                  schedulers that ignore signal values.  Never diverges;
//                  branches fork at sim_end with the accounting replayed
//                  (Simulation::ForkWithGrid).
//   kPowerCap      power_cap_w.  A cap first matters at the first step whose
//                  pre-cap demand exceeds it; below that the throttle is
//                  provably 1.0 and the uncapped shared run IS the capped
//                  run.  The bound is dynamic: the runner arms a demand
//                  watch (SimulationEngine::SetPowerWatch) with the tightest
//                  positive swept cap on a probe run and forks at the trip
//                  time — additionally clamped to every other tree axis's
//                  bound, because the probe only witnesses the shared
//                  (unforked) trajectory.
//   kDrWindows     grid.dr_windows.  A demand-response schedule is inert
//                  before its earliest window start; the shared run carries
//                  no windows and every branch patches its full schedule in
//                  at that bound (Simulation::ForkWithPatch remaps the
//                  boundary cursor).
//   kFirstSchedule policy / backfill / scheduler swaps within the stateless
//                  built-in family.  Until the first Schedule() invocation
//                  that sees a non-empty queue, every policy's trajectory is
//                  identical (the engine skips or early-returns on empty
//                  queues before the policy runs); the bound is the first
//                  job-submit time, clamped to sim start.  Resolved per root
//                  by the runner, which knows the resolved workload.
//   kSupplyTemp    cooling.supply_temp_c with the transient cooling loop NOT
//                  coupled and the transient-thermal layer
//                  (cooling.transient) NOT active.  The setpoint then
//                  reaches the trajectory only through thermal-placement
//                  scoring (inlet temperatures), so with a thermal policy in
//                  play the bound is one tick BEFORE the first scheduled
//                  allocation (the fork's first integrated span republishes
//                  inlets under the new supply); with no thermal policy in
//                  play the knob never steers the schedule and branches fork
//                  at sim_end.  With transient rack state the inlets are RC
//                  state seeded from the setpoint at tick 0, so the axis
//                  demotes to kImmediate (and kDrWindows demotes when
//                  thermal-trip throttling is configured: cap edges move the
//                  heat trajectory, hence trip edges).
//   kImmediate     everything else (synth.* workload knobs, tick, window
//                  knobs, unknown keys) and any axis whose values or context
//                  fail the forkability preconditions: first effect = sim
//                  start, no sharing — the runner groups these into tree
//                  roots and runs one shared trajectory per combination.
//
// Conservatism contract: a bound may be EARLIER than the true first effect
// (forking early is always sound — the fork replays the identical prefix),
// never later.  Per-axis tests pin "fork at the bound is bit-identical to a
// straight run; one tick later is not guaranteed" (tests/test_sweep_tree.cc).
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/json.h"
#include "sweep/sweep_spec.h"

namespace sraps {

/// Sentinel for "this value can never diverge the trajectory" (accounting-
/// only knobs).
inline constexpr SimTime kTrajectoryNeutral = std::numeric_limits<SimTime>::max();

/// True when `policy` (a PolicyRegistry name) is known NOT to read grid
/// signal values.  Unknown names count as reactive — conservative: an
/// unregistered policy would fail at Build anyway, and a plugin policy we
/// cannot introspect must not be assumed scale-invariant.
bool PolicyIgnoresGridValues(const std::string& policy);

/// True for schedulers known not to read grid signal *values* outside the
/// policy mechanism: the built-in scheduler (whose grid use is exactly the
/// registered policies, judged separately) and the bundled external
/// couplings (which never see the grid at all).  A plugin scheduler is NOT
/// assumed safe — it receives a grid pointer through its factory context
/// and could steer on prices, so grid scale axes stay immediate under it.
bool SchedulerIgnoresGridValues(const std::string& scheduler);

/// Every value of the `key` axis of `spec`, as strings — or `base_value`
/// when the sweep has no such axis.  The classifier's way of asking "which
/// policies/schedulers can this sweep put in force?".
std::vector<std::string> AxisValuesInPlay(const SweepSpec& spec,
                                          const std::string& key,
                                          const std::string& base_value);

enum class AxisClass {
  kNeutral,
  kPowerCap,
  kDrWindows,
  kFirstSchedule,
  kSupplyTemp,
  kImmediate,
};

/// Stable lower-case name ("neutral", "power_cap", ...) for stats/reports.
const char* AxisClassName(AxisClass cls);

/// One axis's classification.
struct AxisFirstEffect {
  std::size_t axis = 0;  ///< index into SweepSpec::axes
  AxisClass cls = AxisClass::kImmediate;
  /// Static component of the first-effect bound, where the class has one:
  /// kDrWindows = earliest window start across every swept schedule;
  /// others = 0 (resolved per root by the runner: kFirstSchedule/kSupplyTemp
  /// from the resolved workload's first submit, kPowerCap from the demand
  /// probe, kNeutral/inert-kSupplyTemp pinned to sim_end).
  SimTime bound = 0;
  /// kPowerCap: the tightest positive swept cap — the demand-watch
  /// threshold.  0 when every swept cap is 0 (uncapped: never diverges).
  double cap_threshold_w = 0.0;
};

/// Classifies every axis of `spec`, applying the cross-axis demotions that
/// keep forking sound (grid-reactive policies anywhere demote kNeutral and
/// kDrWindows; record_history demotes every ForkWithPatch class; a
/// non-built-in scheduler in play demotes everything but kNeutral, which has
/// its own whitelist).  Result is indexed like spec.axes.
std::vector<AxisFirstEffect> ClassifySweepAxes(const SweepSpec& spec);

/// First-effect time of a whole axis: a conservative lower
/// bound on the first simulated time at which running `base` patched with
/// ANY of `values` on `key` can differ from running `base` with the axis's
/// shared-trajectory value — kTrajectoryNeutral when it provably never can.
/// Purely static: kPowerCap axes answer 0 here (the runner's demand probe is
/// what tightens them), and the schedule-bound classes answer from
/// base.jobs_override when present, 0 (sim start, i.e. "no claim") when the
/// workload is not materialised on the spec.
SimTime FirstEffectTime(const ScenarioSpec& base, const std::string& key,
                        const std::vector<JsonValue>& values);

}  // namespace sraps
