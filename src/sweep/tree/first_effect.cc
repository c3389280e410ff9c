#include "sweep/tree/first_effect.h"

#include <algorithm>
#include <limits>

#include "core/simulation_builder.h"
#include "core/snapshot.h"
#include "grid/grid_environment.h"
#include "sched/policies.h"

namespace sraps {

bool PolicyIgnoresGridValues(const std::string& policy) {
  EnsureBuiltinComponents();
  if (!PolicyRegistry().Has(policy)) return false;
  return !PolicyRegistry().Get(policy).needs_grid;
}

bool SchedulerIgnoresGridValues(const std::string& scheduler) {
  return scheduler == "default" || scheduler == "experimental" ||
         scheduler == "scheduleflow" || scheduler == "fastsim";
}

std::vector<std::string> AxisValuesInPlay(const SweepSpec& spec,
                                          const std::string& key,
                                          const std::string& base_value) {
  for (const SweepAxis& axis : spec.axes) {
    if (axis.key == key) {
      std::vector<std::string> names;
      names.reserve(axis.values.size());
      for (const JsonValue& v : axis.values) {
        names.push_back(v.is_string() ? v.AsString() : v.Dump(0));
      }
      return names;
    }
  }
  return {base_value};
}

namespace {

bool IsGridScaleKey(const std::string& key) {
  return key == "grid.price.scale" || key == "grid.carbon.scale";
}

/// A positive finite scale keeps the signal a valid signal; anything else
/// would be rejected at Build and must not be treated as neutral.
bool IsValidScale(const JsonValue& v) {
  if (!v.is_number()) return false;
  const double d = v.AsDouble();
  return d > 0.0 && d < std::numeric_limits<double>::infinity();
}

// PatchableScheduler (core/snapshot.h) is deliberately narrower than
// SchedulerIgnoresGridValues: the external couplings carry cross-step state,
// so they share NEUTRAL prefixes but cannot be forked with a patched option.

/// True when `policy` is a registered built-in a schedule-swap fork can
/// start or land on: not replay (placements anchored to recorded
/// timestamps) and not power-state planning (acts on every tick's wall
/// power, before any queue fills).
bool SwappablePolicy(const std::string& policy) {
  EnsureBuiltinComponents();
  if (!PolicyRegistry().Has(policy)) return false;
  const PolicyDef& def = PolicyRegistry().Get(policy);
  return def.id != Policy::kReplay && !def.needs_power_states;
}

bool RegisteredBackfill(const std::string& name) {
  EnsureBuiltinComponents();
  return BackfillRegistry().Has(name);
}

/// Earliest window start across one swept schedule; kTrajectoryNeutral on an
/// empty schedule ("no windows": never diverges from the windowless shared
/// run), -1 on a malformed value.
SimTime EarliestWindowStart(const JsonValue& value) {
  if (!value.is_array()) return -1;
  SimTime earliest = kTrajectoryNeutral;
  for (const JsonValue& w : value.AsArray()) {
    try {
      earliest = std::min(earliest, DrWindow::FromJson(w).start);
    } catch (const std::exception&) {
      return -1;
    }
  }
  return earliest;
}

/// Whether the spec puts the transient-thermal layer in force: rack inlets
/// then carry first-order RC state from tick 0, which breaks the
/// "span-constant pure function of sampled heat" premise the kSupplyTemp
/// bound rests on.  Spec-level detection (the scenario's own transient block
/// or a config_override's) is sufficient: no built-in system factory ships
/// the layer enabled, so a named system cannot smuggle it past this check.
bool TransientThermalActive(const ScenarioSpec& base) {
  if (base.cooling_transient && base.cooling_transient->enabled) return true;
  return base.config_override && base.config_override->cooling.transient.enabled;
}

/// Whether thermal-trip throttling can ever engage under `base`: the
/// transient layer is active and a trip temperature is configured globally
/// or on any machine class.  Trip edges dilate runtimes, so axes whose
/// soundness argument assumes "inert before the bound" must demote.
bool TransientTripConfigured(const ScenarioSpec& base) {
  if (!TransientThermalActive(base)) return false;
  if (base.cooling_transient && base.cooling_transient->trip_inlet_c > 0.0) {
    return true;
  }
  if (base.config_override) {
    if (base.config_override->cooling.transient.trip_inlet_c > 0.0) return true;
    for (const MachineClassSpec& m : base.config_override->machines) {
      if (m.thermal_trip_c > 0.0) return true;
    }
  }
  for (const MachineClassSpec& m : base.machines) {
    if (m.thermal_trip_c > 0.0) return true;
  }
  return false;
}

/// First submit across the materialised workload, or kTrajectoryNeutral for
/// an empty one (nothing ever queues: any swap is inert).
SimTime FirstSubmit(const std::vector<Job>& jobs) {
  SimTime first = kTrajectoryNeutral;
  for (const Job& job : jobs) first = std::min(first, job.submit_time);
  return first;
}

/// Shared forkability context for one sweep: which policies/schedulers any
/// scenario can put in force.
struct SweepContext {
  bool all_ignore_grid = true;     ///< every policy+scheduler ignores signals
  bool all_swappable = true;       ///< every policy in play is swap-safe
  bool schedulers_patchable = true;  ///< every scheduler in play is built-in
  bool any_thermal = false;        ///< some policy in play scores placements
  bool all_power_state = true;     ///< every policy in play plans power states
};

SweepContext ContextOf(const SweepSpec& spec) {
  EnsureBuiltinComponents();
  SweepContext ctx;
  for (const std::string& p : AxisValuesInPlay(spec, "policy", spec.base.policy)) {
    if (!PolicyIgnoresGridValues(p)) ctx.all_ignore_grid = false;
    if (!SwappablePolicy(p)) ctx.all_swappable = false;
    const bool registered = PolicyRegistry().Has(p);
    if (registered && PolicyRegistry().Get(p).needs_thermal) {
      ctx.any_thermal = true;
    }
    if (!registered || !PolicyRegistry().Get(p).needs_power_states) {
      ctx.all_power_state = false;
    }
  }
  for (const std::string& s :
       AxisValuesInPlay(spec, "scheduler", spec.base.scheduler)) {
    if (!SchedulerIgnoresGridValues(s)) ctx.all_ignore_grid = false;
    if (!PatchableScheduler(s)) ctx.schedulers_patchable = false;
  }
  return ctx;
}

}  // namespace

const char* AxisClassName(AxisClass cls) {
  switch (cls) {
    case AxisClass::kNeutral:
      return "neutral";
    case AxisClass::kPowerCap:
      return "power_cap";
    case AxisClass::kDrWindows:
      return "dr_windows";
    case AxisClass::kFirstSchedule:
      return "first_schedule";
    case AxisClass::kSupplyTemp:
      return "supply_temp";
    case AxisClass::kImmediate:
      return "immediate";
  }
  return "immediate";
}

std::vector<AxisFirstEffect> ClassifySweepAxes(const SweepSpec& spec) {
  const SweepContext ctx = ContextOf(spec);
  // Recorded history channels depend on the patched option (throttle,
  // inlet peaks), so every ForkWithPatch class needs recording off.  The
  // accounting replay of kNeutral reproduces its channels exactly, so that
  // class keeps working with history on.
  // Likewise, when every policy in play plans node power states
  // (race_to_idle / pace_to_cap everywhere), ForkWithPatch refuses every
  // fork — its trajectory reads the live wall power and effective cap — so
  // no root could ever fork.  A mixed policy axis keeps the classes: the
  // swap-safe roots still fork, and the runner runs the power-state roots
  // one trajectory per bounded-value combination (PatchForkRefusal), the
  // same as roots under an external scheduler.
  const bool patchable = !spec.base.record_history && !ctx.all_power_state;

  std::vector<AxisFirstEffect> plan(spec.axes.size());
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const SweepAxis& axis = spec.axes[a];
    AxisFirstEffect& fe = plan[a];
    fe.axis = a;
    fe.cls = AxisClass::kImmediate;
    fe.bound = 0;

    if (IsGridScaleKey(axis.key)) {
      if (ctx.all_ignore_grid &&
          std::all_of(axis.values.begin(), axis.values.end(), IsValidScale)) {
        fe.cls = AxisClass::kNeutral;
        fe.bound = kTrajectoryNeutral;
      }
      continue;
    }
    if (axis.key == "power_cap_w") {
      const bool all_caps = std::all_of(
          axis.values.begin(), axis.values.end(), [](const JsonValue& v) {
            return v.is_number() && v.AsDouble() >= 0.0;
          });
      if (patchable && all_caps) {
        fe.cls = AxisClass::kPowerCap;
        double tightest = 0.0;
        for (const JsonValue& v : axis.values) {
          const double cap = v.AsDouble();
          if (cap > 0.0 && (tightest == 0.0 || cap < tightest)) tightest = cap;
        }
        fe.cap_threshold_w = tightest;
      }
      continue;
    }
    if (axis.key == "grid.dr_windows") {
      // A grid-reactive policy anywhere reads the boundary schedule the
      // patch changes; conservative, like the neutral-axis demotion.  With
      // thermal-trip throttling configured the window-start bound is not
      // honest either: a cap edge moves the heat trajectory, which can move
      // trip/clear edges through the hysteresis band — demote to immediate
      // (ForkWithPatch refuses the same combination).
      if (!patchable || !ctx.all_ignore_grid ||
          TransientTripConfigured(spec.base)) {
        continue;
      }
      SimTime earliest = kTrajectoryNeutral;
      bool ok = true;
      for (const JsonValue& v : axis.values) {
        const SimTime start = EarliestWindowStart(v);
        if (start < 0) {
          ok = false;
          break;
        }
        earliest = std::min(earliest, start);
      }
      if (ok) {
        fe.cls = AxisClass::kDrWindows;
        fe.bound = earliest;  // kTrajectoryNeutral when every schedule is empty
      }
      continue;
    }
    if (axis.key == "policy" || axis.key == "backfill" || axis.key == "scheduler") {
      if (!patchable || !ctx.all_swappable || !ctx.schedulers_patchable) continue;
      bool ok = true;
      for (const JsonValue& v : axis.values) {
        if (!v.is_string()) {
          ok = false;
          break;
        }
        const std::string name = v.AsString();
        if (axis.key == "policy") {
          ok = SwappablePolicy(name);
        } else if (axis.key == "backfill") {
          ok = RegisteredBackfill(name);
        } else {
          ok = PatchableScheduler(name);
        }
        if (!ok) break;
      }
      if (ok) fe.cls = AxisClass::kFirstSchedule;  // bound resolved per root
      continue;
    }
    if (axis.key == "cooling.supply_temp_c") {
      const bool all_numbers = std::all_of(
          axis.values.begin(), axis.values.end(),
          [](const JsonValue& v) { return v.is_number(); });
      // With the cooling loop coupled the setpoint acts from the first tick;
      // a scheduler-axis external coupling blocks ForkWithPatch.  With the
      // transient layer active the rack RC state is seeded from (and its
      // targets anchored at) the setpoint from tick 0, so the one-tick-lead
      // bound below is dishonest — demote to immediate.
      if (patchable && all_numbers && !spec.base.cooling &&
          ctx.schedulers_patchable && !TransientThermalActive(spec.base)) {
        fe.cls = AxisClass::kSupplyTemp;  // bound resolved per root
      }
      continue;
    }
    // synth.*, tick, window knobs, unknown keys: immediate.
  }
  return plan;
}

SimTime FirstEffectTime(const ScenarioSpec& base, const std::string& key,
                        const std::vector<JsonValue>& values) {
  if (IsGridScaleKey(key)) {
    const bool neutral =
        std::all_of(values.begin(), values.end(), IsValidScale) &&
        PolicyIgnoresGridValues(base.policy) &&
        SchedulerIgnoresGridValues(base.scheduler);
    return neutral ? kTrajectoryNeutral : 0;
  }
  if (key == "grid.dr_windows") {
    if (!PolicyIgnoresGridValues(base.policy)) return 0;
    // Trip throttling couples the cap to the heat trajectory: no claim.
    if (TransientTripConfigured(base)) return 0;
    SimTime earliest = kTrajectoryNeutral;
    for (const JsonValue& v : values) {
      const SimTime start = EarliestWindowStart(v);
      if (start < 0) return 0;
      earliest = std::min(earliest, start);
    }
    return earliest;  // kTrajectoryNeutral: every swept schedule is empty
  }
  if (key == "power_cap_w") {
    // Static answer only: a cap can bind on the very first tick.  The tree
    // runner's demand probe (SetPowerWatch on the shared trajectory) is what
    // turns this into the first demand-exceeds-cap step.
    return 0;
  }
  if (key == "policy" || key == "backfill" || key == "scheduler") {
    if (!PatchableScheduler(base.scheduler) || !SwappablePolicy(base.policy)) {
      return 0;
    }
    for (const JsonValue& v : values) {
      if (!v.is_string()) return 0;
      const std::string name = v.AsString();
      const bool ok = key == "policy"      ? SwappablePolicy(name)
                      : key == "backfill"  ? RegisteredBackfill(name)
                                           : PatchableScheduler(name);
      if (!ok) return 0;
    }
    if (base.jobs_override.empty()) return 0;  // workload not materialised
    return std::min(FirstSubmit(base.jobs_override), kTrajectoryNeutral);
  }
  if (key == "cooling.supply_temp_c") {
    if (base.cooling) return 0;
    // Transient rack state reads the setpoint from tick 0: no claim.
    if (TransientThermalActive(base)) return 0;
    EnsureBuiltinComponents();
    const bool thermal = PolicyRegistry().Has(base.policy) &&
                         PolicyRegistry().Get(base.policy).needs_thermal;
    // No thermal policy: the setpoint never steers the schedule.
    if (!thermal) return kTrajectoryNeutral;
    if (base.jobs_override.empty()) return 0;
    const SimTime first = FirstSubmit(base.jobs_override);
    if (first == kTrajectoryNeutral) return kTrajectoryNeutral;
    // One tick of lead so the fork's first integrated span republishes the
    // inlet temperatures the first allocation scores.
    return base.tick > 0 ? first - base.tick : 0;
  }
  return 0;
}

}  // namespace sraps
