#include "core/snapshot.h"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/simulation.h"
#include "core/simulation_builder.h"
#include "sched/policies.h"
#include "sched/scheduler.h"
#include "sched/scheduler_registry.h"

namespace sraps {
namespace {

/// Incremental FNV-1a (64-bit) over raw bit patterns: doubles hash by their
/// exact bits, so two states fingerprint equal iff the hashed fields are
/// bit-identical — the same discipline as SimulationStats::Fingerprint.
class Fnv64 {
 public:
  void Bytes(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof v); }
  void I64(std::int64_t v) { Bytes(&v, sizeof v); }
  void D(double v) { Bytes(&v, sizeof v); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::size_t TraceBytes(const TraceSeries& t) {
  return t.offsets().size() * sizeof(SimDuration) + t.values().size() * sizeof(double);
}

bool SameDrWindows(const std::vector<DrWindow>& a, const std::vector<DrWindow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].start != b[i].start || a[i].end != b[i].end ||
        a[i].cap_w != b[i].cap_w) {
      return false;
    }
  }
  return true;
}

/// Structured rejection string shared by every ForkWithGrid guard:
///   ForkWithGrid rejected [guard=<which> key=<offending spec key>]: <how to fix>
/// The bracketed fields are machine-greppable (the scenario service surfaces
/// these verbatim as HTTP 400 bodies), the tail says what the caller must
/// change.  Tests pin both parts (tests/test_serve.cc).
std::string GuardError(const std::string& guard, const std::string& key,
                       const std::string& detail) {
  return "ForkWithGrid rejected [guard=" + guard + " key=" + key + "]: " + detail;
}

/// ForkWithGrid's compatibility contract: the replacement grid may change
/// signal *values* (scale, step levels) but nothing that can alter the
/// trajectory — signal presence (which channels/integrations exist), boundary
/// times (which ticks are calendar events), DR windows (the dynamic cap), or
/// slack.  Violations throw a GuardError naming the guard and offending key.
void RequireGridCompatible(const GridEnvironment& have, const GridEnvironment& want,
                           SimTime sim_start, SimTime sim_end) {
  if (have.price_usd_per_kwh.empty() != want.price_usd_per_kwh.empty()) {
    throw std::invalid_argument(GuardError(
        "signal_presence", "grid.price",
        have.price_usd_per_kwh.empty()
            ? "the query adds a price signal the snapshot was run without; "
              "adding a signal changes which history channels and integrations "
              "exist — run the variant from scratch"
            : "the query drops the snapshot's price signal; removing a signal "
              "changes which history channels and integrations exist — run the "
              "variant from scratch"));
  }
  if (have.carbon_kg_per_kwh.empty() != want.carbon_kg_per_kwh.empty()) {
    throw std::invalid_argument(GuardError(
        "signal_presence", "grid.carbon",
        have.carbon_kg_per_kwh.empty()
            ? "the query adds a carbon signal the snapshot was run without; "
              "run the variant from scratch"
            : "the query drops the snapshot's carbon signal; run the variant "
              "from scratch"));
  }
  if (!SameDrWindows(have.dr_windows, want.dr_windows)) {
    throw std::invalid_argument(GuardError(
        "dr_windows", "grid.dr_windows",
        "demand-response windows differ from the snapshot's (" +
            std::to_string(want.dr_windows.size()) + " vs " +
            std::to_string(have.dr_windows.size()) +
            " windows, or an edge/cap changed); DR caps change the trajectory, "
            "not just the accounting — run the variant from scratch"));
  }
  if (have.slack_s != want.slack_s) {
    throw std::invalid_argument(
        GuardError("slack", "grid.slack_s",
                   "grid slack differs from the snapshot (" +
                       std::to_string(want.slack_s) + " vs " +
                       std::to_string(have.slack_s) +
                       "); slack steers the grid_aware policy family, so it is "
                       "part of the trajectory"));
  }
  if (have.BoundariesIn(sim_start, sim_end) != want.BoundariesIn(sim_start, sim_end)) {
    throw std::invalid_argument(GuardError(
        "boundaries", "grid.price/grid.carbon",
        "signal boundary times differ from the snapshot's (the event calendar "
        "batched spans against the original boundaries); only signal values — "
        "e.g. the \"scale\" field — may change"));
  }
}

}  // namespace

void Simulation::RunUntil(SimTime t) {
  const auto t0 = std::chrono::steady_clock::now();
  engine_->RunUntil(t);
  const auto t1 = std::chrono::steady_clock::now();
  wall_seconds_ += std::chrono::duration<double>(t1 - t0).count();
}

void Simulation::RunUntilExact(SimTime t) {
  const auto t0 = std::chrono::steady_clock::now();
  engine_->RunUntilExact(t);
  const auto t1 = std::chrono::steady_clock::now();
  wall_seconds_ += std::chrono::duration<double>(t1 - t0).count();
}

SimStateSnapshot Simulation::Snapshot() const {
  SimStateSnapshot snap;
  snap.spec_ = options_;
  snap.config_ = config_;
  snap.policy_accounts_ = policy_accounts_;
  snap.sim_start_ = sim_start_;
  snap.sim_end_ = sim_end_;
  snap.engine_options_ = engine_->options();
  snap.state_ = engine_->CaptureState();
  // The clone must not dangle into this simulation: rebind it to the
  // snapshot's own accounts/grid copies.
  SchedulerCloneContext ctx;
  ctx.accounts = &snap.policy_accounts_;
  ctx.grid = &snap.spec_.grid;
  const Scheduler& sched = engine_->scheduler();
  snap.scheduler_ = sched.Clone(ctx);
  if (!snap.scheduler_) {
    throw std::runtime_error("Simulation::Snapshot: scheduler '" + sched.name() +
                             "' does not support cloning; override "
                             "Scheduler::Clone to make it snapshottable");
  }
  return snap;
}

std::unique_ptr<Simulation> Simulation::Fork(const SimStateSnapshot& snap,
                                             const GridEnvironment* grid) {
  std::unique_ptr<Simulation> sim(new Simulation());
  sim->options_ = snap.spec_;
  sim->config_ = snap.config_;
  sim->policy_accounts_ = snap.policy_accounts_;
  sim->sim_start_ = snap.sim_start_;
  sim->sim_end_ = snap.sim_end_;
  EngineOptions eo = snap.engine_options_;
  if (grid) {
    eo.grid = *grid;
    sim->options_.grid = *grid;
  }
  SchedulerCloneContext ctx;
  ctx.accounts = &sim->policy_accounts_;
  ctx.grid = &sim->options_.grid;
  std::unique_ptr<Scheduler> sched = snap.scheduler_->Clone(ctx);
  if (!sched) {
    throw std::runtime_error("Simulation::ForkFrom: snapshot scheduler '" +
                             snap.scheduler_->name() + "' refused to clone");
  }
  // A fresh deep copy per fork: forking twice from one snapshot yields two
  // fully independent simulations.
  EngineState state = snap.state_;
  sim->engine_ = SimulationEngine::Restore(sim->config_, std::move(sched),
                                           std::move(eo), std::move(state));
  return sim;
}

std::uint64_t SimStateSnapshot::Fingerprint() const {
  return EngineStateFingerprint(state_);
}

std::size_t SimStateSnapshot::ApproxBytes() const {
  return sizeof(SimStateSnapshot) + EngineStateBytes(state_);
}

std::uint64_t EngineStateFingerprint(const EngineState& s) {
  Fnv64 h;
  h.I64(s.now);
  h.U64(s.events_this_tick ? 1 : 0);
  h.U64(s.next_submit);
  h.U64(s.next_outage_begin);
  h.U64(s.next_outage_end);
  h.U64(s.next_grid_event);
  h.U64(s.counters.submitted);
  h.U64(s.counters.started);
  h.U64(s.counters.completed);
  h.U64(s.counters.dismissed);
  h.U64(s.counters.prepopulated);
  h.U64(s.counters.scheduler_invocations);
  h.U64(s.counters.scheduler_skips);
  h.U64(s.counters.calendar_steps);
  h.U64(s.counters.batched_ticks);
  h.U64(s.counters.grid_events);
  h.U64(s.counters.power_plan_invocations);
  h.U64(s.counters.pstate_changes);
  h.U64(s.counters.nodes_slept);
  h.U64(s.counters.nodes_woken);
  h.U64(s.counters.thermal_trips);
  h.U64(s.counters.thermal_clears);
  h.U64(s.queue.size());
  for (const JobQueue::Handle handle : s.queue.handles()) h.U64(handle);
  h.U64(s.running.size());
  for (const JobQueue::Handle handle : s.running) h.U64(handle);
  // The heap array in storage order: pop ties are part of the state.
  h.U64(s.completions.size());
  for (const auto& [end, handle] : s.completions) {
    h.I64(end);
    h.U64(handle);
  }
  h.U64(s.jobs.size());
  for (const Job& job : s.jobs) {
    h.U64(static_cast<std::uint64_t>(job.state));
    h.I64(job.start);
    h.I64(job.end);
    h.U64(job.assigned_nodes.size());
    for (const int node : job.assigned_nodes) h.I64(node);
  }
  for (const double e : s.job_energy_j) h.D(e);
  h.D(s.grid_cost_usd);
  h.D(s.grid_co2_kg);
  h.U64(s.stats.Fingerprint());
  h.U64(s.stats.records().size());
  if (s.cooling) h.D(s.cooling->loop_temp_c());
  if (s.multi_cooling) {
    h.D(s.multi_cooling->facility().loop_temp_c());
    h.U64(s.multi_cooling->cdu_states().size());
    for (const CduState& cdu : s.multi_cooling->cdu_states()) {
      h.D(cdu.return_temp_c);
      h.D(cdu.heat_w);
    }
  }
  h.U64(s.node_inlet_c.size());
  for (const double t : s.node_inlet_c) h.D(t);
  h.D(s.thermal_leak_j);
  h.D(s.peak_inlet_c);
  // Transient-thermal state: rack RC temperatures, the CRAC supply, and the
  // per-(rack, class) trip flags are trajectory state like the loop temps.
  h.U64(s.rack_temp_c.size());
  for (const double t : s.rack_temp_c) h.D(t);
  h.D(s.crac_supply_c);
  h.U64(s.rack_class_tripped.size());
  if (!s.rack_class_tripped.empty()) {
    h.Bytes(s.rack_class_tripped.data(), s.rack_class_tripped.size());
  }
  h.U64(s.thermal_event_pending ? 1 : 0);
  h.U64(s.tick_wall_kwh.size());
  if (!s.tick_wall_kwh.empty()) h.D(s.tick_wall_kwh.back());
  // Per-node power state: rungs and modes are dense per-node bytes, wake
  // events a heap array (storage order, like completions).
  h.U64(s.node_pstate.size());
  if (!s.node_pstate.empty()) h.Bytes(s.node_pstate.data(), s.node_pstate.size());
  h.U64(s.node_mode.size());
  for (const NodePowerMode m : s.node_mode) h.U64(static_cast<std::uint64_t>(m));
  h.U64(s.wake_events.size());
  for (const auto& [at, node] : s.wake_events) {
    h.I64(at);
    h.I64(node);
  }
  for (const double e : s.class_energy_j) h.D(e);
  h.D(s.last_wall_power_w);
  h.D(s.last_busy_power_w);
  h.U64(s.power_event_pending ? 1 : 0);
  // Telemetry: sizes + tail sample per channel, not the full arrays — the
  // job/stats/heap fields above already pin the trajectory, so O(channels)
  // here keeps Fingerprint cheap on history-heavy runs.
  const std::vector<std::string> channels = s.recorder.ChannelNames();
  h.U64(channels.size());
  for (const std::string& name : channels) {
    const Channel& ch = s.recorder.Get(name);
    h.Str(name);
    h.U64(ch.times.size());
    if (!ch.times.empty()) {
      h.I64(ch.times.back());
      h.D(ch.values.back());
    }
  }
  return h.hash();
}

std::size_t EngineStateBytes(const EngineState& s) {
  std::size_t bytes = sizeof(EngineState);
  for (const Job& job : s.jobs) {
    bytes += sizeof(Job);
    bytes += job.name.size() + job.user.size() + job.account.size();
    bytes += TraceBytes(job.cpu_util) + TraceBytes(job.gpu_util) +
             TraceBytes(job.node_power_w);
    bytes += (job.recorded_nodes.size() + job.assigned_nodes.size()) * sizeof(int);
  }
  bytes += s.queue.size() * sizeof(JobQueue::Handle);
  bytes += s.submit_order.size() * sizeof(JobQueue::Handle);
  bytes += s.running.size() * sizeof(JobQueue::Handle);
  bytes += s.completions.size() * sizeof(std::pair<SimTime, JobQueue::Handle>);
  bytes += s.job_energy_j.size() * sizeof(double);
  bytes += s.tick_wall_kwh.size() * sizeof(double);
  bytes += s.node_pstate.size() * sizeof(std::uint8_t);
  bytes += s.node_mode.size() * sizeof(NodePowerMode);
  bytes += s.wake_events.size() * sizeof(std::pair<SimTime, int>);
  bytes += s.class_energy_j.size() * sizeof(double);
  bytes += s.node_inlet_c.size() * sizeof(double);
  if (s.multi_cooling) {
    bytes += sizeof(MultiCduCoolingModel) +
             s.multi_cooling->cdu_states().size() * sizeof(CduState);
  }
  bytes += s.rack_temp_c.size() * sizeof(double);
  bytes += s.rack_class_tripped.size() * sizeof(std::uint8_t);
  if (s.rm) bytes += static_cast<std::size_t>(s.rm->total_nodes()) * 2;
  for (const JobRecord& rec : s.stats.records()) {
    bytes += sizeof(JobRecord) + rec.account.size() + rec.user.size();
  }
  for (const std::string& name : s.recorder.ChannelNames()) {
    const Channel& ch = s.recorder.Get(name);
    bytes += name.size() + ch.times.size() * sizeof(SimTime) +
             ch.values.size() * sizeof(double);
  }
  return bytes;
}

std::unique_ptr<Simulation> Simulation::ForkFrom(const SimStateSnapshot& snap) {
  return Fork(snap, nullptr);
}

namespace {

/// ForkWithPatch's rejection string, same shape as the ForkWithGrid guards so
/// callers can grep one format:
///   ForkWithPatch rejected [guard=<which> key=<key>]: <how to fix>
std::string PatchGuardError(const std::string& guard, const std::string& key,
                            const std::string& detail) {
  return "ForkWithPatch rejected [guard=" + guard + " key=" + key + "]: " + detail;
}

/// How to get past the PatchForkRefusal `guard` that refuses every patch of
/// a run under `base`.
std::string RefusalDetail(const std::string& guard, const ScenarioSpec& base) {
  if (guard == "record_history") {
    return "recorded history channels depend on the patched options (throttle, "
           "max_inlet), so the captured prefix cannot match a straight run's; "
           "run with record_history = false or run the variant from scratch";
  }
  if (guard == "scheduler") {
    return "scheduler '" + base.scheduler +
           "' is an external coupling whose state may depend on the patched "
           "option; only the built-in family (default/experimental) forks";
  }
  return "policy '" + base.policy +
         "' plans node power states against the live wall power and the "
         "effective cap, so its trajectory is not invariant under the "
         "patch; run the variant from scratch";
}

bool IsSchedulerSwapKey(const std::string& key) {
  return key == "policy" || key == "backfill" || key == "scheduler";
}

/// Whether the merged config can ever throttle a node thermally: the
/// transient layer is on and some trip temperature (global or per-class) is
/// configured.  Trip edges dilate runtimes, so any patch that can move the
/// heat trajectory moves the schedule too.
bool TransientTripConfigured(const SystemConfig& config) {
  if (!config.cooling.transient.enabled) return false;
  if (config.cooling.transient.trip_inlet_c > 0.0) return true;
  for (const MachineClassSpec& m : config.machines) {
    if (m.thermal_trip_c > 0.0) return true;
  }
  return false;
}

}  // namespace

bool PatchableScheduler(const std::string& name) {
  return name == "default" || name == "experimental";
}

const char* PatchForkRefusal(const ScenarioSpec& spec) {
  if (spec.record_history) return "record_history";
  if (!PatchableScheduler(spec.scheduler)) return "scheduler";
  EnsureBuiltinComponents();
  if (PolicyRegistry().Has(spec.policy) &&
      PolicyRegistry().Get(spec.policy).needs_power_states) {
    return "power_state_policy";
  }
  return nullptr;
}

std::unique_ptr<Simulation> Simulation::ForkWithPatch(const SimStateSnapshot& snap,
                                                      const std::string& key,
                                                      const JsonValue& value) {
  EnsureBuiltinComponents();
  const ScenarioSpec& base = snap.spec();
  if (const char* guard = PatchForkRefusal(base)) {
    throw std::invalid_argument(PatchGuardError(guard, key, RefusalDetail(guard, base)));
  }
  const PolicyDef& base_policy = PolicyRegistry().Get(base.policy);

  ScenarioSpec patched = base;
  ApplyScenarioKey(patched, key, value);  // strict parse; throws on bad input
  // The same value-level validation a from-scratch Build would run, so a
  // branch the plain path rejects (negative cap, malformed window, ...)
  // throws here too and the sweep tree falls back to plain runs — which
  // reproduce the plain path's failure rows exactly.
  ValidateScenarioSpec(patched);

  std::unique_ptr<Simulation> sim(new Simulation());
  sim->options_ = patched;
  sim->config_ = snap.config_;
  sim->policy_accounts_ = snap.policy_accounts_;
  sim->sim_start_ = snap.sim_start_;
  sim->sim_end_ = snap.sim_end_;
  EngineOptions eo = snap.engine_options_;
  EngineState state = snap.state_;

  if (key == "power_cap_w") {
    // Sound while pre-cap demand never exceeded the new cap (the caller's
    // first-effect bound): the throttle below the bound is provably 1.0
    // either way, so the shared uncapped prefix is the capped prefix.
    eo.power_cap_w = patched.power_cap_w;
  } else if (key == "grid.dr_windows") {
    if (base_policy.needs_grid) {
      throw std::invalid_argument(PatchGuardError(
          "grid_reactive_policy", key,
          "policy '" + base.policy +
              "' schedules against grid boundaries, which the patched windows "
              "change; run the variant from scratch"));
    }
    if (TransientTripConfigured(snap.config_)) {
      throw std::invalid_argument(PatchGuardError(
          "transient_thermal", key,
          "thermal-trip throttling is configured: a DR cap edge moves the "
          "heat trajectory, which can move trip/clear edges through the "
          "hysteresis band, so the window start is not a sound first-effect "
          "bound; run the variant from scratch"));
    }
    for (const DrWindow& w : patched.grid.dr_windows) {
      if (w.start < snap.captured_at()) {
        throw std::invalid_argument(PatchGuardError(
            "window_start", key,
            "patched window starts at " + std::to_string(w.start) +
                ", before the snapshot time " + std::to_string(snap.captured_at()) +
                "; a window already in force changes the captured prefix — "
                "snapshot earlier or run the variant from scratch"));
      }
      // Same check the from-scratch engine applies, so a branch the plain
      // path rejects fails here too (the sweep tree then falls back).
      RequireWindowIntersects("SimulationEngine: demand-response window", w.start,
                              w.end, eo.sim_start, eo.sim_end);
    }
    // Rebuild the boundary schedule under the patched windows and remap the
    // consumed-boundary cursor.  Every boundary the prefix consumed is <= M
    // (the last consumed time); every patched window edge starts at or after
    // the snapshot, hence after every consumed boundary, so counting new
    // boundaries <= M reproduces the straight run's cursor exactly.
    const std::vector<SimTime> old_events =
        snap.engine_options_.grid.BoundariesIn(eo.sim_start, eo.sim_end);
    if (state.next_grid_event > old_events.size()) {
      throw std::logic_error("ForkWithPatch: snapshot grid cursor outside its "
                             "own boundary schedule");
    }
    eo.grid = patched.grid;
    if (state.next_grid_event > 0) {
      const SimTime last_consumed = old_events[state.next_grid_event - 1];
      const std::vector<SimTime> new_events =
          patched.grid.BoundariesIn(eo.sim_start, eo.sim_end);
      std::size_t cursor = 0;
      while (cursor < new_events.size() && new_events[cursor] <= last_consumed) {
        ++cursor;
      }
      state.next_grid_event = cursor;
    }
  } else if (key == "cooling.supply_temp_c") {
    if (snap.config_.cooling.transient.enabled) {
      throw std::invalid_argument(PatchGuardError(
          "transient_thermal", key,
          "rack inlets carry first-order thermal state seeded from (and "
          "relaxing toward targets anchored at) the supply setpoint from tick "
          "0, so the patch changes the trajectory immediately; run the "
          "variant from scratch"));
    }
    if (base.cooling) {
      throw std::invalid_argument(PatchGuardError(
          "cooling_coupled", key,
          "the cooling loop reads the supply setpoint from the first tick, so "
          "the patch changes the trajectory immediately; run the variant from "
          "scratch"));
    }
    if (patched.cooling_supply_temp_c) {
      sim->config_.cooling.supply_temp_c = *patched.cooling_supply_temp_c;
    }
    // Mirror BuildInto's merged-cooling validation so a setpoint the plain
    // path rejects fails the fork too (the sweep tree then falls back).
    if (sim->config_.cooling.topology.enabled()) {
      ValidateCoolingSpec(sim->config_.cooling, sim->config_.TotalNodes(),
                          "ScenarioSpec '" + patched.name + "'");
    }
    // The resumed engine's next integrated span recomputes and republishes
    // the inlet temperatures under the new supply, so a snapshot at least
    // one tick before the next scored allocation is schedule-equivalent to a
    // straight run (the inlet *differences* the policies score are
    // supply-independent by the linear recirculation model).
  } else if (IsSchedulerSwapKey(key)) {
    if (!PatchableScheduler(patched.scheduler)) {
      throw std::invalid_argument(PatchGuardError(
          "scheduler", key,
          "scheduler '" + patched.scheduler +
              "' is an external coupling; only the built-in family "
              "(default/experimental) forks"));
    }
    const PolicyDef& new_policy = PolicyRegistry().Get(patched.policy);
    if (new_policy.needs_power_states) {
      throw std::invalid_argument(PatchGuardError(
          "power_state_policy", key,
          "policy '" + patched.policy +
              "' manages node power states from the first tick; run the "
              "variant from scratch"));
    }
    if (base_policy.id == Policy::kReplay || new_policy.id == Policy::kReplay) {
      throw std::invalid_argument(PatchGuardError(
          "replay_policy", key,
          "replay anchors placements to recorded timestamps, so a mid-run "
          "scheduler swap is not equivalent to a straight run; run the "
          "variant from scratch"));
    }
    // Mirror the builder's policy prerequisites so a branch the plain path
    // rejects at Build() fails here too instead of silently diverging.
    if (!patched.backfill.empty()) BackfillRegistry().Get(patched.backfill);
    if (new_policy.needs_accounts && patched.accounts_json.empty()) {
      throw std::invalid_argument(PatchGuardError(
          "policy_prereq", key,
          "policy '" + patched.policy + "' needs an accounts_json snapshot"));
    }
    if (new_policy.needs_grid && !patched.grid.HasSignals()) {
      throw std::invalid_argument(PatchGuardError(
          "policy_prereq", key,
          "policy '" + patched.policy + "' needs a grid signal"));
    }
    if (new_policy.needs_thermal && !sim->config_.cooling.topology.enabled()) {
      throw std::invalid_argument(PatchGuardError(
          "policy_prereq", key,
          "policy '" + patched.policy + "' needs a thermal topology"));
    }
  } else {
    throw std::invalid_argument(PatchGuardError(
        "unsupported_key", key,
        "only power_cap_w, grid.dr_windows, cooling.supply_temp_c, policy, "
        "backfill, and scheduler support first-effect forking; run the "
        "variant from scratch"));
  }

  std::unique_ptr<Scheduler> sched;
  if (IsSchedulerSwapKey(key)) {
    // A fresh build, exactly as SimulationBuilder would: the built-in family
    // is stateless, and before the first Schedule() invocation (the caller's
    // bound) it has observed no callbacks, so fresh == cloned-with-history.
    SchedulerFactoryContext fctx;
    fctx.config = &sim->config_;
    fctx.policy = patched.policy;
    fctx.backfill = patched.backfill;
    fctx.accounts = &sim->policy_accounts_;
    fctx.grid = &sim->options_.grid;
    sched = SchedulerRegistry().Get(patched.scheduler)(fctx);
  } else {
    SchedulerCloneContext cctx;
    cctx.accounts = &sim->policy_accounts_;
    cctx.grid = &sim->options_.grid;
    sched = snap.scheduler_->Clone(cctx);
    if (!sched) {
      throw std::runtime_error("Simulation::ForkWithPatch: snapshot scheduler '" +
                               snap.scheduler_->name() + "' refused to clone");
    }
  }
  sim->engine_ = SimulationEngine::Restore(sim->config_, std::move(sched),
                                           std::move(eo), std::move(state));
  return sim;
}

std::unique_ptr<Simulation> Simulation::ForkWithGrid(const SimStateSnapshot& snap,
                                                     GridEnvironment grid) {
  if (!snap.has_grid_basis()) {
    throw std::invalid_argument(
        GuardError("grid_basis", "capture_grid_basis",
                   "the snapshot carries no per-tick energy basis; run the "
                   "source with capture_grid_basis = true"));
  }
  EnsureBuiltinComponents();
  if (PolicyRegistry().Get(snap.spec().policy).needs_grid) {
    throw std::invalid_argument(
        GuardError("grid_reactive_policy", "policy",
                   "policy '" + snap.spec().policy +
                       "' reacts to grid signal values, so its trajectory is "
                       "not invariant under re-scaling; run the variant from "
                       "scratch"));
  }
  RequireGridCompatible(snap.spec().grid, grid, snap.sim_start(), snap.sim_end());
  std::unique_ptr<Simulation> sim = Fork(snap, &grid);
  sim->engine_->ReplayGridAccounting();
  return sim;
}

}  // namespace sraps
