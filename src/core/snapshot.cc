#include "core/snapshot.h"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

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

// --- EngineState field rules ---------------------------------------------
// One HashField and one FieldBytes overload per EngineState field type, walked
// by ForEachField.  Scalars hash by their bits and live inside
// sizeof(EngineState); a field of any other type without its own overload
// fails the static_asserts below.  FieldBytes estimates what a field holds
// beyond sizeof(EngineState).

template <typename T>
void HashField(Fnv64& h, const T& v) {
  static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                "an EngineState field type needs its own HashField rule");
  h.Bytes(&v, sizeof v);
}
template <typename T>
std::size_t FieldBytes(const T&) {
  static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                "an EngineState field type needs its own FieldBytes rule");
  return 0;
}
template <typename A, typename B>
void HashField(Fnv64& h, const std::pair<A, B>& p) {
  HashField(h, p.first);
  HashField(h, p.second);
}
template <typename T>
void HashField(Fnv64& h, const std::vector<T>& v) {
  h.U64(v.size());
  for (const T& x : v) HashField(h, x);
}
template <typename T>
std::size_t FieldBytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

void HashField(Fnv64& h, const ResourceManager& rm) {
  h.U64(static_cast<std::uint64_t>(rm.total_nodes()));
  for (int n = 0; n < rm.total_nodes(); ++n) {
    h.U64((rm.IsFree(n) ? 1u : 0u) | (rm.IsDown(n) ? 2u : 0u) |
          (rm.IsPendingDown(n) ? 4u : 0u) | (rm.IsAsleep(n) ? 8u : 0u));
  }
}
std::size_t FieldBytes(const ResourceManager& rm) {
  return static_cast<std::size_t>(rm.total_nodes()) * 2;
}

void HashField(Fnv64& h, const MultiCduCoolingModel& m) {
  h.D(m.facility().loop_temp_c());
  h.U64(m.cdu_states().size());
  for (const CduState& cdu : m.cdu_states()) {
    h.D(cdu.return_temp_c);
    h.D(cdu.heat_w);
  }
}
std::size_t FieldBytes(const MultiCduCoolingModel& m) {
  return sizeof(MultiCduCoolingModel) + m.cdu_states().size() * sizeof(CduState);
}

template <typename T>
void HashField(Fnv64& h, const std::optional<T>& o) {
  h.U64(o.has_value() ? 1 : 0);
  if (o) HashField(h, *o);
}
template <typename T>
std::size_t FieldBytes(const std::optional<T>& o) {
  return o ? FieldBytes(*o) : 0;
}

/// Jobs hash by their realised schedule (the inputs never change in a run)
/// and size by their strings, traces and node lists.
void HashField(Fnv64& h, const std::vector<Job>& jobs) {
  h.U64(jobs.size());
  for (const Job& job : jobs) {
    HashField(h, job.state);
    h.I64(job.start);
    h.I64(job.end);
    HashField(h, job.assigned_nodes);
  }
}
std::size_t TraceBytes(const TraceSeries& t) {
  return t.offsets().size() * sizeof(SimDuration) + t.values().size() * sizeof(double);
}
std::size_t FieldBytes(const std::vector<Job>& jobs) {
  std::size_t bytes = 0;
  for (const Job& job : jobs) {
    bytes += sizeof(Job) + job.name.size() + job.user.size() + job.account.size();
    bytes += TraceBytes(job.cpu_util) + TraceBytes(job.gpu_util) +
             TraceBytes(job.node_power_w);
    bytes += (job.recorded_nodes.size() + job.assigned_nodes.size()) * sizeof(int);
  }
  return bytes;
}

void HashField(Fnv64& h, const JobQueue& q) { HashField(h, q.handles()); }
std::size_t FieldBytes(const JobQueue& q) { return FieldBytes(q.handles()); }

/// Completion records hash through their own order-sensitive digest.
void HashField(Fnv64& h, const SimulationStats& stats) {
  h.U64(stats.Fingerprint());
  h.U64(stats.records().size());
}
std::size_t FieldBytes(const SimulationStats& stats) {
  std::size_t bytes = 0;
  for (const JobRecord& rec : stats.records()) {
    bytes += sizeof(JobRecord) + rec.account.size() + rec.user.size();
  }
  return bytes;
}

/// Telemetry hashes names, sizes and the tail sample per channel, not the
/// full arrays: the job, stats and heap fields already pin the trajectory,
/// so O(channels) here keeps the digest cheap on history-heavy runs.
void HashField(Fnv64& h, const TimeSeriesRecorder& recorder) {
  const std::vector<std::string> channels = recorder.ChannelNames();
  h.U64(channels.size());
  for (const std::string& name : channels) {
    const Channel& ch = recorder.Get(name);
    h.Str(name);
    h.U64(ch.times.size());
    if (!ch.times.empty()) {
      h.I64(ch.times.back());
      h.D(ch.values.back());
    }
  }
}
std::size_t FieldBytes(const TimeSeriesRecorder& recorder) {
  std::size_t bytes = 0;
  for (const std::string& name : recorder.ChannelNames()) {
    const Channel& ch = recorder.Get(name);
    bytes += name.size() + ch.times.size() * sizeof(SimTime) +
             ch.values.size() * sizeof(double);
  }
  return bytes;
}

void HashField(Fnv64& h, const AccountRegistry& accounts) {
  const std::vector<std::string> names = accounts.AccountNames();
  h.U64(names.size());
  for (const std::string& name : names) {
    const AccountStats& a = accounts.Get(name);
    h.Str(name);
    h.I64(a.jobs_completed);
    for (const double v : {a.node_seconds, a.energy_j, a.edp_sum, a.ed2p_sum,
                           a.wait_seconds, a.turnaround_seconds, a.fugaku_points}) {
      h.D(v);
    }
  }
}
std::size_t FieldBytes(const AccountRegistry& accounts) {
  std::size_t bytes = 0;
  for (const std::string& name : accounts.AccountNames()) {
    bytes += sizeof(AccountStats) + name.size();
  }
  return bytes;
}

void HashField(Fnv64& h, const EngineCounters& c) {
  static_assert(std::has_unique_object_representations_v<EngineCounters>,
                "EngineCounters must hash by its bytes: no padding");
  h.Bytes(&c, sizeof c);
}
std::size_t FieldBytes(const EngineCounters&) { return 0; }

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
                                             ScenarioSpec spec, SystemConfig config,
                                             EngineOptions eo, const char* caller,
                                             bool fresh_scheduler,
                                             std::optional<std::size_t> grid_cursor) {
  std::unique_ptr<Simulation> sim(new Simulation());
  sim->options_ = std::move(spec);
  sim->config_ = std::move(config);
  sim->policy_accounts_ = snap.policy_accounts_;
  sim->sim_start_ = snap.sim_start_;
  sim->sim_end_ = snap.sim_end_;
  std::unique_ptr<Scheduler> sched;
  if (fresh_scheduler) {
    // A fresh build, exactly as SimulationBuilder would: the built-in family
    // is stateless, and before the first Schedule() invocation (the caller's
    // bound) it has observed no callbacks, so fresh == cloned-with-history.
    SchedulerFactoryContext fctx;
    fctx.config = &sim->config_;
    fctx.policy = sim->options_.policy;
    fctx.backfill = sim->options_.backfill;
    fctx.accounts = &sim->policy_accounts_;
    fctx.grid = &sim->options_.grid;
    sched = SchedulerRegistry().Get(sim->options_.scheduler)(fctx);
  } else {
    // The clone must not dangle into the snapshot: bind it to the fork's own
    // accounts and grid.
    SchedulerCloneContext cctx;
    cctx.accounts = &sim->policy_accounts_;
    cctx.grid = &sim->options_.grid;
    sched = snap.scheduler_->Clone(cctx);
    if (!sched) {
      throw std::runtime_error(std::string("Simulation::") + caller +
                               ": snapshot scheduler '" + snap.scheduler_->name() +
                               "' refused to clone");
    }
  }
  // A fresh deep copy per fork: forking twice from one snapshot yields two
  // fully independent simulations.
  EngineState state = snap.state_;
  if (grid_cursor) state.next_grid_event = *grid_cursor;
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
  ForEachField(s, [&h](const auto& field) { HashField(h, field); });
  return h.hash();
}

std::size_t EngineStateBytes(const EngineState& s) {
  std::size_t bytes = sizeof(EngineState);
  ForEachField(s, [&bytes](const auto& field) { bytes += FieldBytes(field); });
  return bytes;
}

std::unique_ptr<Simulation> Simulation::ForkFrom(const SimStateSnapshot& snap) {
  return Fork(snap, snap.spec_, snap.config_, snap.engine_options_, "ForkFrom");
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

  SystemConfig config = snap.config_;
  EngineOptions eo = snap.engine_options_;
  std::optional<std::size_t> grid_cursor;  // the remapped grid-event cursor

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
    const std::size_t consumed = snap.state_.next_grid_event;
    if (consumed > old_events.size()) {
      throw std::logic_error("ForkWithPatch: snapshot grid cursor outside its "
                             "own boundary schedule");
    }
    eo.grid = patched.grid;
    if (consumed > 0) {
      const SimTime last_consumed = old_events[consumed - 1];
      const std::vector<SimTime> new_events =
          patched.grid.BoundariesIn(eo.sim_start, eo.sim_end);
      std::size_t cursor = 0;
      while (cursor < new_events.size() && new_events[cursor] <= last_consumed) {
        ++cursor;
      }
      grid_cursor = cursor;
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
      config.cooling.supply_temp_c = *patched.cooling_supply_temp_c;
    }
    // Mirror BuildInto's merged-cooling validation so a setpoint the plain
    // path rejects fails the fork too (the sweep tree then falls back).
    if (config.cooling.topology.enabled()) {
      ValidateCoolingSpec(config.cooling, config.TotalNodes(),
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
    if (new_policy.needs_thermal && !config.cooling.topology.enabled()) {
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

  return Fork(snap, std::move(patched), std::move(config), std::move(eo), "ForkWithPatch",
              IsSchedulerSwapKey(key), grid_cursor);
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
  ScenarioSpec spec = snap.spec_;
  spec.grid = grid;
  EngineOptions eo = snap.engine_options_;
  eo.grid = std::move(grid);
  std::unique_ptr<Simulation> sim =
      Fork(snap, std::move(spec), snap.config_, std::move(eo), "ForkFrom");
  sim->engine_->ReplayGridAccounting();
  return sim;
}

}  // namespace sraps
