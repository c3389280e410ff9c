// The S-RAPS simulation engine (§3.2.3): a forward-time loop whose every
// iteration runs four well-defined steps —
//   (1) preparation: completed jobs are cleared, freeing resources;
//   (2) eligibility: jobs whose submit time has passed enter the queue;
//   (3) schedule: the pluggable scheduler proposes placements, the resource
//       manager executes them;
//   (4) tick: the DCDT physical simulators (power, conversion loss, cooling)
//       advance and the clock increments.
//
// With EngineOptions::event_calendar set, step (4) advances the clock
// directly to the next interesting time — job submit, earliest completion
// (a lazily re-keyed min-heap), outage edge, trace-sample boundary — and
// replays the skipped span into the power/cooling/telemetry models as one
// batched integration step.  Recorded history, stats, and counters stay
// bit-identical to the tick-stepped loop (tests/test_engine_events.cc).
//
// The engine also implements the paper's window semantics: jobs that ended
// before the simulation start or were submitted after its end are dismissed;
// jobs already running at the start prepopulate the system so the twin
// reflects the observed machine state rather than filling from empty
// (§3.2.3 footnote 2).
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "accounts/accounts.h"
#include "config/system_config.h"
#include "cooling/cooling_model.h"
#include "cooling/heat_recirculation.h"
#include "cooling/multi_cdu.h"
#include "grid/grid_environment.h"
#include "power/system_power.h"
#include "sched/scheduler.h"
#include "stats/stats.h"
#include "telemetry/recorder.h"
#include "workload/job.h"
#include "workload/job_queue.h"

namespace sraps {

/// A planned node outage for what-if availability studies (§4.1 footnote 5:
/// the open datasets lack down/drained-node data; the twin lets you inject
/// it).  Busy nodes drain — they leave service when their job completes.
struct NodeOutage {
  SimTime at = 0;          ///< when the outage begins
  SimTime recover_at = 0;  ///< when the nodes return (<= at means never)
  std::vector<int> nodes;
};

struct EngineOptions {
  SimTime sim_start = 0;
  SimTime sim_end = 0;                     ///< exclusive; must be > sim_start
  SimDuration tick = 0;                    ///< 0 = use the system's telemetry interval
  bool enable_cooling = false;             ///< requires config.cooling.has_cooling_model
  bool record_history = true;              ///< fill the TimeSeriesRecorder channels
  bool prepopulate = true;                 ///< place jobs already running at sim_start
  bool event_triggered_scheduling = true;  ///< skip scheduler on event-free ticks
  bool track_accounts = false;             ///< accumulate per-account stats
  std::vector<NodeOutage> outages;         ///< failure-injection schedule
  AllocationStrategy allocation = AllocationStrategy::kLowestFirst;
  /// System power cap (wall watts; 0 = uncapped).  When the instantaneous
  /// wall power would exceed the cap, all running jobs are throttled
  /// uniformly: their power contribution scales down and their runtime
  /// dilates inversely — the facility-level power-capping what-if the twin
  /// enables (cf. the GPU power-capping study of Patki et al. [28]).
  double power_cap_w = 0.0;
  /// Time-varying grid context: price/carbon signals drive incremental cost
  /// and emissions accounting, and demand-response windows lower the
  /// effective power cap over their span (EffectiveCapW = min of the static
  /// cap and every active window).  Signal boundaries and window edges are
  /// event-calendar events, so the fast path stays bit-identical.
  GridEnvironment grid;
  /// Event-calendar fast path: hop the clock from event to event instead of
  /// iterating physics-free ticks.  Every tick is still accounted for in the
  /// recorded history and energy integration — the skipped span is replayed
  /// in one batched step — so results are bit-identical to tick stepping.
  bool event_calendar = false;
  /// Record the per-tick wall energy (kWh) alongside the run so grid cost and
  /// emissions can be *replayed* after the fact against re-scaled price or
  /// carbon signals (ReplayGridAccounting).  This is what lets a prefix-
  /// sharing sweep run the trajectory once and fork per signal-scale variant
  /// with bit-identical accounting.  Off by default: it costs 8 bytes per
  /// simulated tick.
  bool capture_grid_basis = false;
};

/// Aggregate counters available after (or during) a run.
struct EngineCounters {
  std::size_t submitted = 0;              ///< jobs that entered the queue
  std::size_t started = 0;                ///< jobs placed by the scheduler
  std::size_t completed = 0;              ///< jobs run to completion
  std::size_t dismissed = 0;              ///< outside the window or oversize
  std::size_t prepopulated = 0;           ///< running at sim start, placed directly
  std::size_t scheduler_invocations = 0;  ///< Schedule() calls
  std::size_t scheduler_skips = 0;        ///< event-free ticks skipped
  std::size_t calendar_steps = 0;         ///< event-calendar loop iterations
  std::size_t batched_ticks = 0;          ///< ticks covered by batched spans (n > 1)
  std::size_t grid_events = 0;            ///< grid signal/DR boundaries crossed
  std::size_t power_plan_invocations = 0; ///< PlanPowerStates() calls
  std::size_t pstate_changes = 0;         ///< applied SetNodePState transitions
  std::size_t nodes_slept = 0;            ///< applied C/S sleep transitions
  std::size_t nodes_woken = 0;            ///< completed wake transitions
  std::size_t thermal_trips = 0;          ///< (rack, class) thermal-trip edges
  std::size_t thermal_clears = 0;         ///< (rack, class) trip-clear edges
};

/// Deep copy of every mutable field of a SimulationEngine between steps —
/// the engine-level payload of a SimStateSnapshot (core/snapshot.h).  The
/// immutable parts (system config, options, power model, tick width) are NOT
/// here; SimulationEngine::Restore reconstructs them from the config and
/// options it is given, which is what allows a fork to resume under a
/// *compatible variant* of the original options (e.g. re-scaled grid
/// signals).  The completion heap is stored as its exact underlying array so
/// pop order — including tie order — survives the round trip bit for bit.
struct EngineState {
  std::vector<Job> jobs;              ///< full job table incl. realised state
  JobQueue queue;                     ///< queued handles, in queue order
  std::optional<ResourceManager> rm;  ///< node occupancy/outage state
  SimulationStats stats;              ///< completion records + grid totals
  TimeSeriesRecorder recorder;        ///< recorded history channels
  AccountRegistry accounts;           ///< accumulating per-account stats
  EngineCounters counters;
  SimTime now = 0;                             ///< engine clock
  bool events_this_tick = true;
  std::vector<JobQueue::Handle> submit_order;  ///< pending jobs by submit time
  std::size_t next_submit = 0;                 ///< cursor into submit_order
  std::size_t next_outage_begin = 0;           ///< outage-schedule cursors
  std::size_t next_outage_end = 0;
  std::size_t next_grid_event = 0;        ///< grid-boundary cursor
  std::vector<JobQueue::Handle> running;  ///< running handles, start order
  std::vector<double> job_energy_j;       ///< per-job energy accumulators
  /// Exact min-heap array of (candidate end, handle) completion entries.
  std::vector<std::pair<SimTime, JobQueue::Handle>> completions;
  double grid_cost_usd = 0.0;           ///< accumulated cost ($)
  double grid_co2_kg = 0.0;             ///< accumulated emissions (kg)
  std::optional<CoolingModel> cooling;  ///< thermal loop state, when coupled
  /// Per-tick wall kWh from sim_start to `now` (empty unless the run was
  /// started with EngineOptions::capture_grid_basis).
  std::vector<double> tick_wall_kwh;
  // --- per-node power state (tentpole of the machine-class redesign) ---
  std::vector<std::uint8_t> node_pstate;   ///< ladder rung per global node
  std::vector<NodePowerMode> node_mode;    ///< active / C / S / waking
  /// Exact min-heap array of (wake time, node) transition events, captured
  /// verbatim like `completions` so a fork pops in the same order.
  std::vector<std::pair<SimTime, int>> wake_events;
  std::vector<double> class_energy_j;      ///< per-class IT energy accumulators
  double last_wall_power_w = 0.0;          ///< previous tick's wall draw
  double last_busy_power_w = 0.0;          ///< previous tick's busy share
  bool power_event_pending = false;        ///< a power action fired last step
  // --- thermal topology (tentpole of the thermal-placement redesign) ---
  /// Per-node inlet temperatures of the last integrated span — scheduler-
  /// visible state, so a fork must resume from the same values.  Empty when
  /// no thermal topology is configured (Restore re-initialises to the
  /// supply setpoint if the config declares one).
  std::vector<double> node_inlet_c;
  /// Per-CDU cooling-loop state, present when cooling is coupled on a
  /// system with a thermal topology (replaces the lumped `cooling` state).
  std::optional<MultiCduCoolingModel> multi_cooling;
  /// Running fan/leakage energy and peak inlet temperature (thermal stats).
  double thermal_leak_j = 0.0;
  double peak_inlet_c = 0.0;
  // --- transient thermal layer (cooling.transient) ---
  /// Per-rack transient inlet temperatures (RC state).  Empty when the
  /// transient layer is off (Restore re-initialises from the base supply
  /// when the config enables it and the state predates the feature).
  std::vector<double> rack_temp_c;
  /// CRAC-controlled supply setpoint; equals the base supply when the CRAC
  /// loop is off or has not moved yet.
  double crac_supply_c = 0.0;
  /// Per-(rack, class) thermal-trip flags, racks × classes row-major.
  std::vector<std::uint8_t> rack_class_tripped;
  /// A trip/clear edge fired at the end of the last advanced span; the next
  /// step is eventful (mirrors power_event_pending).
  bool thermal_event_pending = false;
};

class SimulationEngine {
 public:
  /// Takes ownership of jobs and scheduler.  `accounts` may carry a
  /// collection-phase registry to continue accumulating into; when null and
  /// track_accounts is set, a fresh registry is created.
  SimulationEngine(SystemConfig config, std::vector<Job> jobs,
                   std::unique_ptr<Scheduler> scheduler, EngineOptions options,
                   AccountRegistry accounts = AccountRegistry());

  /// Runs the loop to sim_end.
  void Run();

  /// Steps until the clock reaches `t` (i.e. stops at the first step
  /// boundary with now() >= t) or the window ends.  Unlike Run(), the final
  /// end-of-window completion sweep is NOT performed, so a snapshot taken
  /// here and resumed with Run() finishes exactly like an uninterrupted run.
  void RunUntil(SimTime t);

  /// RunUntil, but the clock lands *exactly* on the first tick boundary at
  /// or past `t` instead of overshooting to the end of a batched span: the
  /// limit bounds SpanTicks, splitting the span that would straddle it.
  /// Splitting is bit-identical for jobs, stats, history, and accounting —
  /// every per-tick quantity accumulates by repeated addition, so a span of
  /// n ticks equals a+b ticks operation for operation — and only the
  /// calendar_steps/batched_ticks counters (diagnostics, not results)
  /// differ.  This is what lets a snapshot-tree sweep stop at an arbitrary
  /// first-effect bound and fork there (sweep/tree).  A power watch
  /// (SetPowerWatch) that has tripped ends the call after the tripping step.
  void RunUntilExact(SimTime t);

  // --- power watch (first-effect probe for power_cap_w sweeps) -------------
  /// Arms a demand watch: the engine records the first step whose *pre-cap*
  /// sampled wall demand exceeds `threshold_w` while jobs draw busy power —
  /// exactly the condition under which a run capped at `threshold_w` (or any
  /// tighter cap) would first throttle and diverge from this one.  Purely
  /// observational: the trajectory is untouched, but RunUntilExact returns
  /// early once the watch has tripped.  0 disarms.
  void SetPowerWatch(double threshold_w);
  /// The step-start time at which the armed watch first tripped, or
  /// SimTime max while it has not.
  SimTime power_watch_tripped_at() const { return power_watch_tripped_at_; }

  /// The resolved tick width (options tick, or the system's telemetry
  /// interval when that was 0).
  SimDuration tick() const { return tick_; }

  /// Deep-copies the engine's entire mutable state (the scheduler is cloned
  /// separately via Scheduler::Clone — see Simulation::Snapshot()).  Valid
  /// between steps, i.e. any time Run/RunUntil/StepOnce is not executing.
  EngineState CaptureState() const;

  /// Builds an engine that resumes from `state` instead of initialising from
  /// scratch.  `config` and `options` must describe the same simulation the
  /// state was captured from — window, tick, outage schedule, and grid
  /// boundary times are trusted, not re-derived — except that grid signal
  /// *values* may differ when the caller replays accounting afterwards
  /// (ReplayGridAccounting).  Throws std::invalid_argument on a null
  /// scheduler or a state/options shape mismatch.
  static std::unique_ptr<SimulationEngine> Restore(SystemConfig config,
                                                   std::unique_ptr<Scheduler> scheduler,
                                                   EngineOptions options,
                                                   EngineState state);

  /// Recomputes grid cost, emissions, and the recorded price/carbon history
  /// channels from the captured per-tick energy basis against the *current*
  /// options' grid signals, reproducing the incremental integration of an
  /// uninterrupted run bit for bit (same per-tick additions, same order).
  /// Requires the engine to have been run (or restored) with
  /// capture_grid_basis; throws std::logic_error otherwise.
  void ReplayGridAccounting();

  /// Advances one step — one tick, or one event-calendar hop (possibly many
  /// ticks) when event_calendar is set.  Returns false once the window is
  /// exhausted.
  bool StepOnce();

  // --- observers -----------------------------------------------------------
  /// The engine clock.
  SimTime now() const { return now_; }
  /// The options the engine was constructed (or restored) with.
  const EngineOptions& options() const { return options_; }
  const EngineCounters& counters() const { return counters_; }
  const SimulationStats& stats() const { return stats_; }
  const TimeSeriesRecorder& recorder() const { return recorder_; }
  const AccountRegistry& accounts() const { return accounts_; }
  /// The engine-owned job table, indexed by JobQueue::Handle.
  const std::vector<Job>& jobs() const { return jobs_; }
  const ResourceManager& resource_manager() const { return rm_; }
  const JobQueue& queue() const { return queue_; }
  const SystemConfig& config() const { return config_; }
  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }
  std::size_t running_count() const { return running_.size(); }

  /// Per-job simulated energy (J); indexed like jobs().  NaN until completed.
  const std::vector<double>& job_energy_j() const { return job_energy_j_; }

  // --- per-node power states (scheduler-visible knobs) ---------------------
  /// Clocks `node` to ladder rung `p` of its machine class.  Returns false
  /// (without side effects) when the transition is invalid: rung outside the
  /// class ladder, node down, asleep, or already at `p`.  Throws
  /// std::out_of_range for a node id outside the machine.
  bool SetNodePState(int node, int p);
  /// Puts a free, active, in-service node into its class's C (deep=false) or
  /// S (deep=true) state.  Returns false when the node is busy, down,
  /// already asleep/waking, or its class lacks the requested state.  Throws
  /// std::out_of_range for a bad node id.
  bool SleepNode(int node, bool deep);
  /// Starts the wake transition of a sleeping node; the node becomes
  /// allocatable after its class's wake latency, modeled as an engine event
  /// (zero latency wakes immediately).  Returns false when the node is not
  /// in a C/S state.  Throws std::out_of_range for a bad node id.
  bool WakeNode(int node);
  /// The ladder rung `node` is clocked to (0 = full speed).
  int NodePState(int node) const;
  /// The power mode `node` is in.
  NodePowerMode NodeMode(int node) const;
  /// Nodes currently in a C/S state or mid-wake.
  int nodes_asleep() const;
  /// Per-class IT energy accumulators (J), indexed like config().machines.
  /// All zero unless the scheduler manages power states.
  const std::vector<double>& class_energy_j() const { return class_energy_j_; }

  /// Cumulative wall-energy cost ($) integrated against the grid price
  /// signal, and emissions (kg CO2) against the carbon-intensity signal.
  /// 0 when the corresponding signal is absent.  Bit-identical between the
  /// tick loop and the event calendar.
  double grid_cost_usd() const { return grid_cost_usd_; }
  double grid_co2_kg() const { return grid_co2_kg_; }

  // --- thermal topology (scheduler-visible placement context) --------------
  /// The heat-recirculation matrix, or null when the system's cooling spec
  /// declares no thermal topology.
  const HeatRecirculationMatrix* hr_matrix() const { return hr_matrix_.get(); }
  /// Per-node inlet temperatures of the last integrated span (empty without
  /// a topology).  What the thermal placement policies score against.
  const std::vector<double>& node_inlet_c() const { return node_inlet_c_; }
  /// Fan/leakage overhead (W) the last span added to the IT draw.
  double thermal_leak_w() const { return thermal_leak_w_; }

  // --- transient thermal layer (cooling.transient) -------------------------
  /// Per-rack transient inlet temperatures (RC state); empty when the
  /// transient layer is off.
  const std::vector<double>& rack_transient_c() const { return rack_temp_c_; }
  /// The CRAC-controlled supply setpoint (== the base supply when the CRAC
  /// loop is off).
  double crac_supply_c() const { return crac_supply_c_; }
  /// Nodes currently under thermal-trip throttling.
  int tripped_node_count() const { return tripped_node_count_; }

 private:
  /// Restore path: adopts `state` wholesale, rebuilding only the derived
  /// schedules (outage lists, grid boundaries, channel handles) from options.
  struct RestoreTag {};
  SimulationEngine(RestoreTag, SystemConfig config,
                   std::unique_ptr<Scheduler> scheduler, EngineOptions options,
                   EngineState state);

  void Initialize();
  /// Resolves the derived transient-thermal configuration (flags, per-class
  /// trip temperatures, per-(rack, class) node counts) shared by the fresh
  /// and restore constructors; validates that an enabled block has a thermal
  /// topology and a CRAC floor below the base supply.
  void SetupTransientThermal();
  /// Builds the sorted outage begin/end schedules from options_.outages.
  void BuildOutageSchedule();
  /// Resolves the hot-loop channel handles into recorder_ (record_history
  /// only) and reserves their full-run capacity.
  void ResolveHistoryChannels();
  void Prepopulate();
  void ApplyOutages();
  /// Consumes grid boundaries (signal steps, DR window edges) that have
  /// arrived; each marks the tick as eventful so grid-reactive schedulers
  /// are re-invoked exactly when the grid changes.
  void ApplyGridEvents();
  /// The wall-power cap in force now: min of the static cap and every
  /// active demand-response window (0 = uncapped).
  double EffectiveCapW() const;
  void ClearCompleted();
  void EnqueueEligible();
  /// Completes wake transitions whose latency has elapsed (wake events are
  /// calendar events, so the fast path stays bit-identical).
  void ApplyWakeEvents();
  /// Invokes Scheduler::PlanPowerStates on event-bearing iterations and
  /// executes the returned actions defensively (stale actions are skipped).
  void CallPowerPlan();
  /// Fills the power-state fields of a SchedulerContext.
  void FillPowerContext(SchedulerContext& ctx);
  void CallSchedule();
  /// Step (4) for `n` consecutive event-free ticks in one batched
  /// integration (n == 1 is the classic tick).  The caller guarantees the
  /// running set and every running job's sampled power are constant across
  /// the span, so one power/throttle computation covers all n ticks and the
  /// replayed history is bit-identical to n single ticks.  Returns the
  /// number of ticks actually advanced: when thermal trips are configured,
  /// the span is truncated at the first tick whose transient temperatures
  /// would flip a (rack, class) trip flag (TransientSpanBound), so trip and
  /// clear edges land on real step boundaries in both stepping modes.
  SimDuration AdvanceTicks(SimDuration n);
  /// How many ticks the calendar may hop before the next interesting time:
  /// submit, completion, outage edge, trace-sample boundary, or sim_end.
  SimDuration SpanTicks();
  /// Earliest current end among running jobs via the completion heap,
  /// lazily discarding completed entries and re-keying throttle-dilated
  /// ones.  Returns SimTime max when nothing runs.
  SimTime NextCompletionTime();
  /// Ticks until Sample() of any power-relevant trace of `job` can change.
  SimDuration TicksUntilTraceChange(const Job& job, SimDuration elapsed) const;
  void StartJob(JobQueue::Handle h, const Placement& placement);
  void CompleteJob(JobQueue::Handle h);
  SimDuration RealizedRuntime(const Job& job) const;

  SystemConfig config_;
  std::vector<Job> jobs_;
  std::unique_ptr<Scheduler> scheduler_;
  EngineOptions options_;

  ResourceManager rm_;
  SystemPowerModel power_model_;
  std::unique_ptr<CoolingModel> cooling_;
  /// Per-CDU cooling loops, used instead of the lumped cooling_ when the
  /// system declares a thermal topology: the placement-dependent heat split
  /// is exactly what the multi-CDU model exists to observe.
  std::unique_ptr<MultiCduCoolingModel> multi_cooling_;
  std::unique_ptr<HeatRecirculationMatrix> hr_matrix_;
  JobQueue queue_;
  SimulationStats stats_;
  TimeSeriesRecorder recorder_;
  AccountRegistry accounts_;
  EngineCounters counters_;

  SimTime now_ = 0;
  SimDuration tick_ = 0;
  bool initialized_ = false;
  bool events_this_tick_ = true;  // force a first scheduling pass

  std::vector<JobQueue::Handle> submit_order_;  ///< pending jobs by submit time
  std::size_t next_submit_ = 0;
  std::vector<std::pair<SimTime, std::vector<int>>> outage_begins_;
  std::vector<std::pair<SimTime, std::vector<int>>> outage_ends_;
  std::size_t next_outage_begin_ = 0;
  std::size_t next_outage_end_ = 0;
  std::vector<JobQueue::Handle> running_;
  std::vector<double> job_energy_j_;

  /// Grid accounting state: which integrations are active, the running
  /// totals, and the sorted in-window boundary schedule with its cursor
  /// (analogous to the outage cursors).
  bool grid_cost_on_ = false;
  bool grid_co2_on_ = false;
  double grid_cost_usd_ = 0.0;
  double grid_co2_kg_ = 0.0;
  std::vector<SimTime> grid_events_;
  std::size_t next_grid_event_ = 0;

  /// Min-heap of (candidate end, handle) — the event calendar's completion
  /// track, kept as a plain vector managed with std::push_heap/pop_heap
  /// (exactly what std::priority_queue does underneath) so CaptureState can
  /// copy the heap array verbatim and a restored engine pops in the same
  /// order, ties included.  Keys go stale when power-cap throttling dilates
  /// running jobs (ends only ever move later), so NextCompletionTime re-keys
  /// lazily on pop instead of rebuilding the heap on every cap-boundary
  /// crossing.
  std::vector<std::pair<SimTime, JobQueue::Handle>> completions_;
  void PushCompletion(SimTime end, JobQueue::Handle h);
  void PopCompletion();

  /// Per-tick wall kWh since sim_start (capture_grid_basis only): the exact
  /// doubles the incremental cost/CO2 integration multiplied by the signal
  /// values, so ReplayGridAccounting reproduces it bit for bit.
  std::vector<double> tick_wall_kwh_;

  /// Compute() over an empty running set is a pure constant (idle draw of
  /// every node); cached so fully idle ticks skip the power model.  Only
  /// consulted while every node is active at P0, so power states never
  /// stale it.
  std::optional<PowerSample> idle_sample_;
  std::vector<double> idle_class_w_;         ///< per-class draw of the cache
  std::vector<const Job*> running_scratch_;  ///< reused per step, never shrinks
  std::vector<double> job_power_scratch_;    ///< per-job draw from Compute()
  std::vector<double> job_freq_scratch_;     ///< per-job freq scale from Compute()
  std::vector<double> class_w_scratch_;      ///< per-class draw from Compute()

  // --- thermal topology ----------------------------------------------------
  /// Applies the thermal layer to the span's sampled power: fills
  /// node_heat_w_ (busy draw or idle/sleep draw per node), folds it through
  /// the recirculation matrix into inlet_scratch_, and adds the
  /// temperature-dependent fan/leakage overhead to power's IT draw (idle
  /// share, so cap throttling still sheds only job power).  The fully idle
  /// machine's inlets and leak are a pure constant and are cached like
  /// idle_sample_.  No-op unless hr_matrix_ is set.
  void ApplyThermalLayer(PowerSample& power, bool machine_idle);
  std::vector<double> node_busy_w_scratch_;  ///< per-node busy draw from Compute()
  std::vector<double> node_heat_w_;          ///< per-node heat of this span
  std::vector<double> inlet_scratch_;        ///< this span's inlet temps
  std::vector<double> node_inlet_c_;   ///< published inlet temps (last span)
  std::vector<double> class_idle_heat_w_;  ///< idle draw per machine class
  std::vector<double> idle_inlet_c_;   ///< inlet temps of the fully idle machine
  double idle_leak_w_ = -1.0;          ///< leak of the fully idle machine (<0 = unset)
  double thermal_leak_w_ = 0.0;        ///< last span's leak (observer/history)
  double thermal_leak_j_ = 0.0;        ///< running leak energy (stats mirror)
  double peak_inlet_c_ = 0.0;          ///< run-wide hottest inlet (stats mirror)
  std::vector<double> per_cdu_heat_scratch_;  ///< heat split for multi_cooling_

  // --- transient thermal layer (cooling.transient) -------------------------
  /// One shared tick of transient physics — CRAC supply step, then the
  /// backward-Euler RC update of every rack toward its quasi-static target
  /// (rack_mean_c_, shifted by the supply deviation).  Used verbatim by both
  /// the span-bound predictor and the executing loop so their trajectories
  /// are bitwise identical.
  void TransientPhysicsTick(double& supply_c, std::vector<double>& rack_c) const;
  /// First tick k in [1, n] at which executing the span would flip a
  /// (rack, class) trip flag, or n when none flips.  Runs the exact per-tick
  /// recurrence on scratch copies; only consulted when trips are configured.
  SimDuration TransientSpanBound(SimDuration n);
  /// Applies trip/clear hysteresis against the current rack_temp_c_,
  /// updating flags, counters, and tripped_node_count_.  Returns true when
  /// any flag flipped.
  bool ApplyThermalFlips();
  /// The runtime-dilation factor thermal trips impose on `job`: the spec's
  /// trip_throttle when any assigned node sits in a tripped (rack, class),
  /// 1.0 otherwise.
  double JobTripFactor(const Job& job) const;
  bool transient_on_ = false;  ///< cooling.transient.enabled && topology
  bool crac_on_ = false;       ///< CRAC supply loop active
  bool trip_on_ = false;       ///< any resolved trip temperature > 0
  double supply_base_c_ = 0.0; ///< configured supply (CRAC anchor/upper bound)
  std::vector<double> rack_mean_c_;  ///< per-rack mean quasi-static inlet (span)
  std::vector<double> rack_temp_c_;  ///< per-rack transient inlet (RC state)
  double crac_supply_c_ = 0.0;       ///< CRAC-controlled supply (state)
  std::vector<std::uint8_t> rack_class_tripped_;  ///< racks × classes flags
  std::vector<double> class_trip_c_;  ///< resolved trip temp per class (0 = never)
  std::vector<int> rack_class_nodes_; ///< node count per (rack, class)
  int tripped_node_count_ = 0;        ///< derived from rack_class_tripped_
  /// A trip/clear edge fired during the last span; converted into
  /// events_this_tick_ at the top of the next step (like power_event_pending_).
  bool thermal_event_pending_ = false;
  std::vector<double> pred_rack_c_;   ///< TransientSpanBound scratch

  // --- per-node power state ------------------------------------------------
  std::vector<std::uint8_t> node_pstate_;  ///< ladder rung per global node
  std::vector<NodePowerMode> node_mode_;   ///< active / C / S / waking
  /// Min-heap of (wake time, node), managed like completions_ so CaptureState
  /// copies the array verbatim and forks pop in the same order.
  std::vector<std::pair<SimTime, int>> wake_events_;
  std::vector<int> class_c_idle_;   ///< nodes in C per class (excl. waking)
  std::vector<int> class_s_sleep_;  ///< nodes in S per class (excl. waking)
  std::vector<double> class_energy_j_;  ///< per-class IT energy (J)
  int nonzero_pstate_nodes_ = 0;    ///< nodes clocked below P0
  int waking_nodes_ = 0;            ///< wake transitions in flight
  double last_wall_power_w_ = 0.0;  ///< previous tick's wall draw
  double last_busy_power_w_ = 0.0;  ///< previous tick's busy share
  /// Set when a power action is applied; makes the *next* iteration
  /// eventful so iterative policies (pace_to_cap's rung walk) re-plan, and
  /// bounds the calendar span to one tick.  Cleared at the top of StepOnce.
  bool power_event_pending_ = false;
  /// Demand watch (SetPowerWatch): threshold (0 = disarmed) and the step
  /// start at which pre-cap demand first exceeded it.
  double power_watch_threshold_w_ = 0.0;
  SimTime power_watch_tripped_at_ = std::numeric_limits<SimTime>::max();
  /// RunUntilExact's span limit: SpanTicks never hops past it.  SimTime max
  /// outside RunUntilExact.
  SimTime span_limit_ = std::numeric_limits<SimTime>::max();
  /// Accumulate the per-class energy breakdown (power-state schedulers
  /// only; keeps span batching O(1) for everything else).
  bool class_energy_on_ = false;

  /// Hot-loop channel handles, resolved once at Initialize when
  /// record_history is on (cooling/throttle members only with their
  /// features); Channel references are stable across map growth.
  struct HistoryChannels {
    Channel* it_power = nullptr;
    Channel* loss = nullptr;
    Channel* power = nullptr;
    Channel* utilization = nullptr;
    Channel* queue_len = nullptr;
    Channel* running = nullptr;
    Channel* throttle = nullptr;
    Channel* price = nullptr;
    Channel* carbon = nullptr;
    Channel* pue = nullptr;
    Channel* tower = nullptr;
    Channel* supply = nullptr;
    Channel* cooling_kw = nullptr;
    Channel* nodes_asleep = nullptr;
    Channel* avg_freq = nullptr;
    Channel* max_inlet = nullptr;     ///< hottest node inlet (thermal only)
    Channel* thermal_leak = nullptr;  ///< fan/leakage overhead kW (thermal only)
    Channel* cdu_spread = nullptr;    ///< hottest - coldest CDU (multi-CDU only)
    std::vector<Channel*> rack_inlet;  ///< mean inlet per rack (thermal only)
    Channel* crac_supply = nullptr;    ///< CRAC supply setpoint (transient only)
    Channel* tripped_nodes = nullptr;  ///< throttled nodes (transient trips only)
    std::vector<Channel*> rack_transient;  ///< RC inlet per rack (transient only)
  } hist_;
};

}  // namespace sraps
