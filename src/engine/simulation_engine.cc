#include "engine/simulation_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/log.h"

namespace sraps {
namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// Ticks needed to reach `target` from `from` on a grid of `step`-wide ticks
/// (i.e. the first k with from + k*step >= target).  Requires target > from.
SimDuration TicksToReach(SimTime from, SimTime target, SimDuration step) {
  return (target - from + step - 1) / step;
}

}  // namespace

SimulationEngine::SimulationEngine(SystemConfig config, std::vector<Job> jobs,
                                   std::unique_ptr<Scheduler> scheduler,
                                   EngineOptions options, AccountRegistry accounts)
    : config_(std::move(config)),
      scheduler_(std::move(scheduler)),
      options_(options),
      state_([&] {
        EngineState s;
        s.jobs = std::move(jobs);
        s.rm.emplace(config_.TotalNodes(), options.allocation);
        s.accounts = std::move(accounts);
        return s;
      }()),
      power_model_(config_) {
  if (!scheduler_) throw std::invalid_argument("SimulationEngine: null scheduler");
  if (options_.sim_end <= options_.sim_start) {
    throw std::invalid_argument(
        "SimulationEngine: sim_end (" + std::to_string(options_.sim_end) +
        ") must be > sim_start (" + std::to_string(options_.sim_start) + ")");
  }
  if (options_.tick < 0) {
    throw std::invalid_argument("SimulationEngine: tick must be >= 0 (0 = telemetry "
                                "interval), got " + std::to_string(options_.tick));
  }
  if (options_.power_cap_w < 0.0) {
    throw std::invalid_argument("SimulationEngine: power cap must be >= 0 W (0 = "
                                "uncapped), got " + std::to_string(options_.power_cap_w));
  }
  for (const NodeOutage& o : options_.outages) {
    for (int n : o.nodes) {
      if (n < 0 || n >= config_.TotalNodes()) {
        throw std::invalid_argument(
            "SimulationEngine: outage at t=" + std::to_string(o.at) + " names node " +
            std::to_string(n) + ", outside [0, " +
            std::to_string(config_.TotalNodes()) + ") for system '" + config_.name +
            "'");
      }
    }
    RequireWindowIntersects("SimulationEngine: outage window", o.at, o.recover_at,
                            options_.sim_start, options_.sim_end);
  }
  ValidateGridEnvironment(options_.grid, "SimulationEngine");
  for (const DrWindow& w : options_.grid.dr_windows) {
    RequireWindowIntersects("SimulationEngine: demand-response window", w.start,
                            w.end, options_.sim_start, options_.sim_end);
  }
  tick_ = options_.tick > 0 ? options_.tick : config_.telemetry_interval;
  if (tick_ <= 0) throw std::invalid_argument("SimulationEngine: tick must be > 0");
  if (config_.cooling.topology.enabled()) {
    hr_matrix_ = std::make_unique<HeatRecirculationMatrix>(config_.cooling.topology,
                                                           config_.TotalNodes());
  }
  if (options_.enable_cooling) {
    if (!config_.cooling.has_cooling_model) {
      throw std::invalid_argument("SimulationEngine: system '" + config_.name +
                                  "' has no cooling model");
    }
    if (hr_matrix_) {
      // With a thermal topology the placement determines where heat lands;
      // the per-CDU model is the loop that can see that split.
      state_.multi_cooling.emplace(config_.cooling);
    } else {
      state_.cooling.emplace(config_.cooling);
    }
  }
  Initialize();
}

SimulationEngine::SimulationEngine(RestoreTag, SystemConfig config,
                                   std::unique_ptr<Scheduler> scheduler,
                                   EngineOptions options, EngineState&& state)
    : config_(std::move(config)),
      scheduler_(std::move(scheduler)),
      options_(std::move(options)),
      state_(std::move(state)),
      power_model_(config_) {
  // Validation happened in Restore(); the state is adopted as it stands.
  tick_ = options_.tick > 0 ? options_.tick : config_.telemetry_interval;
  if (config_.cooling.topology.enabled()) {
    hr_matrix_ = std::make_unique<HeatRecirculationMatrix>(config_.cooling.topology,
                                                           config_.TotalNodes());
  }
  AdoptState();
  initialized_ = true;
}

std::unique_ptr<SimulationEngine> SimulationEngine::Restore(
    SystemConfig config, std::unique_ptr<Scheduler> scheduler, EngineOptions options,
    EngineState state) {
  if (!scheduler) {
    throw std::invalid_argument("SimulationEngine::Restore: null scheduler");
  }
  if (!state.rm) {
    throw std::invalid_argument("SimulationEngine::Restore: state carries no "
                                "resource-manager snapshot");
  }
  if (state.jobs.size() != state.job_energy_j.size()) {
    throw std::invalid_argument(
        "SimulationEngine::Restore: job table (" + std::to_string(state.jobs.size()) +
        ") and energy accumulators (" + std::to_string(state.job_energy_j.size()) +
        ") disagree");
  }
  // The clock lands on tick boundaries, and the final one may overshoot
  // sim_end when the window length is not a tick multiple (TicksToReach
  // ceils) — an end-of-run snapshot legitimately carries that clock.
  const SimDuration tick =
      options.tick > 0 ? options.tick : config.telemetry_interval;
  if (state.now < options.sim_start ||
      (tick > 0 && state.now >= options.sim_end + tick)) {
    throw std::invalid_argument(
        "SimulationEngine::Restore: snapshot clock " + std::to_string(state.now) +
        " outside the window [" + std::to_string(options.sim_start) + ", " +
        std::to_string(options.sim_end) + ") plus its final tick");
  }
  const bool thermal_topology = config.cooling.topology.enabled();
  if (options.enable_cooling && !thermal_topology && !state.cooling) {
    throw std::invalid_argument("SimulationEngine::Restore: cooling is enabled but "
                                "the state carries no cooling-loop snapshot");
  }
  if (options.enable_cooling && thermal_topology && !state.multi_cooling) {
    throw std::invalid_argument(
        "SimulationEngine::Restore: cooling is enabled on a thermal topology "
        "but the state carries no per-CDU cooling snapshot");
  }
  if (!state.node_inlet_c.empty() &&
      state.node_inlet_c.size() != static_cast<std::size_t>(config.TotalNodes())) {
    throw std::invalid_argument(
        "SimulationEngine::Restore: node_inlet_c covers " +
        std::to_string(state.node_inlet_c.size()) + " nodes, system has " +
        std::to_string(config.TotalNodes()));
  }
  const auto total = static_cast<std::size_t>(config.TotalNodes());
  if (!state.node_pstate.empty() && state.node_pstate.size() != total) {
    throw std::invalid_argument(
        "SimulationEngine::Restore: node_pstate covers " +
        std::to_string(state.node_pstate.size()) + " nodes, system has " +
        std::to_string(total));
  }
  if (!state.node_mode.empty() && state.node_mode.size() != total) {
    throw std::invalid_argument(
        "SimulationEngine::Restore: node_mode covers " +
        std::to_string(state.node_mode.size()) + " nodes, system has " +
        std::to_string(total));
  }
  const auto racks = static_cast<std::size_t>(config.cooling.topology.racks);
  if (!state.rack_temp_c.empty() && state.rack_temp_c.size() != racks) {
    throw std::invalid_argument(
        "SimulationEngine::Restore: rack_temp_c covers " +
        std::to_string(state.rack_temp_c.size()) + " racks, topology has " +
        std::to_string(racks));
  }
  if (!state.rack_class_tripped.empty() &&
      state.rack_class_tripped.size() != racks * config.machines.size()) {
    throw std::invalid_argument(
        "SimulationEngine::Restore: rack_class_tripped covers " +
        std::to_string(state.rack_class_tripped.size()) +
        " (rack, class) pairs, system has " +
        std::to_string(racks * config.machines.size()));
  }
  return std::unique_ptr<SimulationEngine>(new SimulationEngine(
      RestoreTag{}, std::move(config), std::move(scheduler), std::move(options),
      std::move(state)));
}

void SimulationEngine::BuildOutageSchedule() {
  // Failure-injection schedule, sorted for cursor-based application.
  for (const NodeOutage& o : options_.outages) {
    outage_begins_.emplace_back(o.at, o.nodes);
    if (o.recover_at > o.at) outage_ends_.emplace_back(o.recover_at, o.nodes);
  }
  std::stable_sort(outage_begins_.begin(), outage_begins_.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::stable_sort(outage_ends_.begin(), outage_ends_.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
}

void SimulationEngine::ResolveHistoryChannels() {
  if (!options_.record_history) return;
  TimeSeriesRecorder& recorder = state_.recorder;
  hist_.it_power = &recorder.Mutable("it_power_kw");
  hist_.loss = &recorder.Mutable("loss_kw");
  hist_.power = &recorder.Mutable("power_kw");
  hist_.utilization = &recorder.Mutable("utilization");
  hist_.queue_len = &recorder.Mutable("queue_length");
  hist_.running = &recorder.Mutable("running_jobs");
  if (options_.power_cap_w > 0.0 || !options_.grid.dr_windows.empty()) {
    hist_.throttle = &recorder.Mutable("throttle_factor");
  }
  if (grid_cost_on_) hist_.price = &recorder.Mutable("price_usd_per_kwh");
  if (grid_co2_on_) hist_.carbon = &recorder.Mutable("carbon_kg_per_kwh");
  if (options_.enable_cooling) {
    hist_.pue = &recorder.Mutable("pue");
    hist_.tower = &recorder.Mutable("tower_return_c");
    hist_.supply = &recorder.Mutable("supply_c");
    hist_.cooling_kw = &recorder.Mutable("cooling_kw");
  }
  if (scheduler_->WantsPowerStates()) {
    hist_.nodes_asleep = &recorder.Mutable("nodes_asleep");
    hist_.avg_freq = &recorder.Mutable("avg_freq_scale");
  }
  if (hr_matrix_) {
    hist_.max_inlet = &recorder.Mutable("max_inlet_c");
    hist_.thermal_leak = &recorder.Mutable("thermal_leak_kw");
    hist_.rack_inlet.clear();
    for (int r = 0; r < hr_matrix_->racks(); ++r) {
      hist_.rack_inlet.push_back(
          &recorder.Mutable("rack" + std::to_string(r) + "_inlet_c"));
    }
    if (state_.multi_cooling) hist_.cdu_spread = &recorder.Mutable("cdu_spread_c");
  }
  if (transient_on_) {
    hist_.rack_transient.clear();
    for (int r = 0; r < hr_matrix_->racks(); ++r) {
      hist_.rack_transient.push_back(
          &recorder.Mutable("rack" + std::to_string(r) + "_transient_c"));
    }
    if (crac_on_) hist_.crac_supply = &recorder.Mutable("crac_supply_c");
    if (trip_on_) hist_.tripped_nodes = &recorder.Mutable("tripped_nodes");
  }
  // Every channel gets exactly one sample per tick; one upfront reserve
  // keeps the hot-loop appends reallocation-free.
  const auto total_ticks = static_cast<std::size_t>(
      (options_.sim_end - options_.sim_start + tick_ - 1) / tick_);
  for (Channel* ch : {hist_.it_power, hist_.loss, hist_.power, hist_.utilization,
                      hist_.queue_len, hist_.running, hist_.throttle, hist_.price,
                      hist_.carbon, hist_.pue, hist_.tower, hist_.supply,
                      hist_.cooling_kw, hist_.nodes_asleep, hist_.avg_freq,
                      hist_.max_inlet, hist_.thermal_leak, hist_.cdu_spread,
                      hist_.crac_supply, hist_.tripped_nodes}) {
    if (!ch) continue;
    ch->times.reserve(total_ticks);
    ch->values.reserve(total_ticks);
  }
  for (Channel* ch : hist_.rack_inlet) {
    ch->times.reserve(total_ticks);
    ch->values.reserve(total_ticks);
  }
  for (Channel* ch : hist_.rack_transient) {
    ch->times.reserve(total_ticks);
    ch->values.reserve(total_ticks);
  }
}

void SimulationEngine::SetupTransientThermal() {
  const TransientThermalSpec& ts = config_.cooling.transient;
  if (!ts.enabled) return;
  if (!hr_matrix_) {
    throw std::invalid_argument(
        "SimulationEngine: cooling.transient is enabled but system '" +
        config_.name + "' declares no thermal topology (cooling.topology)");
  }
  transient_on_ = true;
  supply_base_c_ = config_.cooling.supply_temp_c;
  crac_on_ = ts.CracEnabled();
  if (crac_on_ && ts.crac_min_supply_c > supply_base_c_) {
    throw std::invalid_argument(
        "SimulationEngine: cooling.transient.crac_min_supply_c (" +
        std::to_string(ts.crac_min_supply_c) +
        ") exceeds cooling.supply_temp_c (" + std::to_string(supply_base_c_) +
        "); the CRAC loop only ever lowers the supply below its base");
  }
  const std::size_t classes = config_.machines.size();
  class_trip_c_.assign(classes, 0.0);
  trip_on_ = false;
  for (std::size_t c = 0; c < classes; ++c) {
    const MachineClassSpec& cls = config_.machines[c];
    // A class-level trip temperature overrides the global one; <= 0 on both
    // levels means nodes of this class never trip.
    class_trip_c_[c] = cls.thermal_trip_c > 0.0 ? cls.thermal_trip_c : ts.trip_inlet_c;
    trip_on_ = trip_on_ || class_trip_c_[c] > 0.0;
  }
  const auto racks = static_cast<std::size_t>(hr_matrix_->racks());
  rack_class_nodes_.assign(racks * classes, 0);
  for (int n = 0; n < config_.TotalNodes(); ++n) {
    const auto r = static_cast<std::size_t>(hr_matrix_->RackOf(n));
    rack_class_nodes_[r * classes + static_cast<std::size_t>(config_.ClassOf(n))] += 1;
  }
  rack_mean_c_.assign(racks, supply_base_c_);
}

void SimulationEngine::AdoptState() {
  if (!options_.enable_cooling || hr_matrix_) state_.cooling.reset();
  if (!options_.enable_cooling || !hr_matrix_) state_.multi_cooling.reset();
  if (hr_matrix_) {
    if (state_.node_inlet_c.empty()) {
      // No heat has been integrated yet (a fresh engine, or a pre-thermal
      // snapshot on a thermal config): every inlet sits at the supply
      // setpoint until the first span publishes real temperatures.
      state_.node_inlet_c.assign(config_.TotalNodes(), config_.cooling.supply_temp_c);
    }
    class_idle_heat_w_.clear();
    for (const MachineClassSpec& m : config_.machines) {
      class_idle_heat_w_.push_back(m.node_power.IdleW());
    }
  }
  SetupTransientThermal();
  if (transient_on_) {
    const auto racks = static_cast<std::size_t>(hr_matrix_->racks());
    const std::size_t classes = config_.machines.size();
    if (state_.rack_temp_c.empty()) {
      // A fresh engine, or a pre-transient snapshot on a transient config:
      // start from the base supply.
      state_.rack_temp_c.assign(racks, supply_base_c_);
      state_.crac_supply_c = supply_base_c_;
    }
    if (state_.rack_class_tripped.empty()) {
      state_.rack_class_tripped.assign(racks * classes, 0);
    }
    // The tripped-node total is derived; rebuild it from the flags.
    tripped_node_count_ = 0;
    for (std::size_t i = 0; i < state_.rack_class_tripped.size(); ++i) {
      if (state_.rack_class_tripped[i]) tripped_node_count_ += rack_class_nodes_[i];
    }
  } else {
    state_.rack_temp_c.clear();
    state_.rack_class_tripped.clear();
    state_.crac_supply_c = 0.0;
    state_.thermal_event_pending = false;
  }
  BuildOutageSchedule();
  grid_cost_on_ = !options_.grid.price_usd_per_kwh.empty();
  grid_co2_on_ = !options_.grid.carbon_kg_per_kwh.empty();
  // Every time the effective cap, price, or carbon intensity can change
  // becomes an event: the calendar may not batch across one, and crossing
  // one marks the tick eventful so grid-reactive schedulers re-run.
  grid_events_ = options_.grid.BoundariesIn(options_.sim_start, options_.sim_end);
  if (state_.next_grid_event > grid_events_.size()) {
    throw std::invalid_argument("SimulationEngine::Restore: grid-event cursor " +
                                std::to_string(state_.next_grid_event) +
                                " outside the options' boundary schedule (" +
                                std::to_string(grid_events_.size()) + " entries)");
  }
  // Power-state vectors: fill what a fresh engine or a pre-power-state
  // snapshot lacks, then rebuild the derived per-class counters.
  const auto total = static_cast<std::size_t>(config_.TotalNodes());
  if (state_.node_pstate.empty()) state_.node_pstate.assign(total, 0);
  if (state_.node_mode.empty()) state_.node_mode.assign(total, NodePowerMode::kActive);
  if (state_.class_energy_j.empty()) {
    state_.class_energy_j.assign(config_.machines.size(), 0.0);
  }
  class_c_idle_.assign(config_.machines.size(), 0);
  class_s_sleep_.assign(config_.machines.size(), 0);
  nonzero_pstate_nodes_ = 0;
  waking_nodes_ = 0;
  for (int n = 0; n < config_.TotalNodes(); ++n) {
    if (state_.node_pstate[n] != 0) ++nonzero_pstate_nodes_;
    switch (state_.node_mode[n]) {
      case NodePowerMode::kCIdle: ++class_c_idle_[config_.ClassOf(n)]; break;
      case NodePowerMode::kSSleep: ++class_s_sleep_[config_.ClassOf(n)]; break;
      case NodePowerMode::kWaking: ++waking_nodes_; break;
      case NodePowerMode::kActive: break;
    }
  }
  class_energy_on_ = scheduler_->WantsPowerStates();
  if (class_energy_on_ && !state_.stats.has_class_energy()) {
    std::vector<std::string> names;
    names.reserve(config_.machines.size());
    for (const MachineClassSpec& m : config_.machines) names.push_back(m.name);
    state_.stats.SetClassNames(std::move(names));
    state_.stats.SetClassEnergy(state_.class_energy_j);
  }
  ResolveHistoryChannels();
}

void SimulationEngine::Initialize() {
  state_.now = options_.sim_start;
  state_.job_energy_j.assign(state_.jobs.size(), std::nan(""));
  AdoptState();

  // Window semantics (§3.2.2 / Fig. 3): dismiss jobs entirely outside the
  // simulated window, and jobs too large for the machine.
  for (std::size_t h = 0; h < state_.jobs.size(); ++h) {
    Job& job = state_.jobs[h];
    const bool ended_before_window =
        job.recorded_end >= 0 && job.recorded_end <= options_.sim_start;
    const bool submitted_after_window = job.submit_time >= options_.sim_end;
    const bool oversize = job.nodes_required > state_.rm->total_nodes();
    if (ended_before_window || submitted_after_window || oversize) {
      job.state = JobState::kDismissed;
      ++state_.counters.dismissed;
      continue;
    }
    // Flag head/tail truncation relative to the window (footnote 1): no
    // telemetry ground truth exists for these spans.
    if (job.recorded_start >= 0 && job.recorded_start < options_.sim_start) {
      job.trace_flags.truncated_head = true;
    }
    if (job.recorded_end >= 0 && job.recorded_end > options_.sim_end) {
      job.trace_flags.truncated_tail = true;
    }
  }

  if (options_.prepopulate) Prepopulate();

  // Remaining pending jobs enter by submit order.
  for (std::size_t h = 0; h < state_.jobs.size(); ++h) {
    if (state_.jobs[h].state == JobState::kPending) state_.submit_order.push_back(h);
  }
  std::stable_sort(state_.submit_order.begin(), state_.submit_order.end(),
                   [&](JobQueue::Handle a, JobQueue::Handle b) {
                     return state_.jobs[a].submit_time < state_.jobs[b].submit_time;
                   });
  state_.next_submit = 0;
  initialized_ = true;
}

void SimulationEngine::Prepopulate() {
  // Jobs running at sim_start are placed immediately so the twin starts in
  // the observed machine state rather than empty.  Their starts keep the
  // recorded value (so trace offsets line up) and they run to recorded_end.
  for (std::size_t h = 0; h < state_.jobs.size(); ++h) {
    Job& job = state_.jobs[h];
    if (job.state != JobState::kPending) continue;
    if (job.recorded_start < 0 || job.recorded_end < 0) continue;
    if (job.recorded_start >= options_.sim_start) continue;
    // recorded_end > sim_start is guaranteed (else dismissed above).
    std::vector<int> nodes;
    if (job.HasRecordedPlacement()) {
      bool ok = true;
      for (int n : job.recorded_nodes) {
        if (!state_.rm->IsFree(n)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        state_.rm->AllocateExact(job.recorded_nodes);
        nodes = job.recorded_nodes;
      }
    }
    if (nodes.empty()) {
      if (!state_.rm->CanAllocate(job.nodes_required)) {
        SRAPS_LOG_WARN << "prepopulate: no room for job " << job.id << " ("
                       << job.nodes_required << " nodes); dismissing";
        job.state = JobState::kDismissed;
        ++state_.counters.dismissed;
        continue;
      }
      nodes = state_.rm->Allocate(job.nodes_required);
    }
    job.assigned_nodes = std::move(nodes);
    job.start = job.recorded_start;
    job.end = job.recorded_end;
    job.state = JobState::kRunning;
    state_.job_energy_j[h] = 0.0;
    state_.running.push_back(h);
    PushCompletion(job.end, h);
    ++state_.counters.prepopulated;
    scheduler_->OnJobStarted(job);
  }
}

SimDuration SimulationEngine::RealizedRuntime(const Job& job) const {
  // Rescheduled jobs keep their *actual* recorded duration — the scheduler
  // only moves the start.  Jobs without a recorded runtime (live/synthetic
  // submissions) run to their wall-time limit.
  if (job.recorded_start >= 0 && job.recorded_end >= job.recorded_start) {
    return job.recorded_end - job.recorded_start;
  }
  if (job.time_limit > 0) return job.time_limit;
  throw std::logic_error("SimulationEngine: job " + std::to_string(job.id) +
                         " has neither recorded runtime nor time limit");
}

void SimulationEngine::ApplyOutages() {
  while (state_.next_outage_begin < outage_begins_.size() &&
         outage_begins_[state_.next_outage_begin].first <= state_.now) {
    // A sleeping or mid-wake node hit by an outage is force-woken first so
    // MarkDown sees a free node and takes it straight out of service (its
    // pending wake event, if any, goes stale and is dropped lazily).
    for (int n : outage_begins_[state_.next_outage_begin].second) {
      if (!state_.rm->IsAsleep(n)) continue;
      state_.rm->MarkAwake(n);
      switch (state_.node_mode[n]) {
        case NodePowerMode::kCIdle: --class_c_idle_[config_.ClassOf(n)]; break;
        case NodePowerMode::kSSleep: --class_s_sleep_[config_.ClassOf(n)]; break;
        case NodePowerMode::kWaking: --waking_nodes_; break;
        case NodePowerMode::kActive: break;
      }
      state_.node_mode[n] = NodePowerMode::kActive;
    }
    state_.rm->MarkDown(outage_begins_[state_.next_outage_begin].second);
    ++state_.next_outage_begin;
    state_.events_this_tick = true;
  }
  while (state_.next_outage_end < outage_ends_.size() &&
         outage_ends_[state_.next_outage_end].first <= state_.now) {
    // Overlapping outage windows may already have recovered a node; only
    // bring back what is actually out of service.
    std::vector<int> to_recover;
    for (int n : outage_ends_[state_.next_outage_end].second) {
      if (state_.rm->IsDown(n) || state_.rm->IsPendingDown(n)) to_recover.push_back(n);
    }
    if (!to_recover.empty()) state_.rm->MarkUp(to_recover);
    ++state_.next_outage_end;
    state_.events_this_tick = true;
  }
}

void SimulationEngine::ApplyGridEvents() {
  while (state_.next_grid_event < grid_events_.size() &&
         grid_events_[state_.next_grid_event] <= state_.now) {
    ++state_.next_grid_event;
    ++state_.counters.grid_events;
    // A cap/price/carbon change is a system event: grid-reactive schedulers
    // (grid_aware holds jobs for cheap windows) must be re-invoked.
    state_.events_this_tick = true;
  }
}

double SimulationEngine::EffectiveCapW() const {
  return options_.grid.EffectiveCapW(state_.now, options_.power_cap_w);
}

bool SimulationEngine::SetNodePState(int node, int p) {
  if (node < 0 || node >= config_.TotalNodes()) {
    throw std::out_of_range("SimulationEngine::SetNodePState: node " +
                            std::to_string(node) + " outside [0, " +
                            std::to_string(config_.TotalNodes()) + ")");
  }
  const MachineClassSpec& cls = config_.MachineClassOf(node);
  if (p < 0 || p >= cls.NumPStates()) return false;
  if (state_.node_mode[node] != NodePowerMode::kActive) return false;
  if (state_.rm->IsDown(node)) return false;
  if (state_.node_pstate[node] == static_cast<std::uint8_t>(p)) return false;
  const bool was_zero = state_.node_pstate[node] == 0;
  state_.node_pstate[node] = static_cast<std::uint8_t>(p);
  if (was_zero && p != 0) ++nonzero_pstate_nodes_;
  if (!was_zero && p == 0) --nonzero_pstate_nodes_;
  ++state_.counters.pstate_changes;
  state_.power_event_pending = true;
  state_.events_this_tick = true;
  return true;
}

bool SimulationEngine::SleepNode(int node, bool deep) {
  if (node < 0 || node >= config_.TotalNodes()) {
    throw std::out_of_range("SimulationEngine::SleepNode: node " +
                            std::to_string(node) + " outside [0, " +
                            std::to_string(config_.TotalNodes()) + ")");
  }
  const MachineClassSpec& cls = config_.MachineClassOf(node);
  const SleepStateSpec& state = deep ? cls.s_state : cls.c_state;
  if (!state.enabled) return false;
  if (state_.node_mode[node] != NodePowerMode::kActive) return false;
  if (!state_.rm->IsFree(node) || state_.rm->IsDown(node)) return false;
  state_.rm->MarkAsleep(node);
  const std::size_t c = config_.ClassOf(node);
  if (deep) {
    state_.node_mode[node] = NodePowerMode::kSSleep;
    ++class_s_sleep_[c];
  } else {
    state_.node_mode[node] = NodePowerMode::kCIdle;
    ++class_c_idle_[c];
  }
  ++state_.counters.nodes_slept;
  state_.power_event_pending = true;
  state_.events_this_tick = true;
  return true;
}

bool SimulationEngine::WakeNode(int node) {
  if (node < 0 || node >= config_.TotalNodes()) {
    throw std::out_of_range("SimulationEngine::WakeNode: node " +
                            std::to_string(node) + " outside [0, " +
                            std::to_string(config_.TotalNodes()) + ")");
  }
  const NodePowerMode mode = state_.node_mode[node];
  if (mode != NodePowerMode::kCIdle && mode != NodePowerMode::kSSleep) return false;
  const MachineClassSpec& cls = config_.MachineClassOf(node);
  const bool deep = mode == NodePowerMode::kSSleep;
  const std::size_t c = config_.ClassOf(node);
  if (deep) {
    --class_s_sleep_[c];
  } else {
    --class_c_idle_[c];
  }
  const SimDuration latency = cls.WakeLatencyS(deep);
  if (latency <= 0) {
    state_.rm->MarkAwake(node);
    state_.node_mode[node] = NodePowerMode::kActive;
    ++state_.counters.nodes_woken;
  } else {
    // During the transition the node draws active idle but stays
    // unallocatable; the wake event completes it (a calendar event, so the
    // batched path cannot hop across the latency).
    state_.node_mode[node] = NodePowerMode::kWaking;
    ++waking_nodes_;
    state_.wake_events.emplace_back(state_.now + latency, node);
    std::push_heap(state_.wake_events.begin(), state_.wake_events.end(),
                   std::greater<>{});
  }
  state_.power_event_pending = true;
  state_.events_this_tick = true;
  return true;
}

int SimulationEngine::NodePState(int node) const {
  if (node < 0 || node >= config_.TotalNodes()) {
    throw std::out_of_range("SimulationEngine::NodePState: node " +
                            std::to_string(node) + " outside [0, " +
                            std::to_string(config_.TotalNodes()) + ")");
  }
  return state_.node_pstate[node];
}

NodePowerMode SimulationEngine::NodeMode(int node) const {
  if (node < 0 || node >= config_.TotalNodes()) {
    throw std::out_of_range("SimulationEngine::NodeMode: node " +
                            std::to_string(node) + " outside [0, " +
                            std::to_string(config_.TotalNodes()) + ")");
  }
  return state_.node_mode[node];
}

int SimulationEngine::nodes_asleep() const {
  int total = waking_nodes_;
  for (int c : class_c_idle_) total += c;
  for (int s : class_s_sleep_) total += s;
  return total;
}

void SimulationEngine::ApplyWakeEvents() {
  while (!state_.wake_events.empty() && state_.wake_events.front().first <= state_.now) {
    const int node = state_.wake_events.front().second;
    std::pop_heap(state_.wake_events.begin(), state_.wake_events.end(), std::greater<>{});
    state_.wake_events.pop_back();
    // Stale entries (the node was force-woken by an outage, or went down
    // mid-wake) are simply dropped.
    if (state_.node_mode[node] != NodePowerMode::kWaking) continue;
    state_.rm->MarkAwake(node);
    state_.node_mode[node] = NodePowerMode::kActive;
    --waking_nodes_;
    ++state_.counters.nodes_woken;
    state_.events_this_tick = true;
  }
}

void SimulationEngine::FillPowerContext(SchedulerContext& ctx) {
  ctx.config = &config_;
  ctx.node_pstate = &state_.node_pstate;
  ctx.node_mode = &state_.node_mode;
  ctx.effective_cap_w = EffectiveCapW();
  ctx.last_wall_power_w = state_.last_wall_power_w;
  ctx.last_busy_power_w = state_.last_busy_power_w;
  if (hr_matrix_) {
    ctx.hr_matrix = hr_matrix_.get();
    ctx.node_inlet_c = &state_.node_inlet_c;
    ctx.supply_temp_c = config_.cooling.supply_temp_c;
  }
}

void SimulationEngine::CallPowerPlan() {
  if (!scheduler_->WantsPowerStates()) return;
  if (options_.event_triggered_scheduling && !state_.events_this_tick) return;
  SchedulerContext ctx;
  ctx.now = state_.now;
  ctx.jobs = &state_.jobs;
  ctx.queue = &state_.queue;
  ctx.rm = &*state_.rm;
  ctx.had_events = state_.events_this_tick;
  FillPowerContext(ctx);
  ++state_.counters.power_plan_invocations;
  const std::vector<PowerAction> actions = scheduler_->PlanPowerStates(ctx);
  for (const PowerAction& a : actions) {
    // Actions are proposals; anything stale (node went down, a job landed on
    // it, rung out of range) is skipped via the bool returns.
    if (a.node < 0 || a.node >= config_.TotalNodes()) continue;
    switch (a.kind) {
      case PowerAction::Kind::kSetPState: SetNodePState(a.node, a.pstate); break;
      case PowerAction::Kind::kSleep: SleepNode(a.node, a.deep); break;
      case PowerAction::Kind::kWake: WakeNode(a.node); break;
    }
  }
}

void SimulationEngine::PushCompletion(SimTime end, JobQueue::Handle h) {
  state_.completions.emplace_back(end, h);
  std::push_heap(state_.completions.begin(), state_.completions.end(), std::greater<>{});
}

void SimulationEngine::PopCompletion() {
  std::pop_heap(state_.completions.begin(), state_.completions.end(), std::greater<>{});
  state_.completions.pop_back();
}

SimTime SimulationEngine::NextCompletionTime() {
  while (!state_.completions.empty()) {
    const auto [end, h] = state_.completions.front();
    if (state_.jobs[h].state != JobState::kRunning) {
      PopCompletion();  // completed via an earlier sweep; entry is dead
      continue;
    }
    if (state_.jobs[h].end != end) {
      // Stale key: power-cap throttling dilated this job after the push.
      // Dilation only moves ends later, so re-keying on pop is safe.
      PopCompletion();
      PushCompletion(state_.jobs[h].end, h);
      continue;
    }
    return end;
  }
  return kNever;
}

void SimulationEngine::ClearCompleted() {
  // Step (1): release finished jobs *before* scheduling so a node can end
  // one job and start another within the same time step.  The heap top
  // bounds every running end from below, so the linear sweep (which keeps
  // the running list in start order for deterministic power summation) only
  // runs on steps where at least one job actually finishes.
  if (NextCompletionTime() > state_.now) return;
  std::vector<JobQueue::Handle> still_running;
  still_running.reserve(state_.running.size());
  for (JobQueue::Handle h : state_.running) {
    if (state_.jobs[h].end <= state_.now) {
      CompleteJob(h);
      state_.events_this_tick = true;
    } else {
      still_running.push_back(h);
    }
  }
  state_.running.swap(still_running);
}

void SimulationEngine::CompleteJob(JobQueue::Handle h) {
  Job& job = state_.jobs[h];
  state_.rm->Release(job.assigned_nodes);
  job.state = JobState::kCompleted;
  ++state_.counters.completed;
  const double energy = state_.job_energy_j[h];
  state_.stats.RecordCompletion(job, energy);
  if (options_.track_accounts) state_.accounts.RecordCompletion(job, energy);
  scheduler_->OnJobCompleted(job);
}

void SimulationEngine::EnqueueEligible() {
  // Step (2): the twin observes jobs as they are submitted; nothing enters
  // the queue early, so schedules cannot be precomputed.
  while (state_.next_submit < state_.submit_order.size()) {
    const JobQueue::Handle h = state_.submit_order[state_.next_submit];
    Job& job = state_.jobs[h];
    if (job.submit_time > state_.now) break;
    ++state_.next_submit;
    job.state = JobState::kQueued;
    state_.queue.Push(h);
    ++state_.counters.submitted;
    state_.events_this_tick = true;
    scheduler_->OnJobSubmitted(job);
  }
}

void SimulationEngine::CallSchedule() {
  // Step (3).
  if (options_.event_triggered_scheduling && !state_.events_this_tick &&
      !state_.queue.empty() && !scheduler_->NeedsTimeTriggered()) {
    ++state_.counters.scheduler_skips;
    return;
  }
  if (state_.queue.empty()) return;

  std::vector<RunningJobView> running_view;
  running_view.reserve(state_.running.size());
  for (JobQueue::Handle h : state_.running) {
    const Job& job = state_.jobs[h];
    SimDuration estimate;
    if (job.time_limit > 0) {
      estimate = job.time_limit;
    } else {
      estimate = job.end - job.start;  // perfect estimate fallback
    }
    running_view.push_back(
        {job.id, static_cast<int>(job.assigned_nodes.size()), job.start + estimate});
  }

  SchedulerContext ctx;
  ctx.now = state_.now;
  ctx.jobs = &state_.jobs;
  ctx.queue = &state_.queue;
  ctx.rm = &*state_.rm;
  ctx.running = &running_view;
  ctx.had_events = state_.events_this_tick;
  FillPowerContext(ctx);
  ++state_.counters.scheduler_invocations;
  const std::vector<Placement> placements = scheduler_->Schedule(ctx);

  for (const Placement& p : placements) {
    if (p.handle >= state_.jobs.size()) {
      throw std::runtime_error("scheduler returned invalid handle");
    }
    if (state_.jobs[p.handle].state != JobState::kQueued) {
      throw std::runtime_error("scheduler placed job " +
                               std::to_string(state_.jobs[p.handle].id) +
                               " which is not queued");
    }
    StartJob(p.handle, p);
  }
}

void SimulationEngine::StartJob(JobQueue::Handle h, const Placement& placement) {
  Job& job = state_.jobs[h];
  const std::vector<int>& exact_nodes = placement.nodes;
  std::vector<int> nodes;
  if (!exact_nodes.empty()) {
    if (static_cast<int>(exact_nodes.size()) != job.nodes_required) {
      throw std::runtime_error("placement for job " + std::to_string(job.id) + " has " +
                               std::to_string(exact_nodes.size()) + " nodes, requires " +
                               std::to_string(job.nodes_required));
    }
    state_.rm->AllocateExact(exact_nodes);  // throws if the scheduler double-booked
    nodes = exact_nodes;
  } else if (placement.score) {
    nodes = state_.rm->AllocateScored(job.nodes_required, placement.score);
  } else {
    nodes = state_.rm->Allocate(job.nodes_required);
  }
  job.assigned_nodes = std::move(nodes);
  job.start = state_.now;
  if (placement.anchor_recorded_end && job.recorded_end > state_.now) {
    job.end = job.recorded_end;
  } else {
    job.end = state_.now + RealizedRuntime(job);
  }
  job.state = JobState::kRunning;
  state_.job_energy_j[h] = 0.0;
  state_.queue.Remove(h);
  state_.running.push_back(h);
  PushCompletion(job.end, h);
  ++state_.counters.started;
  scheduler_->OnJobStarted(job);
}

SimDuration SimulationEngine::TicksUntilTraceChange(const Job& job,
                                                    SimDuration elapsed) const {
  constexpr SimDuration kFlat = std::numeric_limits<SimDuration>::max();
  const auto ticks_until = [&](const TraceSeries& t) -> SimDuration {
    const SimDuration off = t.NextOffsetAfter(elapsed);
    return off < 0 ? kFlat : TicksToReach(elapsed, off, tick_);
  };
  // The power model prefers the direct power trace; utilisation traces only
  // matter when it is absent, and a job with no traces draws nominal
  // (constant) busy power.
  if (!job.node_power_w.empty()) return ticks_until(job.node_power_w);
  SimDuration n = kFlat;
  if (!job.cpu_util.empty()) n = std::min(n, ticks_until(job.cpu_util));
  if (!job.gpu_util.empty()) n = std::min(n, ticks_until(job.gpu_util));
  return n;
}

SimDuration SimulationEngine::SpanTicks() {
  // A time-triggered scheduler (replay waits on recorded starts; external
  // simulators hold future reservations) may act on any tick while jobs are
  // queued — so may the per-tick scheduler when event triggering is off.
  if (!state_.queue.empty() &&
      (!options_.event_triggered_scheduling || scheduler_->NeedsTimeTriggered())) {
    return 1;
  }
  if (scheduler_->WantsPowerStates()) {
    // Without event triggering the power planner runs every tick, so the
    // calendar may not batch at all; a just-applied action makes the next
    // iteration eventful (re-plan), so it must be a single tick too.
    if (!options_.event_triggered_scheduling) return 1;
    if (state_.power_event_pending) return 1;
  }
  SimTime next = NextCompletionTime();
  if (!state_.wake_events.empty()) {
    next = std::min(next, state_.wake_events.front().first);
  }
  if (state_.next_submit < state_.submit_order.size()) {
    const Job& job = state_.jobs[state_.submit_order[state_.next_submit]];
    next = std::min(next, job.submit_time);
  }
  if (state_.next_outage_begin < outage_begins_.size()) {
    next = std::min(next, outage_begins_[state_.next_outage_begin].first);
  }
  if (state_.next_outage_end < outage_ends_.size()) {
    next = std::min(next, outage_ends_[state_.next_outage_end].first);
  }
  if (state_.next_grid_event < grid_events_.size()) {
    // Cap / price / carbon boundaries: the effective cap and signal values
    // are provably constant on every tick short of the next one.
    next = std::min(next, grid_events_[state_.next_grid_event]);
  }
  // RunUntilExact's limit: stop the hop exactly at the requested boundary.
  // Splitting the span is bit-identical for everything but the
  // calendar_steps/batched_ticks diagnostics (see RunUntilExact).
  if (span_limit_ < options_.sim_end) next = std::min(next, span_limit_);
  // Every pending event lies strictly ahead (<= now was processed this
  // step), and throttle dilation only moves completions later, so hopping to
  // the first tick at or past `next` can never skip over an event.
  const SimDuration remaining = TicksToReach(state_.now, options_.sim_end, tick_);
  SimDuration n = next == kNever
                      ? remaining
                      : std::min(remaining, TicksToReach(state_.now, next, tick_));
  // Bound the span by the next trace-sample boundary of any running job so
  // one power computation provably covers every tick in it (this is also
  // where an active power cap gets re-evaluated: throttle can only change
  // when sampled power does).
  for (JobQueue::Handle h : state_.running) {
    if (n <= 1) break;
    const Job& job = state_.jobs[h];
    n = std::min(n, TicksUntilTraceChange(job, state_.now - job.start));
  }
  return std::max<SimDuration>(1, n);
}

void SimulationEngine::ApplyThermalLayer(PowerSample& power, bool machine_idle) {
  if (!hr_matrix_) return;
  const double supply = config_.cooling.supply_temp_c;
  const double fan_leak = config_.cooling.topology.fan_leak_w_per_k;
  const auto total = static_cast<std::size_t>(config_.TotalNodes());
  if (machine_idle) {
    // Fully idle machine (every node active at P0, including down nodes,
    // which draw idle in the electrical model too): heat is the per-class
    // idle draw, so the inlet temperatures and the leak are pure constants.
    // The matvec result is cached like idle_sample_; the O(N) heat fill
    // still runs because the multi-CDU split below reads node_heat_w_.
    node_heat_w_.resize(total);
    for (std::size_t n = 0; n < total; ++n) {
      node_heat_w_[n] = class_idle_heat_w_[config_.ClassOf(static_cast<int>(n))];
    }
    if (idle_leak_w_ < 0.0) {
      hr_matrix_->InletTemps(node_heat_w_, supply, &idle_inlet_c_);
      idle_leak_w_ = 0.0;
      for (double t : idle_inlet_c_) idle_leak_w_ += std::max(0.0, t - supply);
      idle_leak_w_ *= fan_leak;
    }
    inlet_scratch_ = idle_inlet_c_;
    thermal_leak_w_ = idle_leak_w_;
  } else {
    node_heat_w_.resize(total);
    for (std::size_t n = 0; n < total; ++n) {
      const double busy_w = node_busy_w_scratch_[n];
      if (busy_w >= 0.0) {
        node_heat_w_[n] = busy_w;
        continue;
      }
      const int node = static_cast<int>(n);
      const MachineClassSpec& cls = config_.MachineClassOf(node);
      switch (state_.node_mode[n]) {
        case NodePowerMode::kCIdle:
          node_heat_w_[n] = cls.SleepPowerW(false);
          break;
        case NodePowerMode::kSSleep:
          node_heat_w_[n] = cls.SleepPowerW(true);
          break;
        default:
          node_heat_w_[n] = class_idle_heat_w_[config_.ClassOf(node)];
          break;
      }
    }
    hr_matrix_->InletTemps(node_heat_w_, supply, &inlet_scratch_);
    double excess_k = 0.0;
    for (double t : inlet_scratch_) excess_k += std::max(0.0, t - supply);
    thermal_leak_w_ = fan_leak * excess_k;
  }
  // The leak is rack-fan overhead, not job power: it joins the idle share of
  // the IT draw, so cap throttling still sheds only job power and the
  // per-job energy integration below stays untouched.
  power.it_power_w += thermal_leak_w_;
  power.loss_w = power_model_.conversion().LossW(power.it_power_w);
  power.wall_power_w = power.it_power_w + power.loss_w;
}

void SimulationEngine::TransientPhysicsTick(double& supply_c,
                                            std::vector<double>& rack_c) const {
  const TransientThermalSpec& ts = config_.cooling.transient;
  const double dt = static_cast<double>(tick_);
  if (crac_on_) {
    // CRAC supply control: track the hottest rack inlet toward the target by
    // adjusting the supply, slew-limited, floored at crac_min and never above
    // the base setpoint (the loop only ever removes heat).
    double hottest = rack_c.empty() ? supply_c : rack_c[0];
    for (const double t : rack_c) hottest = std::max(hottest, t);
    double desired = supply_c - (hottest - ts.crac_target_max_inlet_c);
    // Manual max-then-min instead of std::clamp: SetupTransientThermal only
    // guarantees crac_min <= base, so the two bounds are applied in a fixed
    // order rather than assumed consistent per call.
    desired = std::max(desired, ts.crac_min_supply_c);
    desired = std::min(desired, supply_base_c_);
    double delta = desired - supply_c;
    const double max_step = ts.crac_slew_c_per_s * dt;
    delta = std::max(-max_step, std::min(max_step, delta));
    supply_c += delta;
  }
  // First-order rack lag toward the quasi-static target.  When the CRAC has
  // not moved the supply, the target IS the quasi-static rack mean, bitwise —
  // that equality is what makes the zero-mass degenerate case reproduce the
  // pre-transient channels exactly.
  const double alpha =
      ts.rack_tau_s <= 0.0 ? 1.0 : dt / (ts.rack_tau_s + dt);
  for (std::size_t r = 0; r < rack_c.size(); ++r) {
    const double target = supply_c == supply_base_c_
                              ? rack_mean_c_[r]
                              : supply_c + (rack_mean_c_[r] - supply_base_c_);
    if (alpha >= 1.0) {
      rack_c[r] = target;  // zero thermal mass: assignment, not arithmetic
    } else {
      rack_c[r] += alpha * (target - rack_c[r]);
    }
  }
}

SimDuration SimulationEngine::TransientSpanBound(SimDuration n) {
  // Trip/clear edges must land on step boundaries: simulate the span's
  // transient trajectory on scratch copies and stop at the first tick whose
  // temperatures would flip any (rack, class) trip flag.  The executor then
  // repeats the identical arithmetic on the real state, so prediction and
  // execution agree bit for bit.
  if (n <= 1) return n;
  const TransientThermalSpec& ts = config_.cooling.transient;
  pred_rack_c_ = state_.rack_temp_c;
  double supply = state_.crac_supply_c;
  const std::size_t classes = config_.machines.size();
  for (SimDuration k = 1; k <= n; ++k) {
    TransientPhysicsTick(supply, pred_rack_c_);
    for (std::size_t r = 0; r < pred_rack_c_.size(); ++r) {
      for (std::size_t c = 0; c < classes; ++c) {
        const double trip_c = class_trip_c_[c];
        if (trip_c <= 0.0 || rack_class_nodes_[r * classes + c] == 0) continue;
        const bool tripped = state_.rack_class_tripped[r * classes + c] != 0;
        if (!tripped && pred_rack_c_[r] > trip_c) return k;
        if (tripped && pred_rack_c_[r] < trip_c - ts.clear_margin_c) return k;
      }
    }
  }
  return n;
}

bool SimulationEngine::ApplyThermalFlips() {
  const TransientThermalSpec& ts = config_.cooling.transient;
  const std::size_t classes = config_.machines.size();
  bool flipped = false;
  for (std::size_t r = 0; r < state_.rack_temp_c.size(); ++r) {
    for (std::size_t c = 0; c < classes; ++c) {
      const double trip_c = class_trip_c_[c];
      const std::size_t idx = r * classes + c;
      if (trip_c <= 0.0 || rack_class_nodes_[idx] == 0) continue;
      if (!state_.rack_class_tripped[idx] && state_.rack_temp_c[r] > trip_c) {
        state_.rack_class_tripped[idx] = 1;
        tripped_node_count_ += rack_class_nodes_[idx];
        ++state_.counters.thermal_trips;
        flipped = true;
      } else if (state_.rack_class_tripped[idx] &&
                 state_.rack_temp_c[r] < trip_c - ts.clear_margin_c) {
        state_.rack_class_tripped[idx] = 0;
        tripped_node_count_ -= rack_class_nodes_[idx];
        ++state_.counters.thermal_clears;
        flipped = true;
      }
    }
  }
  return flipped;
}

double SimulationEngine::JobTripFactor(const Job& job) const {
  const std::size_t classes = config_.machines.size();
  for (const int node : job.assigned_nodes) {
    const auto r = static_cast<std::size_t>(hr_matrix_->RackOf(node));
    if (state_.rack_class_tripped[r * classes +
                            static_cast<std::size_t>(config_.ClassOf(node))]) {
      return config_.cooling.transient.trip_throttle;
    }
  }
  return 1.0;
}

SimDuration SimulationEngine::AdvanceTicks(SimDuration n) {
  // Step (4), batched: the caller guarantees ticks 2..n are event-free with
  // the same sampled power as tick 1, so one power/throttle computation
  // covers the whole span and every per-tick arithmetic below repeats the
  // tick-by-tick loop operation for operation.
  // Power states are "active" only while some node is off P0 or in a C/S
  // state; nodes mid-wake draw active idle, which the legacy arithmetic
  // already models, so a waking-only machine stays on the fast path.
  int sleeping_nodes = 0;
  for (int c : class_c_idle_) sleeping_nodes += c;
  for (int s : class_s_sleep_) sleeping_nodes += s;
  const bool ps_active = nonzero_pstate_nodes_ > 0 || sleeping_nodes > 0;
  // Thermal-trip dilation state entering the span.  Flips can only happen at
  // the span's last tick (TransientSpanBound truncates to guarantee it), so
  // the flags are span-constant for the dilation arithmetic below.
  const bool trips_active = trip_on_ && tripped_node_count_ > 0;

  PowerSample power;
  const bool use_idle_cache = state_.running.empty() && !ps_active;
  if (use_idle_cache) {
    // A fully idle machine draws a constant: every node at idle power.
    // P-states never stale the cache — they only scale busy dynamic power,
    // and this branch requires every node active at P0.
    if (!idle_sample_) {
      idle_sample_ = power_model_.Compute(
          {}, state_.now, nullptr, nullptr, nullptr,
          class_energy_on_ ? &idle_class_w_ : nullptr);
    }
    power = *idle_sample_;
    job_power_scratch_.clear();
  } else {
    running_scratch_.clear();
    running_scratch_.reserve(state_.running.size());
    for (JobQueue::Handle h : state_.running) running_scratch_.push_back(&state_.jobs[h]);
    const PowerStateView psv{&state_.node_pstate, &class_c_idle_, &class_s_sleep_};
    power = power_model_.Compute(running_scratch_, state_.now, &job_power_scratch_,
                                 ps_active ? &psv : nullptr,
                                 ps_active ? &job_freq_scratch_ : nullptr,
                                 class_energy_on_ ? &class_w_scratch_ : nullptr,
                                 hr_matrix_ ? &node_busy_w_scratch_ : nullptr);
  }

  // Thermal topology: fold the span's per-node heat through the
  // recirculation matrix and add the temperature-dependent fan/leakage
  // overhead before the cap reads the wall power.  Inputs are exactly the
  // span-constant sampled draws, so the result is span-constant too and the
  // calendar stays bit-identical to tick stepping.
  ApplyThermalLayer(power, use_idle_cache);

  // Per-rack mean quasi-static inlets, shared by the transient-thermal
  // targets and the rack history channels below.  Summation order matches
  // the original per-rack channel fill exactly, so the zero-mass degenerate
  // case reproduces the quasi-static values bit for bit.
  if (hr_matrix_ && (transient_on_ || hist_.max_inlet)) {
    const int per_rack = hr_matrix_->nodes_per_rack();
    const auto racks = static_cast<std::size_t>(hr_matrix_->racks());
    rack_mean_c_.resize(racks);
    for (int r = 0; r < static_cast<int>(racks); ++r) {
      double sum = 0.0;
      for (int k = 0; k < per_rack; ++k) {
        sum += inlet_scratch_[static_cast<std::size_t>(r * per_rack + k)];
      }
      rack_mean_c_[static_cast<std::size_t>(r)] = sum / per_rack;
    }
  }

  // Thermal-trip edges must land on step boundaries in both stepping modes:
  // truncate the span at the first tick whose transient temperatures would
  // flip a trip flag.  RC/CRAC state alone generates no events, so spans
  // stay unbounded when no trip temperature is configured.
  if (trip_on_) n = TransientSpanBound(n);
  if (n > 1 && !state_.queue.empty()) {
    // Ticks 2..n would each take CallSchedule's event-free skip branch.
    state_.counters.scheduler_skips += static_cast<std::size_t>(n - 1);
  }

  // The *demand* the machine sampled this span (pre-cap, post-P-state): what
  // pace_to_cap reads to decide whether the ladder must step down to fit the
  // effective cap — by the time uniform throttling has clipped the draw, the
  // excess is invisible in the post-throttle wall power.
  state_.last_wall_power_w = power.wall_power_w;
  state_.last_busy_power_w = power.busy_power_w;

  // Demand watch (SetPowerWatch): record the first step whose pre-cap demand
  // would make a cap of threshold_w (or tighter) bind — the same comparison
  // the throttle below performs against its cap.  Demand is span-constant
  // (trace boundaries bound spans), so the span start is the exact first
  // tick, in tick and calendar mode alike.
  if (power_watch_threshold_w_ > 0.0 &&
      power_watch_tripped_at_ == std::numeric_limits<SimTime>::max() &&
      power.wall_power_w > power_watch_threshold_w_ && power.busy_power_w > 0.0) {
    power_watch_tripped_at_ = state_.now;
  }

  // Facility power cap: throttle all running jobs uniformly so the wall
  // power meets the cap; runtimes dilate by the inverse factor.  The cap in
  // force is dynamic — the static cap tightened by any active demand-
  // response window — and is constant across the span: DR edges are
  // calendar events, so no span straddles a cap change.
  const double dt = static_cast<double>(tick_);
  const double cap_w = EffectiveCapW();
  double throttle = 1.0;
  if (cap_w > 0.0 && power.wall_power_w > cap_w && power.busy_power_w > 0.0) {
    const double idle_wall = power.wall_power_w - power.busy_power_w;
    throttle = (cap_w - idle_wall) / power.busy_power_w;
    throttle = std::max(0.1, std::min(1.0, throttle));  // DVFS floor at 10 %
    const double shed = (1.0 - throttle) * power.busy_power_w;
    power.busy_power_w -= shed;
    power.it_power_w -= shed;
    power.loss_w = power_model_.conversion().LossW(power.it_power_w);
    power.wall_power_w = power.it_power_w + power.loss_w;
  }
  // Runtime dilation: each tick only completes `eff * dt` worth of work, so
  // each job's end recedes by the missing dt*(1 - eff) per tick (net progress
  // per tick is then exactly eff * dt).  eff = throttle * freq * trip:
  //  - throttle, the uniform cap factor above;
  //  - freq, the job's slowest P-state rung across its nodes (power states
  //    only) — a rung change is a power event bounding spans to one tick, so
  //    freq is span-constant like the cap;
  //  - trip, the thermal-trip factor (duty-cycle semantics: a throttled node
  //    keeps its sampled draw while its work slows, so wall power stays
  //    span-constant and the cap / demand-watch reasoning above is untouched).
  // An absent factor is an exact 1.0, and eff >= 1 extends nothing, so an
  // unthrottled job's end is untouched.  Ends only move later, preserving the
  // completion heap's lazy re-key invariant; the heap itself is not touched.
  if (throttle < 1.0 || ps_active || trips_active) {
    for (std::size_t i = 0; i < state_.running.size(); ++i) {
      Job& job = state_.jobs[state_.running[i]];
      const double freq =
          ps_active && i < job_freq_scratch_.size() ? job_freq_scratch_[i] : 1.0;
      const double trip = trips_active ? JobTripFactor(job) : 1.0;
      const double eff = throttle * freq * trip;
      if (eff >= 1.0) continue;
      const auto ext = static_cast<SimDuration>(std::llround(dt * (1.0 - eff)));
      job.end += ext * n;
    }
  }

  // Accumulate per-job energy over the span, reusing the draws Compute just
  // sampled.  The per-tick increment is constant, but the running sum must
  // reproduce the tick loop's repeated addition bit for bit, so it is added
  // n times rather than multiplied.
  for (std::size_t i = 0; i < state_.running.size(); ++i) {
    const double increment = job_power_scratch_[i] * throttle * dt;
    double acc = state_.job_energy_j[state_.running[i]];
    for (SimDuration k = 0; k < n; ++k) acc += increment;
    state_.job_energy_j[state_.running[i]] = acc;
  }

  // Per-class IT energy breakdown (power-state schedulers only, so the
  // legacy fast paths stay free of the O(classes) span work).  Sampled IT
  // draw, pre-cap-throttle; repeated addition for tick/calendar identity.
  if (class_energy_on_) {
    const std::vector<double>& class_w =
        use_idle_cache ? idle_class_w_ : class_w_scratch_;
    for (std::size_t c = 0; c < state_.class_energy_j.size(); ++c) {
      const double inc = class_w[c] * dt;
      double acc = state_.class_energy_j[c];
      for (SimDuration k = 0; k < n; ++k) acc += inc;
      state_.class_energy_j[c] = acc;
    }
    state_.stats.SetClassEnergy(state_.class_energy_j);
  }

  // Grid accounting: wall energy priced at the signals in force now.  Signal
  // boundaries are calendar events, so both values are constant across the
  // span and the per-tick increments repeat the tick loop's additions bit
  // for bit (same repeated-addition discipline as the job energy above).
  const double price_now =
      grid_cost_on_ ? options_.grid.price_usd_per_kwh.At(state_.now) : 0.0;
  const double carbon_now =
      grid_co2_on_ ? options_.grid.carbon_kg_per_kwh.At(state_.now) : 0.0;
  if (!state_.cooling && !state_.multi_cooling &&
      (grid_cost_on_ || grid_co2_on_ || options_.capture_grid_basis)) {
    const double kwh_per_tick = power.wall_power_w * dt / 3.6e6;
    // Replay basis: the exact per-tick kWh the integration below multiplies
    // by the signal values, so ReplayGridAccounting can redo the same
    // additions under re-scaled signals bit for bit.
    if (options_.capture_grid_basis) {
      state_.tick_wall_kwh.insert(state_.tick_wall_kwh.end(), static_cast<std::size_t>(n),
                            kwh_per_tick);
    }
    const double cost_inc = kwh_per_tick * price_now;
    const double co2_inc = kwh_per_tick * carbon_now;
    if (grid_cost_on_ || grid_co2_on_) {
      for (SimDuration k = 0; k < n; ++k) {
        state_.grid_cost_usd += cost_inc;
        state_.grid_co2_kg += co2_inc;
      }
    }
  }

  if (options_.record_history) {
    const auto count = static_cast<std::size_t>(n);
    hist_.it_power->AppendSpan(state_.now, tick_, count, power.it_power_w / 1000.0);
    hist_.loss->AppendSpan(state_.now, tick_, count, power.loss_w / 1000.0);
    if (!state_.cooling && !state_.multi_cooling) {
      hist_.power->AppendSpan(state_.now, tick_, count, power.wall_power_w / 1000.0);
    }
    hist_.utilization->AppendSpan(state_.now, tick_, count,
                                  power.node_utilization * 100.0);
    hist_.queue_len->AppendSpan(state_.now, tick_, count,
                                static_cast<double>(state_.queue.size()));
    hist_.running->AppendSpan(state_.now, tick_, count,
                              static_cast<double>(state_.running.size()));
    if (hist_.throttle) {
      hist_.throttle->AppendSpan(state_.now, tick_, count, throttle);
    }
    if (hist_.price) hist_.price->AppendSpan(state_.now, tick_, count, price_now);
    if (hist_.carbon) hist_.carbon->AppendSpan(state_.now, tick_, count, carbon_now);
    if (hist_.nodes_asleep) {
      hist_.nodes_asleep->AppendSpan(
          state_.now, tick_, count, static_cast<double>(sleeping_nodes + waking_nodes_));
    }
    if (hist_.avg_freq) {
      const double avg =
          power.busy_nodes > 0 ? power.busy_freq_sum / power.busy_nodes : 1.0;
      hist_.avg_freq->AppendSpan(state_.now, tick_, count, avg);
    }
    if (hist_.max_inlet) {
      // Inlet temperatures are span-constant (they are a pure function of
      // the span's sampled heat), so the per-rack heatmap channels batch
      // like every other electrical channel.
      double max_inlet = config_.cooling.supply_temp_c;
      for (double t : inlet_scratch_) max_inlet = std::max(max_inlet, t);
      hist_.max_inlet->AppendSpan(state_.now, tick_, count, max_inlet);
      hist_.thermal_leak->AppendSpan(state_.now, tick_, count,
                                     thermal_leak_w_ / 1000.0);
      for (std::size_t r = 0; r < hist_.rack_inlet.size(); ++r) {
        hist_.rack_inlet[r]->AppendSpan(state_.now, tick_, count, rack_mean_c_[r]);
      }
    }
  }

  if (state_.cooling) {
    // The loop's thermal state keeps its first-order lag even when the
    // electrical side is flat, so it (and the wall power that includes its
    // fans/pumps) advances tick by tick within the span — as does the grid
    // accounting, whose cost basis includes the cooling draw.
    for (SimDuration i = 0; i < n; ++i) {
      const CoolingSample cool = state_.cooling->Step(power.it_power_w, power.loss_w, dt);
      const double wall_w = power.wall_power_w + cool.cooling_power_w;
      if (grid_cost_on_ || grid_co2_on_ || options_.capture_grid_basis) {
        const double kwh = wall_w * dt / 3.6e6;
        if (options_.capture_grid_basis) state_.tick_wall_kwh.push_back(kwh);
        if (grid_cost_on_ || grid_co2_on_) {
          state_.grid_cost_usd += kwh * price_now;
          state_.grid_co2_kg += kwh * carbon_now;
        }
      }
      if (options_.record_history) {
        const SimTime t = state_.now + i * tick_;
        hist_.power->Append(t, wall_w / 1000.0);
        hist_.pue->Append(t, cool.pue);
        hist_.tower->Append(t, cool.tower_return_temp_c);
        hist_.supply->Append(t, cool.supply_temp_c);
        hist_.cooling_kw->Append(t, cool.cooling_power_w / 1000.0);
      }
    }
  }

  if (state_.multi_cooling) {
    // Placement-dependent heat split: each node's throttled draw plus its
    // fan-leak share lands on its rack's CDU (rack r feeds CDU r % num_cdus).
    // The split is a pure function of span-constant quantities, so it is
    // computed once and the per-tick loop below only advances the loops'
    // first-order lags — mirroring the lumped-cooling branch above.
    const int num_cdus = state_.multi_cooling->num_cdus();
    per_cdu_heat_scratch_.assign(static_cast<std::size_t>(num_cdus), 0.0);
    const double supply = config_.cooling.supply_temp_c;
    const double fan_leak = config_.cooling.topology.fan_leak_w_per_k;
    for (std::size_t node = 0; node < node_heat_w_.size(); ++node) {
      const bool busy =
          !use_idle_cache && node_busy_w_scratch_[node] >= 0.0;
      const double leak_share =
          fan_leak * std::max(0.0, inlet_scratch_[node] - supply);
      const double q =
          node_heat_w_[node] * (busy ? throttle : 1.0) + leak_share;
      const int cdu = hr_matrix_->RackOf(static_cast<int>(node)) % num_cdus;
      per_cdu_heat_scratch_[static_cast<std::size_t>(cdu)] += q;
    }
    for (SimDuration i = 0; i < n; ++i) {
      const MultiCduSample mc =
          state_.multi_cooling->Step(per_cdu_heat_scratch_, power.loss_w, dt);
      const double wall_w = power.wall_power_w + mc.facility.cooling_power_w;
      if (grid_cost_on_ || grid_co2_on_ || options_.capture_grid_basis) {
        const double kwh = wall_w * dt / 3.6e6;
        if (options_.capture_grid_basis) state_.tick_wall_kwh.push_back(kwh);
        if (grid_cost_on_ || grid_co2_on_) {
          state_.grid_cost_usd += kwh * price_now;
          state_.grid_co2_kg += kwh * carbon_now;
        }
      }
      if (options_.record_history) {
        const SimTime t = state_.now + i * tick_;
        hist_.power->Append(t, wall_w / 1000.0);
        hist_.pue->Append(t, mc.facility.pue);
        hist_.tower->Append(t, mc.facility.tower_return_temp_c);
        hist_.supply->Append(t, mc.facility.supply_temp_c);
        hist_.cooling_kw->Append(t, mc.facility.cooling_power_w / 1000.0);
        hist_.cdu_spread->Append(t, mc.spread_c);
      }
    }
  }

  if (transient_on_) {
    // Rack RC state and the CRAC loop evolve tick by tick within the span —
    // per-tick repeated iteration, not a closed-form exponential: iteration
    // is what keeps RunUntilExact's span splits bit-identical (see DESIGN.md).
    // The span bound above guarantees trip flips can only occur at the last
    // tick, so applying flips after each tick's physics reproduces the
    // tick-stepped order exactly.
    for (SimDuration i = 0; i < n; ++i) {
      TransientPhysicsTick(state_.crac_supply_c, state_.rack_temp_c);
      if (trip_on_ && ApplyThermalFlips()) state_.thermal_event_pending = true;
      if (options_.record_history) {
        const SimTime t = state_.now + i * tick_;
        for (std::size_t r = 0; r < state_.rack_temp_c.size(); ++r) {
          hist_.rack_transient[r]->Append(t, state_.rack_temp_c[r]);
        }
        if (hist_.crac_supply) hist_.crac_supply->Append(t, state_.crac_supply_c);
        if (hist_.tripped_nodes) {
          hist_.tripped_nodes->Append(t, static_cast<double>(tripped_node_count_));
        }
      }
    }
  }

  if (grid_cost_on_ || grid_co2_on_) {
    state_.stats.SetGridTotals(state_.grid_cost_usd, state_.grid_co2_kg);
  }

  if (hr_matrix_) {
    // Thermal stats: leak energy by repeated addition (tick/calendar
    // identity, like every other accumulator) and the run-wide hottest
    // inlet any node saw.
    const double leak_inc = thermal_leak_w_ * dt;
    for (SimDuration k = 0; k < n; ++k) state_.thermal_leak_j += leak_inc;
    for (const double t : inlet_scratch_) {
      state_.peak_inlet_c = std::max(state_.peak_inlet_c, t);
    }
    state_.stats.SetThermalTotals(state_.thermal_leak_j, state_.peak_inlet_c);
  }

  // Publish this span's inlet temperatures for the next scheduling pass.
  // Scheduling only happens on event-bearing ticks, which bound calendar
  // spans, so tick and calendar modes publish (and read) the same values.
  if (hr_matrix_) state_.node_inlet_c.swap(inlet_scratch_);

  state_.now += n * tick_;
  state_.events_this_tick = false;
  return n;
}

bool SimulationEngine::StepOnce() {
  if (!initialized_) throw std::logic_error("SimulationEngine: not initialised");
  if (state_.now >= options_.sim_end) return false;
  if (state_.power_event_pending) {
    // A power action applied last iteration is an event for this one, so
    // iterative planners (pace_to_cap's rung walk) observe its effect and
    // re-plan — in tick and calendar mode alike.
    state_.events_this_tick = true;
    state_.power_event_pending = false;
  }
  if (state_.thermal_event_pending) {
    // A trip/clear edge at the end of the last span is an event for this
    // step: the scheduler observes the throttled (or recovered) nodes at the
    // same sim time in tick and calendar mode.
    state_.events_this_tick = true;
    state_.thermal_event_pending = false;
  }
  const std::size_t started_before = state_.counters.started;
  const std::size_t completed_before = state_.counters.completed;
  ClearCompleted();
  ApplyOutages();
  ApplyWakeEvents();
  ApplyGridEvents();
  EnqueueEligible();
  CallPowerPlan();
  CallSchedule();
  if (class_energy_on_ && (state_.counters.started != started_before ||
                           state_.counters.completed != completed_before)) {
    // A start or completion moved the IT demand; make the next tick an event
    // so the power planner re-plans against the post-change wall power (the
    // same way an applied power action forces a re-plan).  Identical in tick
    // and calendar mode: CallSchedule runs on the same ticks in both.
    state_.power_event_pending = true;
  }
  if (options_.event_calendar) {
    const SimDuration n = SpanTicks();
    ++state_.counters.calendar_steps;
    // AdvanceTicks may truncate the span (thermal-trip edges), so the
    // batching diagnostics count the ticks actually advanced.
    const SimDuration advanced = AdvanceTicks(n);
    if (advanced > 1) state_.counters.batched_ticks += static_cast<std::size_t>(advanced);
  } else {
    AdvanceTicks(1);
  }
  return true;
}

void SimulationEngine::Run() {
  while (StepOnce()) {
  }
  // Final sweep so jobs ending exactly at sim_end are credited.
  ClearCompleted();
}

void SimulationEngine::RunUntil(SimTime t) {
  while (state_.now < t && StepOnce()) {
  }
}

void SimulationEngine::RunUntilExact(SimTime t) {
  span_limit_ = t;
  const SimTime untripped = std::numeric_limits<SimTime>::max();
  while (state_.now < t && power_watch_tripped_at_ == untripped && StepOnce()) {
  }
  span_limit_ = std::numeric_limits<SimTime>::max();
}

void SimulationEngine::SetPowerWatch(double threshold_w) {
  power_watch_threshold_w_ = threshold_w;
  power_watch_tripped_at_ = std::numeric_limits<SimTime>::max();
}

EngineState SimulationEngine::CaptureState() const { return state_; }

void SimulationEngine::ReplayGridAccounting() {
  if (!options_.capture_grid_basis) {
    throw std::logic_error("SimulationEngine::ReplayGridAccounting: the run was "
                           "not captured with capture_grid_basis");
  }
  const auto elapsed =
      static_cast<std::size_t>((state_.now - options_.sim_start) / tick_);
  if (state_.tick_wall_kwh.size() != elapsed) {
    throw std::logic_error(
        "SimulationEngine::ReplayGridAccounting: basis covers " +
        std::to_string(state_.tick_wall_kwh.size()) + " ticks, clock has advanced " +
        std::to_string(elapsed));
  }
  for (Channel* ch : {hist_.price, hist_.carbon}) {
    if (ch && ch->values.size() != state_.tick_wall_kwh.size()) {
      throw std::logic_error("SimulationEngine::ReplayGridAccounting: recorded "
                             "signal channel and basis length disagree");
    }
  }
  state_.grid_cost_usd = 0.0;
  state_.grid_co2_kg = 0.0;
  // Same per-tick additions as AdvanceTicks, in the same order: within a
  // calendar span the stored kWh repeats and the signal value is constant
  // (boundaries bound spans), so kwh*price reproduces the span's cost_inc bit
  // for bit and the repeated additions match the batched loop's.
  for (std::size_t k = 0; k < state_.tick_wall_kwh.size(); ++k) {
    const SimTime t = options_.sim_start + static_cast<SimDuration>(k) * tick_;
    const double price_now =
        grid_cost_on_ ? options_.grid.price_usd_per_kwh.At(t) : 0.0;
    const double carbon_now =
        grid_co2_on_ ? options_.grid.carbon_kg_per_kwh.At(t) : 0.0;
    state_.grid_cost_usd += state_.tick_wall_kwh[k] * price_now;
    state_.grid_co2_kg += state_.tick_wall_kwh[k] * carbon_now;
    if (hist_.price) hist_.price->values[k] = price_now;
    if (hist_.carbon) hist_.carbon->values[k] = carbon_now;
  }
  if (grid_cost_on_ || grid_co2_on_) {
    state_.stats.SetGridTotals(state_.grid_cost_usd, state_.grid_co2_kg);
  }
}

}  // namespace sraps
