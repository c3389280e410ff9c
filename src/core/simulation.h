// Public facade: one call builds and runs a complete digital-twin
// simulation, mirroring the paper's CLI surface
//   main.py --system X -f data --scheduler default --policy fcfs
//           --backfill easy -ff 4381000 -t 61000 -o --accounts [-c]
// and produces the artifact's outputs (power/utilisation history, stats.out,
// job_history.csv, accounts.json).
//
// Construction goes through SimulationBuilder (core/simulation_builder.h),
// which validates the ScenarioSpec and resolves every component — system
// config, dataloader, scheduler, policy, backfill — through the unified
// registries.  The `Simulation(ScenarioSpec)` constructor is a thin shim
// over the builder, kept so the original one-shot facade keeps working.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "accounts/accounts.h"
#include "config/system_config.h"
#include "core/scenario.h"
#include "engine/simulation_engine.h"
#include "workload/job.h"

namespace sraps {

class SimStateSnapshot;

class Simulation {
 public:
  /// Thin shim: delegates to SimulationBuilder (loads data, constructs
  /// scheduler and engine).  Throws std::invalid_argument on any
  /// configuration error.
  explicit Simulation(ScenarioSpec options);

  /// Runs to the end of the window and records the wall-clock cost.
  void Run();

  /// Runs until the engine clock reaches `t` (the first step boundary at or
  /// past it), accumulating wall-clock cost.  A subsequent Run() finishes the
  /// window exactly like an uninterrupted run would have.
  void RunUntil(SimTime t);

  /// RunUntil, but the clock lands exactly on the first tick boundary at or
  /// past `t` instead of overshooting a batched span (the span straddling
  /// `t` is split — bit-identical for results, see
  /// SimulationEngine::RunUntilExact).  This is the stop used to snapshot at
  /// a first-effect bound.
  void RunUntilExact(SimTime t);

  /// Deep-copies the complete simulation state into a self-contained
  /// snapshot (core/snapshot.h).  Valid between steps — i.e. whenever no
  /// Run/RunUntil call is executing.  Throws std::runtime_error when the
  /// active scheduler does not support cloning (a custom Scheduler without
  /// a Clone override).
  SimStateSnapshot Snapshot() const;

  /// Builds a new Simulation resuming from `snap`.  The fork owns all its
  /// state; running it to sim_end produces outputs bit-identical to a run
  /// that was never snapshotted.  One snapshot may be forked many times.
  static std::unique_ptr<Simulation> ForkFrom(const SimStateSnapshot& snap);

  /// Fork under re-scaled grid signals: `grid` must keep the snapshot's
  /// signal presence, boundary times, DR windows, and slack (only signal
  /// *values* — e.g. GridSignal scale — may differ), and the snapshot must
  /// carry the per-tick energy basis (ScenarioSpec::capture_grid_basis).
  /// Cost/CO2 and the recorded price/carbon channels are replayed so the
  /// fork's accounting is bit-identical to a full run under `grid`.  Throws
  /// std::invalid_argument on incompatible grids or a grid-reactive policy
  /// (whose trajectory could depend on the signal values).
  static std::unique_ptr<Simulation> ForkWithGrid(const SimStateSnapshot& snap,
                                                  GridEnvironment grid);

  /// Fork with one scenario key patched to a new value — the snapshot-tree
  /// sweep's branch point.  Supported keys and their preconditions:
  ///   - "power_cap_w": any cap; sound when the snapshot predates the first
  ///     step whose pre-cap demand exceeds the tightest cap in play
  ///     (SimulationEngine::SetPowerWatch finds that bound).
  ///   - "grid.dr_windows": every patched window must start at or after the
  ///     snapshot time (the fork rebuilds the grid-event schedule and remaps
  ///     the consumed-boundary cursor); refused when thermal-trip throttling
  ///     is configured (cap edges move the heat trajectory, hence trip edges).
  ///   - "cooling.supply_temp_c": sound when cooling is not coupled and the
  ///     snapshot predates the next scored allocation by at least one tick
  ///     (the next integrated span republishes inlets under the new supply);
  ///     refused when the transient-thermal layer is enabled (rack RC state
  ///     reads the setpoint from tick 0).
  ///   - "policy" / "backfill" / "scheduler": a fresh scheduler is built from
  ///     the registries against the fork's own state; sound when the snapshot
  ///     predates the first Schedule() invocation and both sides use the
  ///     stateless built-in scheduler family.
  /// Violations of the statically checkable preconditions throw
  /// std::invalid_argument shaped like the ForkWithGrid guards:
  ///   "ForkWithPatch rejected [guard=<which> key=<key>]: <detail>".
  /// The *timing* preconditions are the caller's contract (sweep/tree
  /// computes conservative first-effect bounds; tests pin them per axis).
  static std::unique_ptr<Simulation> ForkWithPatch(const SimStateSnapshot& snap,
                                                   const std::string& key,
                                                   const JsonValue& value);

  /// The engine carrying all run state (jobs, stats, recorder, counters).
  const SimulationEngine& engine() const { return *engine_; }
  /// Mutable engine access (step-by-step driving, tests).
  SimulationEngine& mutable_engine() { return *engine_; }
  /// The resolved system description the run was built with.
  const SystemConfig& config() const { return config_; }
  /// The resolved scenario (jobs_override emptied — the engine owns them).
  const ScenarioSpec& spec() const { return options_; }
  /// Backwards-compatible alias of spec().
  const ScenarioSpec& options() const { return options_; }

  /// Wall-clock seconds spent inside Run() (for speedup-vs-realtime claims).
  double wall_seconds() const { return wall_seconds_; }
  /// Simulated seconds / wall seconds.
  double SpeedupVsRealtime() const;

  /// Writes the artifact-style output files into `dir`:
  /// history.csv (power/util/cooling channels), stats.out (JSON),
  /// job_history.csv, accounts.json (when accounts tracking is on).
  void SaveOutputs(const std::string& dir) const;

  /// The resolved simulation window.
  SimTime sim_start() const { return sim_start_; }
  SimTime sim_end() const { return sim_end_; }

 private:
  friend class SimulationBuilder;  ///< assembles all state via BuildInto
  Simulation() = default;

  /// Shared fork body: restores the engine from `snap`, optionally swapping
  /// the grid environment (ForkWithGrid validates compatibility first).
  static std::unique_ptr<Simulation> Fork(const SimStateSnapshot& snap,
                                          const GridEnvironment* grid);

  ScenarioSpec options_;
  SystemConfig config_;
  AccountRegistry policy_accounts_;  ///< collection-phase snapshot for acct_* policies
  std::unique_ptr<SimulationEngine> engine_;
  SimTime sim_start_ = 0;
  SimTime sim_end_ = 0;
  double wall_seconds_ = 0.0;
};

/// Dataset-derived default window: [min recorded event, max recorded end].
struct DatasetWindow {
  SimTime begin = 0;
  SimTime end = 0;
};
DatasetWindow ComputeDatasetWindow(const std::vector<Job>& jobs);

}  // namespace sraps
