// Snapshot/fork of a running simulation (the branch-and-explore primitive).
//
// Simulation::Snapshot() deep-copies every piece of mutable simulation state
// — engine clock, completion heap, running/queued jobs, telemetry cursors,
// grid-event cursor, accumulated energy/cost/CO2, scheduler internals,
// cooling-loop temperature — into a self-contained SimStateSnapshot: no
// pointer reaches back into the source simulation, which may be destroyed
// (or run further) freely.  Simulation::ForkFrom() builds a new Simulation
// that resumes from the captured instant and finishes *bit-identically* to
// an uninterrupted run: history.csv, stats JSON, grid cost/CO2 — verified in
// tick and event-calendar modes, with outages, power caps, and grid signals
// active (tests/test_snapshot.cc).  One snapshot can be forked any number of
// times; forks are fully independent.
//
// ForkWithGrid() is the what-if variant the snapshot-tree sweep (at its
// leaves) and the scenario service build on: it resumes under *re-scaled*
// price/carbon signals (same boundary times, same DR windows) and replays
// cost/CO2 accounting from the per-tick energy basis captured with
// ScenarioSpec::capture_grid_basis — so one trajectory, run once, prices out
// under N tariffs with accounting bit-identical to N full runs.
//
// There is deliberately no disk serialisation: a snapshot is an in-memory
// object for cheap exploration of many what-ifs within one process, the
// paper's core workflow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "accounts/accounts.h"
#include "config/system_config.h"
#include "core/scenario.h"
#include "engine/simulation_engine.h"

namespace sraps {

class Scheduler;
class Simulation;

/// The stateless built-in scheduler family ("default", "experimental"): a
/// fresh registry build behaves exactly like a clone, which is what lets
/// Simulation::ForkWithPatch swap policy/backfill/scheduler mid-run.  The
/// external couplings carry cross-step state and may read the patched
/// option, so they are outside the forkable set.
bool PatchableScheduler(const std::string& name);

/// The guard under which Simulation::ForkWithPatch refuses *every* patch of
/// a run under `spec` — "record_history", "scheduler" (not a
/// PatchableScheduler) or "power_state_policy" (a policy that plans node
/// power states) — or nullptr when a snapshot of that run can take patch
/// forks.  The sweep tree asks this per root before it runs anything.
const char* PatchForkRefusal(const ScenarioSpec& spec);

/// Stable 64-bit digest of an engine state (SimStateSnapshot::Fingerprint).
std::uint64_t EngineStateFingerprint(const EngineState& state);

/// Estimated resident bytes of an engine state's variable-size parts plus
/// sizeof(EngineState) (SimStateSnapshot::ApproxBytes).
std::size_t EngineStateBytes(const EngineState& state);

/// A self-contained, deep-copied capture of a Simulation between engine
/// steps.  Move-only (it owns a cloned scheduler), but const-forkable any
/// number of times: every ForkFrom/ForkWithGrid call clones again, so forks
/// never share mutable state with the snapshot or each other.
class SimStateSnapshot {
 public:
  SimStateSnapshot(SimStateSnapshot&&) noexcept = default;
  SimStateSnapshot& operator=(SimStateSnapshot&&) noexcept = default;
  ~SimStateSnapshot() = default;

  /// The engine clock at capture time.
  SimTime captured_at() const { return state_.now; }
  /// The resolved scenario the snapshot was taken from (jobs_override
  /// emptied — the workload lives in the captured engine state).
  const ScenarioSpec& spec() const { return spec_; }
  /// The captured simulation window.
  SimTime sim_start() const { return engine_options_.sim_start; }
  SimTime sim_end() const { return engine_options_.sim_end; }
  /// True when the source run recorded the per-tick energy basis
  /// (ScenarioSpec::capture_grid_basis), i.e. ForkWithGrid is available.
  bool has_grid_basis() const { return engine_options_.capture_grid_basis; }

  /// Stable 64-bit digest of the captured mutable state: the engine clock,
  /// cursors and counters, every job's realised schedule, the completion
  /// heap (order included), per-job energy / grid cost / CO2 bit patterns,
  /// the completion-record digest, thermal counters and state (inlets, CDU
  /// loops, rack RC temperatures, trip flags), and the cooling-loop
  /// temperature.  Two snapshots of bit-identical state fingerprint equal;
  /// advancing the source by even one tick changes the fingerprint.  This
  /// is the cache key / determinism probe of the scenario service
  /// (src/serve/).
  std::uint64_t Fingerprint() const;

  /// Estimated resident size of the snapshot in bytes (job table with
  /// traces, recorded telemetry, heap/cursor vectors, completion records,
  /// grid basis, per-node and per-CDU thermal state).  An O(state) walk of
  /// vector sizes — an accounting figure for cache eviction budgets, not an
  /// allocator-exact measurement.
  std::size_t ApproxBytes() const;

 private:
  friend class Simulation;
  SimStateSnapshot() = default;

  ScenarioSpec spec_;
  SystemConfig config_;
  AccountRegistry policy_accounts_;  ///< collection-phase snapshot for acct_* policies
  SimTime sim_start_ = 0;
  SimTime sim_end_ = 0;
  EngineOptions engine_options_;
  EngineState state_;
  /// Cloned at capture, rebound to THIS snapshot's policy_accounts_ and
  /// spec_.grid, so the snapshot outlives its source.  Never run; forks
  /// clone it again against their own copies.
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace sraps
