// SnapshotTreeRunner: executes a sweep's scenario grid as a tree of forked
// simulations instead of one independent run per scenario.  It is the
// sweep's only sharing path.
//
// The classifier (first_effect.h) splits the axes into immediate axes (no
// usable bound) and bounded axes (kNeutral / kPowerCap / kDrWindows /
// kFirstSchedule / kSupplyTemp).  Scenarios that agree on every immediate
// axis form one tree ROOT.  A root forks every bounded axis with more than
// one value among its members: a single shared trajectory is built with
// those axes neutralised (cap lifted, DR windows cleared, rep's values
// elsewhere), stepped to the earliest first-effect bound, snapshotted, and
// forked once per value of that axis (Simulation::ForkWithPatch); each
// branch recurses on the remaining forked axes in bound order.  A root whose
// own scheduler or policy makes ForkWithPatch refuse every patch
// (PatchForkRefusal, core/snapshot.h) forks nothing: its members are split
// by their bounded values, and each part runs one trajectory with its own
// values.  Leaves carrying trajectory-neutral grid-scale variants resolve
// them through the accounting replay (Simulation::ForkWithGrid); a part
// with nothing to share runs the plain way.  A power-cap axis has no useful
// static bound, so the root runs with a demand watch armed
// (SimulationEngine::SetPowerWatch) up to every other forked axis's bound —
// the watch only witnesses the unforked trajectory, so the cap fork must
// happen before any other fork can change it.  If the watch stays quiet the
// cap forks there; if it trips, that pass was a probe, and the root is
// re-run to the trip time.
//
// Contract: every row a tree run emits is bit-identical to the plain path's
// row for the same scenario (the leaf flows through ExtractScenarioMetrics
// and the same row projection), so shards and aggregates hash identically —
// CI diffs them.  Any run-time refusal (a ForkWithPatch guard, an
// uncloneable scheduler, a scenario the plain path would reject) falls the
// whole part back to plain per-scenario runs, reproducing plain rows
// including plain failure rows.  Turning the tree on can change only the
// wall clock, never a byte of output.
#pragma once

#include <cstddef>
#include <functional>

#include "sweep/sweep_runner.h"
#include "sweep/tree/first_effect.h"
#include "sweep/tree/tree_stats.h"

namespace sraps {

class SnapshotTreeRunner {
 public:
  /// Materialises the workload onto one expanded scenario (the SweepRunner
  /// passes its own resolve: synthetic generation or the load-once dataset).
  using ResolveFn = std::function<void(ExpandedScenario&)>;
  /// Runs one scenario the plain way and returns its row (never throws —
  /// failures become failed rows); used for singleton roots and fallback.
  using PlainRunFn = std::function<SweepRow(std::size_t)>;
  /// Receives every completed row; must be thread-safe (called from worker
  /// threads, one call per scenario, each scenario exactly once).
  using RowSink = std::function<void(SweepRow)>;

  SnapshotTreeRunner(const SweepSpec& spec, ResolveFn resolve,
                     PlainRunFn plain_run);

  /// The per-axis classification the tree will execute (for logging/tests).
  const std::vector<AxisFirstEffect>& plan() const { return plan_; }

  /// True when at least one multi-value axis is bounded — i.e. the tree can
  /// share anything.  When false the caller should use the plain path
  /// (running the tree would still be correct, just pointless).
  bool worthwhile() const;

  /// Executes scenarios [begin, end) of the grid (clamped to the scenario
  /// count), emitting exactly one row per scenario through `sink`.
  /// Parallel over roots with `threads` workers (0 = hardware concurrency).
  TreeStats Run(std::size_t begin, std::size_t end, unsigned threads,
                const RowSink& sink);

 private:
  const SweepSpec& spec_;
  ResolveFn resolve_;
  PlainRunFn plain_run_;
  std::vector<AxisFirstEffect> plan_;
};

}  // namespace sraps
