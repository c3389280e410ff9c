// Snapshot-tree execution statistics: how much simulated time the tree
// actually stepped versus what the plain one-run-per-scenario path would
// have, plus the tree's shape.  Kept in its own header (not sweep_runner.h,
// not tree_runner.h) so the CLI/report layer can consume it without pulling
// in either runner.
//
// Deliberately written to a separate tree_stats.json — never into
// aggregates.json or the shards — because those files are CI-hashed against
// the plain path and must stay bit-identical whether or not the tree ran.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/json.h"

namespace sraps {

struct TreeStats {
  std::size_t scenarios = 0;   ///< scenarios answered by the tree
  /// Shared trajectories started: one per immediate-axis combination in
  /// range, or per bounded-value combination under a root that cannot take
  /// patch forks (core/snapshot.h PatchForkRefusal).
  std::size_t roots = 0;
  /// Power-cap demand passes thrown away because the cap bound before the
  /// next fork; the root is then re-run to the trip time.  A pass that
  /// reaches the fork untripped is the root itself and costs nothing extra.
  std::size_t probe_runs = 0;
  std::size_t forks = 0;       ///< ForkWithPatch + ForkWithGrid branch points
  /// Scenarios with nothing to share, run the plain way on their own.
  std::size_t plain_runs = 0;
  /// Scenarios answered by the plain per-scenario fallback after their root
  /// hit a non-forkable condition at run time (0 on a clean tree run).
  std::size_t fallback_scenarios = 0;
  std::size_t max_depth = 0;   ///< deepest chain of patch forks
  std::size_t max_fanout = 0;  ///< widest branch point (values forked)
  /// Simulated seconds actually stepped: shared prefixes once, branch
  /// suffixes per value, thrown-away cap passes, aborted roots, plain runs
  /// and fallback reruns included.
  double sim_seconds_stepped = 0.0;
  /// Simulated seconds the plain path steps for the same scenarios (each
  /// scenario's window).  stepped/plain < 1 is the tree's win; the CLI
  /// reports it as "sim-time saved".
  double sim_seconds_plain = 0.0;

  /// Simulations started from sim start: shared roots, thrown-away cap
  /// passes, plain runs and fallback reruns.
  std::size_t Trajectories() const {
    return roots + probe_runs + plain_runs + fallback_scenarios;
  }

  void Merge(const TreeStats& other) {
    scenarios += other.scenarios;
    roots += other.roots;
    probe_runs += other.probe_runs;
    forks += other.forks;
    plain_runs += other.plain_runs;
    fallback_scenarios += other.fallback_scenarios;
    max_depth = std::max(max_depth, other.max_depth);
    max_fanout = std::max(max_fanout, other.max_fanout);
    sim_seconds_stepped += other.sim_seconds_stepped;
    sim_seconds_plain += other.sim_seconds_plain;
  }

  /// Fraction of plain-path simulated time avoided (0 when nothing ran).
  double SavedFraction() const {
    if (sim_seconds_plain <= 0.0) return 0.0;
    return std::max(0.0, 1.0 - sim_seconds_stepped / sim_seconds_plain);
  }

  JsonValue ToJson() const {
    JsonObject obj;
    obj["scenarios"] = JsonValue(static_cast<std::int64_t>(scenarios));
    obj["roots"] = JsonValue(static_cast<std::int64_t>(roots));
    obj["probe_runs"] = JsonValue(static_cast<std::int64_t>(probe_runs));
    obj["forks"] = JsonValue(static_cast<std::int64_t>(forks));
    obj["plain_runs"] = JsonValue(static_cast<std::int64_t>(plain_runs));
    obj["fallback_scenarios"] =
        JsonValue(static_cast<std::int64_t>(fallback_scenarios));
    obj["max_depth"] = JsonValue(static_cast<std::int64_t>(max_depth));
    obj["max_fanout"] = JsonValue(static_cast<std::int64_t>(max_fanout));
    obj["trajectories"] = JsonValue(static_cast<std::int64_t>(Trajectories()));
    obj["sim_seconds_stepped"] = sim_seconds_stepped;
    obj["sim_seconds_plain"] = sim_seconds_plain;
    obj["saved_fraction"] = SavedFraction();
    return JsonValue(std::move(obj));
  }
};

}  // namespace sraps
