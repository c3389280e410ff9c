// SweepRunner: executes a SweepSpec's cross product at thousand-scenario
// scale in bounded memory.  Worker threads pull scenario indices from an
// atomic cursor, expand each scenario lazily (sweep_spec.h), run it, and
// fold the result into
//
//   * a compact SweepRow (RunMetrics plus its name, axis values and error
//     text — no history, no stats JSON, no Simulation survives it), and
//   * index-ordered CSV shards, written to disk the moment every row of a
//     shard has completed and then freed,
//
// so peak memory is O(live simulations × threads + one row per scenario),
// never O(scenarios × history).  Aggregates (mean/min/max/quantiles per
// metric, plus the energy-vs-makespan Pareto frontier) are computed in
// scenario-index order at the end, which makes every output file —
// rows-*.csv shards, aggregates.json, manifest.json — bit-identical across
// runs at ANY thread count.  Wall-clock timings are deliberately kept out of
// those files (they go to the returned summary) so CI can hash them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "experiment/experiment_runner.h"
#include "sweep/sweep_spec.h"
#include "sweep/tree/tree_stats.h"

namespace sraps {

/// The compact per-scenario record retained after the fold.
struct SweepRow : RunMetrics {
  std::size_t index = 0;               ///< scenario index within the sweep
  std::string name;                    ///< "<sweep>-<zero-padded index>"
  std::vector<JsonValue> axis_values;  ///< in sweep-axis order
  bool ok = false;                     ///< false: `error` carries the throw text
  std::string error;                   ///< failure message (empty when ok)
  std::uint64_t fingerprint = 0;  ///< completion-record digest (determinism probe)
};

/// Projects a ScenarioResult onto the compact row.
SweepRow RowFromResult(const ScenarioResult& result, std::size_t index,
                       std::vector<JsonValue> axis_values);

/// The file name of shard `s`: rows-NNNNN.csv.
std::string ShardFileName(std::size_t s);

/// The columns of a rows-*.csv shard: index, name, the axis keys, ok, error,
/// MetricNames(), fingerprint.
std::vector<std::string> ShardHeader(const SweepSpec& spec);

/// One shard row's cells in ShardHeader order: every metric as %.17g of its
/// double (an exact round trip), the fingerprint as FingerprintHex.
std::vector<std::string> ShardCells(const SweepRow& row);

/// Summary statistics of one metric across the sweep's successful rows.
struct MetricSummary {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  JsonValue ToJson() const;
};

/// One non-dominated scenario in the (total energy, makespan) plane — both
/// minimised; the operator's cap/scheduler trade-off curve.
struct ParetoPoint {
  std::size_t index = 0;
  std::string name;
  double total_energy_j = 0.0;
  double makespan_s = 0.0;
};

/// One non-dominated scenario in the (grid cost, makespan) plane, present
/// only when the sweep carries a grid price signal — the $-vs-time frontier
/// grid-axis sweeps optimise over.
struct CostParetoPoint {
  std::size_t index = 0;
  std::string name;
  double grid_cost_usd = 0.0;
  double makespan_s = 0.0;
};

/// Per-scenario projection onto the two Pareto objectives, for plotting.
/// Deliberately NOT serialised into aggregates.json (which stays O(metrics),
/// not O(scenarios)); the sweep report consumes these directly.
struct SweepPoint {
  std::size_t index = 0;
  double total_energy_j = 0.0;
  double makespan_s = 0.0;
  bool on_frontier = false;
};

struct SweepAggregates {
  std::size_t total = 0;
  std::size_t ok_count = 0;
  std::size_t failed_count = 0;
  /// One (metric name, summary) pair per MetricNames() entry, in that
  /// order.  Empty when no scenario succeeded.
  std::vector<std::pair<std::string, MetricSummary>> metrics;
  /// Sorted by energy ascending (makespan therefore descending).
  std::vector<ParetoPoint> pareto;
  /// (grid cost, makespan) frontier over rows with a positive cost; empty
  /// when the sweep has no price signal.  Sorted by cost ascending.
  std::vector<CostParetoPoint> pareto_cost;
  /// Every successful scenario with >= 1 completion, in index order.
  std::vector<SweepPoint> points;
  JsonValue ToJson() const;
};

/// Streaming fold target.  Fold() accepts rows in ANY completion order and
/// stores only their scalars (indexed by scenario), so Finalize() can reduce
/// in index order — the property that makes parallel sweeps bit-identical to
/// single-threaded ones.  Exposed separately from SweepRunner so tests can
/// oracle it against a materialise-everything ExperimentRunner pass.
class SweepAggregator {
 public:
  explicit SweepAggregator(std::size_t total);
  ~SweepAggregator();  // out-of-line: Slot is defined in the .cc

  /// Not thread-safe; callers serialise (the runner folds under its mutex).
  /// Throws std::out_of_range on an index >= total, std::logic_error on a
  /// double fold of the same index.
  void Fold(const SweepRow& row);

  /// Reduces every folded row in index order.  Rows never folded (a killed
  /// sweep) count as failed.
  SweepAggregates Finalize() const;

 private:
  struct Slot;
  std::vector<Slot> slots_;
};

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency (min 1), clamped to the
  /// scenario count.
  unsigned threads = 0;
  /// When non-empty: rows-NNNN.csv shards + aggregates.json + manifest.json
  /// are written here (directories created).  Empty = in-memory only.
  std::string output_dir;
  /// Scenarios per CSV shard.
  std::size_t shard_size = 256;
  /// Snapshot-tree execution (`--sweep-tree`): classify every axis by its
  /// first-effect time (sweep/tree/first_effect.h), run one shared
  /// trajectory per immediate-axis combination, fork branches at each
  /// bounded axis's bound, and resolve trajectory-neutral axes
  /// (grid.price.scale / grid.carbon.scale under policies that ignore signal
  /// values) by accounting replay at the leaves (sweep/tree/tree_runner.h).
  /// Every output file stays bit-identical to the plain path; sweeps where
  /// no axis is bounded silently use the plain path.
  bool tree = false;
  /// Half-open scenario subrange to execute — the distributed tier's work
  /// unit (src/dist).  Defaults cover the whole grid.  When output_dir is
  /// set, both ends must be shard-aligned (begin % shard_size == 0; end
  /// likewise or == ScenarioCount()) so every produced shard is complete
  /// and byte-identical to the full run's shard.
  std::size_t scenario_begin = 0;
  std::size_t scenario_end = std::numeric_limits<std::size_t>::max();
  /// When false, only row shards are written to output_dir —
  /// aggregates.json / manifest.json / tree_stats.json are skipped.
  /// Workers running a subrange set this; the coordinator writes the merged
  /// artifacts itself (byte-identical, via WriteSweepArtifacts).
  bool write_aggregates = true;
};

/// Writes aggregates.json and manifest.json into `output_dir` exactly as a
/// full in-process SweepRunner::Run would — shared with the distributed
/// coordinator so a merged multi-worker sweep's artifacts are byte-identical
/// to a single-process run's.
void WriteSweepArtifacts(const std::string& output_dir, const SweepSpec& spec,
                         const SweepAggregates& aggregates,
                         std::size_t shard_size);

struct SweepSummary {
  std::size_t total = 0;
  std::size_t ok_count = 0;
  std::size_t failed_count = 0;
  SweepAggregates aggregates;
  std::vector<std::string> shard_paths;  ///< as written, in index order
  double wall_seconds = 0.0;
  /// Up to five distinct failure messages, for operator triage.
  std::vector<std::string> sample_errors;
  /// Snapshot-tree execution: whether the tree actually engaged (tree
  /// requested AND at least one bounded multi-value axis), and its shape /
  /// savings.  Also written to tree_stats.json next to the shards — never
  /// into aggregates.json, which must hash identically to the plain path.
  bool tree_used = false;
  TreeStats tree_stats;
};

class SweepRunner {
 public:
  /// Validates the spec eagerly (Validate()) so a malformed sweep fails at
  /// construction, not scenario #1371.
  explicit SweepRunner(SweepSpec spec);

  /// Resolves the workload (dataset loaded once / synthetic calibrated
  /// once), then executes the grid.  Throws std::invalid_argument when the
  /// base workload resolves to no jobs; per-scenario failures become failed
  /// rows instead.
  SweepSummary Run(const SweepOptions& options = {});

  /// The spec as executed — after Run on a calibrating sweep this carries
  /// the fitted `synthetic` section, so saving it reproduces the sweep
  /// without refitting.
  const SweepSpec& spec() const { return spec_; }

  /// Resolves the workload eagerly (idempotent; Run calls it too).  The
  /// distributed coordinator resolves BEFORE writing the manifest spec, so
  /// a calibrating sweep is fitted exactly once and every worker replays
  /// the already-fitted spec.
  void ResolveWorkload();

 private:
  SweepSpec spec_;
  std::vector<Job> shared_jobs_;  ///< load-once dataset workload (non-synthetic)
  bool resolved_ = false;
};

}  // namespace sraps
