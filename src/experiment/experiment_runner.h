// ExperimentRunner: the paper's cheap-what-if workflow at scale.  One base
// ScenarioSpec names the dataset; the runner loads it ONCE, stamps out N
// named scenario variants (power caps, outage schedules, cooling on/off,
// scheduler/policy swaps), runs them on a thread pool, and collects each
// variant's EngineCounters and summary statistics into a comparison table.
//
// Determinism: every variant gets its own Simulation built from its own
// copy of the shared job set, so a parallel sweep reproduces bit-identical
// per-scenario stats to equivalent single-run Simulation invocations.
//
//   ExperimentRunner runner(base);
//   runner.Add("uncapped", [](ScenarioSpec&) {});
//   runner.Add("cap-20MW", [](ScenarioSpec& s) { s.power_cap_w = 20e6; });
//   auto results = runner.RunAll();
//   std::puts(ComparisonTable(results).c_str());
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/scenario.h"
#include "engine/simulation_engine.h"

namespace sraps {

/// Everything one scenario variant produced.  On failure `ok` is false and
/// `error` carries the exception text; the other variants still run.
struct ScenarioResult {
  std::string name;
  /// The variant as added (pre job-set substitution), so it still names the
  /// dataset and round-trips through JSON as a reproducible description.
  /// Variants sharing the base workload don't retain a jobs_override copy;
  /// the shared set stays available via ExperimentRunner::jobs().
  ScenarioSpec spec;
  bool ok = false;
  std::string error;

  EngineCounters counters;
  double avg_wait_s = 0.0;
  double avg_turnaround_s = 0.0;
  /// Workload completion span: last completion end − first submit over the
  /// completed-job records (0 when nothing completed).  The energy-vs-
  /// makespan Pareto frontier of sweeps uses this as its time objective.
  double makespan_s = 0.0;
  double total_energy_j = 0.0;
  /// Signal-integrated wall-energy cost / emissions (0 without a grid
  /// block) — the Pareto objectives grid sweeps trade against makespan.
  double grid_cost_usd = 0.0;
  double grid_co2_kg = 0.0;
  double mean_power_kw = 0.0;   ///< 0 when history recording is off
  double max_power_kw = 0.0;
  double mean_util_pct = 0.0;
  double mean_pue = 0.0;        ///< 0 when cooling is off
  SimTime sim_start = 0;
  SimTime sim_end = 0;
  double wall_seconds = 0.0;
  /// SimulationStats::Fingerprint(): order-sensitive digest over every
  /// completion record — the cheap determinism probe sweep shards carry.
  std::uint64_t fingerprint = 0;
  JsonValue stats;              ///< full SimulationStats::ToJson()
};

/// Builds and runs ONE scenario, extracting the summary metrics every
/// experiment/sweep row needs.  Failures are captured in the result
/// (`ok = false`, `error`), never thrown.  `capture_stats_json` controls
/// whether the full SimulationStats JSON blob is retained — the streaming
/// sweep path turns it off so a folded row stays a few hundred bytes.  When
/// `output_dir` is non-empty the artifact files are written there.
ScenarioResult RunScenarioSpec(ScenarioSpec spec, const std::string& output_dir,
                               bool capture_stats_json = true);

class Simulation;

/// Fills the metric fields of `r` (counters, waits, makespan, energy, grid
/// cost/CO2, power/util/PUE means, fingerprint, window, wall seconds) from a
/// finished simulation.  Shared by RunScenarioSpec, the sweep tree's forks
/// and the scenario service, so a forked scenario's row is computed by the very
/// same code — and therefore the very same floating-point operations — as a
/// from-scratch run's.  Does not touch r.name/r.spec/r.ok/r.error.
void ExtractScenarioMetrics(const Simulation& sim, ScenarioResult& r,
                            bool capture_stats_json);

struct ExperimentOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  /// Clamped to the scenario count.
  unsigned threads = 0;
  /// When non-empty, each successful scenario writes the artifact output
  /// files (history.csv, stats.out, job_history.csv, ...) into
  /// `<output_dir>/<scenario name>/`.
  std::string output_dir;
};

class ExperimentRunner {
 public:
  /// `base` supplies the shared dataset (dataset_path + system, or
  /// jobs_override) and the defaults every variant starts from.
  explicit ExperimentRunner(ScenarioSpec base);

  /// Adds a variant: the base spec is copied, `mutate` tweaks it.  The
  /// variant keeps `name` regardless of what mutate sets.  Returns *this.
  ExperimentRunner& Add(const std::string& name,
                        const std::function<void(ScenarioSpec&)>& mutate);

  /// Adds a fully-formed variant spec (named by spec.name).
  ExperimentRunner& Add(ScenarioSpec spec);

  std::size_t scenario_count() const { return scenarios_.size(); }

  /// Loads the shared dataset if not yet loaded, then runs every variant on
  /// a thread pool.  Results are ordered like the Add calls.  Throws
  /// std::invalid_argument if no scenarios were added or the base dataset
  /// cannot be resolved; per-scenario failures are captured in the results.
  std::vector<ScenarioResult> RunAll(const ExperimentOptions& options = {});

  /// The shared job set (loaded on first RunAll, or base jobs_override).
  const std::vector<Job>& jobs() const { return jobs_; }

 private:
  void EnsureJobsLoaded();
  ScenarioResult RunOne(ScenarioSpec spec, const std::string& output_dir) const;

  ScenarioSpec base_;
  std::vector<ScenarioSpec> scenarios_;
  std::vector<Job> jobs_;
  bool jobs_loaded_ = false;
};

/// Fixed-width comparison table, one row per result, for terminal output.
std::string ComparisonTable(const std::vector<ScenarioResult>& results);

/// JSON export: {"scenarios": [{name, ok, spec, counters, metrics...}]}.
JsonValue ResultsToJson(const std::vector<ScenarioResult>& results);

}  // namespace sraps
