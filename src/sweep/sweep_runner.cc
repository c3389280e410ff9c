#include "sweep/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/csv.h"
#include "common/mathutil.h"
#include "common/thread_pool.h"
#include "core/simulation_builder.h"
#include "dataloaders/dataloader.h"
#include "sweep/tree/tree_runner.h"

namespace sraps {
namespace {

/// Deterministic shortest-round-trip-free formatting: 17 significant digits
/// reproduce the double bit pattern exactly, so shard bytes hash stably.
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The name ForEachMetric gives the RunMetrics member `field`.
const char* MetricName(double RunMetrics::*field) {
  const RunMetrics m;
  const char* found = nullptr;
  ForEachMetric(m, [&](const char* name, const auto& value) {
    if (static_cast<const void*>(&value) == &(m.*field)) found = name;
  });
  return found;
}

/// One Pareto point: its index, name, objective value and makespan.
JsonValue ParetoPointJson(std::size_t index, const std::string& name,
                          double RunMetrics::*objective, double value,
                          double makespan_s) {
  JsonObject point;
  point["index"] = JsonValue(static_cast<std::int64_t>(index));
  point["name"] = name;
  point[MetricName(objective)] = value;
  point[MetricName(&RunMetrics::makespan_s)] = makespan_s;
  return JsonValue(std::move(point));
}

/// Axis values render as bare strings (no JSON quotes) so CSV cells read
/// naturally; everything else uses the canonical JSON dump.
std::string AxisCell(const JsonValue& v) {
  return v.is_string() ? v.AsString() : v.Dump(0);
}

}  // namespace

SweepRow RowFromResult(const ScenarioResult& result, std::size_t index,
                       std::vector<JsonValue> axis_values) {
  return {result, index, result.name, std::move(axis_values), result.ok, result.error,
          result.fingerprint};
}

std::string ShardFileName(std::size_t s) {
  char name[32];
  std::snprintf(name, sizeof name, "rows-%05zu.csv", s);
  return name;
}

std::vector<std::string> ShardHeader(const SweepSpec& spec) {
  std::vector<std::string> header = {"index", "name"};
  for (const SweepAxis& axis : spec.axes) header.push_back(axis.key);
  for (const char* col : {"ok", "error"}) header.emplace_back(col);
  for (const std::string& metric : MetricNames()) header.push_back(metric);
  header.emplace_back("fingerprint");
  return header;
}

std::vector<std::string> ShardCells(const SweepRow& row) {
  std::vector<std::string> cells;
  cells.reserve(5 + row.axis_values.size() + MetricNames().size());
  cells.push_back(std::to_string(row.index));
  cells.push_back(row.name);
  for (const JsonValue& v : row.axis_values) cells.push_back(AxisCell(v));
  cells.push_back(row.ok ? "1" : "0");
  cells.push_back(row.error);
  ForEachMetric(row, [&](const char*, const auto& value) {
    cells.push_back(FormatDouble(static_cast<double>(value)));
  });
  cells.push_back(FingerprintHex(row.fingerprint));
  return cells;
}

JsonValue MetricSummary::ToJson() const {
  JsonObject obj;
  obj["mean"] = mean;
  obj["min"] = min;
  obj["max"] = max;
  obj["p50"] = p50;
  obj["p90"] = p90;
  obj["p99"] = p99;
  return JsonValue(std::move(obj));
}

JsonValue SweepAggregates::ToJson() const {
  JsonObject obj;
  obj["total"] = JsonValue(static_cast<std::int64_t>(total));
  obj["ok"] = JsonValue(static_cast<std::int64_t>(ok_count));
  obj["failed"] = JsonValue(static_cast<std::int64_t>(failed_count));
  JsonObject metric_obj;
  for (const auto& [name, summary] : metrics) metric_obj[name] = summary.ToJson();
  obj["metrics"] = JsonValue(std::move(metric_obj));
  JsonArray pareto_array;
  for (const ParetoPoint& p : pareto) {
    pareto_array.push_back(ParetoPointJson(p.index, p.name, &RunMetrics::total_energy_j,
                                           p.total_energy_j, p.makespan_s));
  }
  obj["pareto"] = JsonValue(std::move(pareto_array));
  JsonArray cost_array;
  for (const CostParetoPoint& p : pareto_cost) {
    cost_array.push_back(ParetoPointJson(p.index, p.name, &RunMetrics::grid_cost_usd,
                                         p.grid_cost_usd, p.makespan_s));
  }
  obj["pareto_cost"] = JsonValue(std::move(cost_array));
  return JsonValue(std::move(obj));
}

struct SweepAggregator::Slot {
  bool folded = false;
  bool ok = false;
  std::string name;
  RunMetrics metrics;
};

SweepAggregator::SweepAggregator(std::size_t total) : slots_(total) {}

SweepAggregator::~SweepAggregator() = default;

void SweepAggregator::Fold(const SweepRow& row) {
  if (row.index >= slots_.size()) {
    throw std::out_of_range("SweepAggregator: row index " +
                            std::to_string(row.index) + " >= total " +
                            std::to_string(slots_.size()));
  }
  Slot& slot = slots_[row.index];
  if (slot.folded) {
    throw std::logic_error("SweepAggregator: scenario " + std::to_string(row.index) +
                           " folded twice");
  }
  slot.folded = true;
  slot.ok = row.ok;
  slot.name = row.name;
  slot.metrics = row;
}

SweepAggregates SweepAggregator::Finalize() const {
  SweepAggregates agg;
  agg.total = slots_.size();
  for (const Slot& slot : slots_) {
    if (slot.folded && slot.ok) {
      ++agg.ok_count;
    } else {
      ++agg.failed_count;
    }
  }

  if (agg.ok_count > 0) {
    // Index order throughout: sums and quantiles see the same sequence no
    // matter which thread finished which scenario first.
    std::vector<std::vector<double>> columns(MetricNames().size());
    for (std::vector<double>& column : columns) column.reserve(agg.ok_count);
    for (const Slot& slot : slots_) {
      if (!slot.folded || !slot.ok) continue;
      std::size_t m = 0;
      ForEachMetric(slot.metrics, [&](const char*, const auto& value) {
        columns[m++].push_back(static_cast<double>(value));
      });
    }
    for (std::size_t m = 0; m < columns.size(); ++m) {
      const std::vector<double>& values = columns[m];
      MetricSummary summary;
      summary.mean = Mean(values);
      summary.min = Min(values);
      summary.max = Max(values);
      summary.p50 = Percentile(values, 50);
      summary.p90 = Percentile(values, 90);
      summary.p99 = Percentile(values, 99);
      agg.metrics.emplace_back(MetricNames()[m], summary);
    }
  }

  // Pareto frontiers over (objective, makespan), both minimised, among rows
  // that completed at least one job (an empty run trivially "wins" both
  // objectives and would poison the frontier).  Returns the frontier's
  // indices by objective ascending (makespan therefore descending).
  const auto candidate = [&](std::size_t i) {
    const Slot& slot = slots_[i];
    return slot.folded && slot.ok && slot.metrics.completed > 0;
  };
  const auto frontier = [&](double RunMetrics::*objective, bool positive_only) {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (candidate(i) && (!positive_only || slots_[i].metrics.*objective > 0)) {
        order.push_back(i);
      }
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const RunMetrics& x = slots_[a].metrics;
      const RunMetrics& y = slots_[b].metrics;
      if (x.*objective != y.*objective) return x.*objective < y.*objective;
      if (x.makespan_s != y.makespan_s) return x.makespan_s < y.makespan_s;
      return a < b;
    });
    std::vector<std::size_t> front;
    for (const std::size_t i : order) {
      const double makespan = slots_[i].metrics.makespan_s;
      if (!front.empty() && makespan >= slots_[front.back()].metrics.makespan_s) continue;
      front.push_back(i);
    }
    return front;
  };

  std::vector<bool> on_frontier(slots_.size(), false);
  for (const std::size_t i : frontier(&RunMetrics::total_energy_j, false)) {
    const RunMetrics& m = slots_[i].metrics;
    on_frontier[i] = true;
    agg.pareto.push_back({i, slots_[i].name, m.total_energy_j, m.makespan_s});
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const RunMetrics& m = slots_[i].metrics;
    if (candidate(i)) {
      agg.points.push_back({i, m.total_energy_j, m.makespan_s, on_frontier[i]});
    }
  }
  // The (grid cost, makespan) frontier admits only rows that actually
  // accrued a cost, so sweeps without a price signal get an empty frontier
  // rather than a degenerate all-zero one.
  for (const std::size_t i : frontier(&RunMetrics::grid_cost_usd, true)) {
    const RunMetrics& m = slots_[i].metrics;
    agg.pareto_cost.push_back({i, slots_[i].name, m.grid_cost_usd, m.makespan_s});
  }
  return agg;
}

void WriteSweepArtifacts(const std::string& output_dir, const SweepSpec& spec,
                         const SweepAggregates& aggregates,
                         std::size_t shard_size) {
  namespace fs = std::filesystem;
  fs::create_directories(output_dir);
  const std::size_t total = spec.ScenarioCount();
  shard_size = std::max<std::size_t>(1, shard_size);
  const std::size_t num_shards = (total + shard_size - 1) / shard_size;
  {
    std::ofstream out(output_dir + "/aggregates.json");
    out << aggregates.ToJson().Dump(2) << "\n";
    if (!out) {
      throw std::runtime_error("WriteSweepArtifacts: cannot write " +
                               output_dir + "/aggregates.json");
    }
  }
  JsonObject manifest;
  manifest["name"] = spec.name;
  manifest["scenario_count"] = JsonValue(static_cast<std::int64_t>(total));
  manifest["shard_size"] = JsonValue(static_cast<std::int64_t>(shard_size));
  JsonArray shard_names;
  for (std::size_t s = 0; s < num_shards; ++s) shard_names.emplace_back(ShardFileName(s));
  manifest["shards"] = JsonValue(std::move(shard_names));
  manifest["spec"] = spec.ToJson();
  std::ofstream out(output_dir + "/manifest.json");
  out << JsonValue(std::move(manifest)).Dump(2) << "\n";
  if (!out) {
    throw std::runtime_error("WriteSweepArtifacts: cannot write " + output_dir +
                             "/manifest.json");
  }
}

SweepRunner::SweepRunner(SweepSpec spec) : spec_(std::move(spec)) {
  spec_.Validate();
}

void SweepRunner::ResolveWorkload() {
  if (resolved_) return;
  if (spec_.calibrate_synthetic) {
    std::vector<Job> fit_jobs;
    if (!spec_.base.dataset_path.empty()) {
      EnsureBuiltinComponents();
      fit_jobs = DataloaderRegistry::Instance()
                     .Get(spec_.base.system)
                     .Load(spec_.base.dataset_path);
    } else {
      fit_jobs = spec_.base.jobs_override;
    }
    if (fit_jobs.empty()) {
      throw std::invalid_argument("SweepRunner '" + spec_.name +
                                  "': no jobs to calibrate the synthetic "
                                  "workload from");
    }
    spec_.synthetic = CalibrateSyntheticWorkload(fit_jobs);
    spec_.calibrate_synthetic = false;
    // The workload is generated from here on; drop the fitted-from dataset
    // so the resolved spec round-trips without refitting.
    spec_.base.dataset_path.clear();
    spec_.base.jobs_override.clear();
  } else if (!spec_.synthetic) {
    if (!spec_.base.dataset_path.empty()) {
      EnsureBuiltinComponents();
      shared_jobs_ = DataloaderRegistry::Instance()
                         .Get(spec_.base.system)
                         .Load(spec_.base.dataset_path);
    } else {
      shared_jobs_ = spec_.base.jobs_override;
    }
    if (shared_jobs_.empty()) {
      throw std::invalid_argument("SweepRunner '" + spec_.name +
                                  "': base scenario yields no jobs (set "
                                  "dataset_path, jobs_override, or synthetic)");
    }
  }
  resolved_ = true;
}

SweepSummary SweepRunner::Run(const SweepOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  ResolveWorkload();

  const std::size_t total = spec_.ScenarioCount();
  const std::size_t shard_size = std::max<std::size_t>(1, options.shard_size);
  const std::size_t num_shards = (total + shard_size - 1) / shard_size;
  const bool spill = !options.output_dir.empty();

  // Scenario subrange (the distributed tier's work unit).  With shards on
  // disk both ends must fall on shard boundaries, so every shard this run
  // produces is complete — and therefore byte-identical to the same shard
  // of a whole-grid run.
  const std::size_t begin = options.scenario_begin;
  const std::size_t end = std::min(options.scenario_end, total);
  if (begin > end) {
    throw std::invalid_argument(
        "SweepRunner '" + spec_.name + "': scenario_begin " +
        std::to_string(begin) + " > scenario_end " + std::to_string(end));
  }
  const bool full_range = begin == 0 && end == total;
  if (spill && !full_range &&
      (begin % shard_size != 0 || (end != total && end % shard_size != 0))) {
    throw std::invalid_argument(
        "SweepRunner '" + spec_.name + "': scenario range [" +
        std::to_string(begin) + ", " + std::to_string(end) +
        ") is not aligned to shard_size " + std::to_string(shard_size));
  }
  if (spill && !full_range && options.write_aggregates) {
    throw std::invalid_argument(
        "SweepRunner '" + spec_.name +
        "': a subrange run writes partial shards only; set write_aggregates "
        "= false (the merge step writes the whole-grid artifacts)");
  }
  const auto rows_in_shard = [&](std::size_t s) {
    return std::min(shard_size, total - s * shard_size);
  };

  const std::vector<std::string> header = ShardHeader(spec_);

  // Shard buffers hold formatted cells only until the shard's last row
  // lands, then the shard is written (rows in index order) and freed.
  struct ShardBuffer {
    std::vector<std::vector<std::string>> rows;
    std::size_t done = 0;
  };
  std::vector<ShardBuffer> shards(spill ? num_shards : 0);

  SweepAggregator aggregator(total);
  SweepSummary summary;
  summary.total = end - begin;
  summary.shard_paths.resize(spill ? num_shards : 0);
  std::mutex mu;

  std::string io_error;  // first shard-write failure; rethrown after join

  // A row for a scenario that threw before it could run (bad axis value
  // surviving the probe, workload generation failure, ...).  Axis values are
  // reconstructed by plain index decomposition so the row still labels
  // itself without re-entering the code that threw.
  auto failed_row = [&](std::size_t i, const char* what) {
    SweepRow row;
    row.index = i;
    char suffix[24];
    std::snprintf(suffix, sizeof suffix, "-%06zu", i);
    row.name = spec_.name + suffix;
    row.error = what;
    row.axis_values.resize(spec_.axes.size());
    std::size_t rem = i;
    for (std::size_t a = spec_.axes.size(); a-- > 0;) {
      row.axis_values[a] = spec_.axes[a].values[rem % spec_.axes[a].values.size()];
      rem /= spec_.axes[a].values.size();
    }
    return row;
  };

  /// Applies the sweep's workload resolution to one expanded scenario (the
  /// per-scenario synthetic generation, or the load-once shared set).
  auto resolve_workload = [&](ExpandedScenario& expanded) {
    if (expanded.synthetic) {
      expanded.spec.dataset_path.clear();
      expanded.spec.jobs_override = GenerateSyntheticWorkload(*expanded.synthetic);
    } else if (expanded.spec.jobs_override.empty()) {
      expanded.spec.dataset_path.clear();
      expanded.spec.jobs_override = shared_jobs_;  // engine takes ownership
    }
  };

  // RunScenarioSpec captures simulation failures itself; the try here guards
  // expansion and workload generation, so a throw fails one row instead of
  // escaping the thread and terminating the process.
  auto run_one = [&](std::size_t i) -> SnapshotTreeRunner::PlainRun {
    try {
      ExpandedScenario expanded = spec_.Expand(i);
      resolve_workload(expanded);
      // No per-scenario output directory and no stats JSON: the row is all
      // that survives this iteration.
      ScenarioResult result = RunScenarioSpec(std::move(expanded.spec), "", false);
      return {RowFromResult(result, i, std::move(expanded.axis_values)),
              static_cast<double>(result.sim_end - result.sim_start)};
    } catch (const std::exception& e) {
      return {failed_row(i, e.what())};
    }
  };

  auto fold_row = [&](SweepRow row) {
    const std::size_t i = row.index;
    std::vector<std::string> cells;
    if (spill) cells = ShardCells(row);

    // Under the mutex: fold + shard bookkeeping only.  Serialisation and
    // the disk write happen after release so a flush never stalls the
    // other workers.
    std::vector<std::vector<std::string>> complete_rows;
    std::size_t complete_shard = num_shards;  // sentinel: nothing to write
    {
      std::lock_guard<std::mutex> lock(mu);
      aggregator.Fold(row);
      // Counted here rather than from Finalize() so a subrange run (which
      // never finalizes the whole-grid aggregator) still reports its own
      // ok/failed split.
      if (row.ok) {
        ++summary.ok_count;
      } else {
        ++summary.failed_count;
      }
      if (!row.ok && summary.sample_errors.size() < 5) {
        summary.sample_errors.push_back(row.name + ": " + row.error);
      }
      if (spill) {
        const std::size_t s = i / shard_size;
        ShardBuffer& shard = shards[s];
        if (shard.rows.empty()) shard.rows.resize(rows_in_shard(s));
        shard.rows[i - s * shard_size] = std::move(cells);
        if (++shard.done == rows_in_shard(s)) {
          complete_rows = std::move(shard.rows);
          shard.rows = {};  // free the buffer
          complete_shard = s;
        }
      }
    }
    if (complete_shard != num_shards) {
      CsvWriter writer(header);
      for (std::vector<std::string>& r : complete_rows) writer.AddRow(std::move(r));
      const std::string path = options.output_dir + "/" + ShardFileName(complete_shard);
      try {
        writer.Save(path);
        // Distinct slot per shard: no lock needed for the path record.
        summary.shard_paths[complete_shard] = path;
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu);
        if (io_error.empty()) io_error = e.what();
      }
    }
  };

  // Execution path: the snapshot tree when requested and at least one axis
  // is bounded; else one plain run per scenario.  Both produce
  // bit-identical rows, shards, and aggregates.
  if (options.tree) {
    SnapshotTreeRunner tree(spec_, resolve_workload, run_one);
    if (tree.worthwhile()) {
      summary.tree_used = true;
      summary.tree_stats = tree.Run(begin, end, options.threads,
                                    [&](SweepRow row) { fold_row(std::move(row)); });
    }
  }
  if (!summary.tree_used) {
    ParallelIndexFor(end - begin, options.threads, [&](std::size_t u) {
      fold_row(run_one(begin + u).row);
    });
  }

  if (!io_error.empty()) {
    throw std::runtime_error("SweepRunner '" + spec_.name +
                             "': shard write failed: " + io_error);
  }
  // Whole-grid aggregates only make sense when the whole grid ran; a
  // subrange run leaves them empty (the merge step finalizes its own
  // aggregator over every shard).
  if (full_range) summary.aggregates = aggregator.Finalize();

  if (spill && full_range && options.write_aggregates) {
    WriteSweepArtifacts(options.output_dir, spec_, summary.aggregates,
                        shard_size);
    if (summary.tree_used) {
      std::ofstream out(options.output_dir + "/tree_stats.json");
      out << summary.tree_stats.ToJson().Dump(2) << "\n";
      if (!out) {
        throw std::runtime_error("SweepRunner: cannot write " +
                                 options.output_dir + "/tree_stats.json");
      }
    }
  }

  summary.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  return summary;
}

}  // namespace sraps
