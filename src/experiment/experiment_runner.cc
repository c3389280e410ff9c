#include "experiment/experiment_runner.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/thread_pool.h"
#include "core/simulation.h"
#include "core/simulation_builder.h"
#include "dataloaders/dataloader.h"

namespace sraps {

ExperimentRunner::ExperimentRunner(ScenarioSpec base) : base_(std::move(base)) {}

ExperimentRunner& ExperimentRunner::Add(
    const std::string& name, const std::function<void(ScenarioSpec&)>& mutate) {
  if (name.empty()) {
    throw std::invalid_argument("ExperimentRunner: scenario name must not be empty");
  }
  // Copy the base without duplicating its workload: variants share the
  // load-once job set, substituted per run in RunAll.  A mutate callback may
  // still inject a custom jobs_override of its own.
  std::vector<Job> base_jobs = std::move(base_.jobs_override);
  ScenarioSpec spec = base_;
  base_.jobs_override = std::move(base_jobs);
  if (mutate) mutate(spec);
  spec.name = name;
  return Add(std::move(spec));
}

ExperimentRunner& ExperimentRunner::Add(ScenarioSpec spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("ExperimentRunner: scenario name must not be empty");
  }
  for (const ScenarioSpec& existing : scenarios_) {
    if (existing.name == spec.name) {
      throw std::invalid_argument("ExperimentRunner: duplicate scenario name '" +
                                  spec.name + "'");
    }
  }
  scenarios_.push_back(std::move(spec));
  return *this;
}

void ExperimentRunner::EnsureJobsLoaded() {
  if (jobs_loaded_) return;
  if (!base_.dataset_path.empty()) {
    EnsureBuiltinComponents();
    jobs_ =
        DataloaderRegistry::Instance().Get(base_.system).Load(base_.dataset_path);
  } else {
    jobs_ = base_.jobs_override;
  }
  if (jobs_.empty()) {
    throw std::invalid_argument(
        "ExperimentRunner: base scenario '" + base_.name +
        "' yields no jobs (set dataset_path or jobs_override)");
  }
  jobs_loaded_ = true;
}

void ExtractScenarioMetrics(const Simulation& sim, ScenarioResult& r,
                            bool capture_stats_json) {
  const SimulationEngine& eng = sim.engine();
  r.counters = eng.counters();
  r.completed = r.counters.completed;
  r.dismissed = r.counters.dismissed;
  r.avg_wait_s = eng.stats().AvgWaitSeconds();
  r.avg_turnaround_s = eng.stats().AvgTurnaroundSeconds();
  if (!eng.stats().records().empty()) {
    SimTime first_submit = eng.stats().records().front().submit;
    SimTime last_end = eng.stats().records().front().end;
    for (const JobRecord& rec : eng.stats().records()) {
      first_submit = std::min(first_submit, rec.submit);
      last_end = std::max(last_end, rec.end);
    }
    r.makespan_s = static_cast<double>(last_end - first_submit);
  }
  r.total_energy_j = eng.stats().TotalEnergyJ();
  r.grid_cost_usd = eng.grid_cost_usd();
  r.grid_co2_kg = eng.grid_co2_kg();
  if (eng.recorder().Has("power_kw")) {
    r.mean_power_kw = eng.recorder().MeanOf("power_kw");
    r.max_power_kw = eng.recorder().MaxOf("power_kw");
    r.mean_util_pct = eng.recorder().MeanOf("utilization");
  }
  if (eng.recorder().Has("pue")) {
    r.mean_pue = eng.recorder().MeanOf("pue");
  }
  r.sim_start = sim.sim_start();
  r.sim_end = sim.sim_end();
  r.wall_seconds = sim.wall_seconds();
  r.fingerprint = eng.stats().Fingerprint();
  if (capture_stats_json) r.stats = eng.stats().ToJson();
}

ScenarioResult RunScenarioSpec(ScenarioSpec spec, const std::string& output_dir,
                               bool capture_stats_json) {
  ScenarioResult r;
  r.name = spec.name;
  try {
    auto sim = SimulationBuilder(std::move(spec)).Build();
    sim->Run();
    if (!output_dir.empty()) sim->SaveOutputs(output_dir + "/" + r.name);
    ExtractScenarioMetrics(*sim, r, capture_stats_json);
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

std::vector<ScenarioResult> ExperimentRunner::RunAll(const ExperimentOptions& options) {
  if (scenarios_.empty()) {
    throw std::invalid_argument("ExperimentRunner: no scenarios added");
  }
  EnsureJobsLoaded();

  // Substitute the shared, load-once job set into every variant that still
  // points at the base workload; a variant that overrides the dataset or
  // injects its own jobs keeps its override.
  std::vector<ScenarioSpec> specs = scenarios_;
  for (ScenarioSpec& spec : specs) {
    // A variant shares the base workload unless it injected its own jobs or
    // points at a different dataset.  (With no dataset the jobs were injected
    // programmatically, so a variant may even swap the system under them.)
    const bool same_workload =
        spec.jobs_override.empty() && spec.dataset_path == base_.dataset_path &&
        (base_.dataset_path.empty() || spec.system == base_.system);
    if (same_workload) {
      spec.dataset_path.clear();
      spec.jobs_override = jobs_;  // per-variant copy: the engine takes ownership
    }
  }

  std::vector<ScenarioResult> results(specs.size());
  ParallelIndexFor(specs.size(), options.threads, [&](std::size_t i) {
    results[i] = RunScenarioSpec(std::move(specs[i]), options.output_dir);
    // Record the *pre-substitution* spec: it still names the dataset, so
    // the JSON export describes a reproducible run instead of carrying
    // (unserialisable) injected jobs.
    results[i].spec = scenarios_[i];
  });
  return results;
}

std::string ComparisonTable(const std::vector<ScenarioResult>& results) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-24s %6s %9s %9s %10s %8s %11s %8s\n",
                "scenario", "jobs", "wait[s]", "turn[s]", "power[kW]", "util[%]",
                "energy[MWh]", "wall[s]");
  out += line;
  for (const ScenarioResult& r : results) {
    if (!r.ok) {
      std::snprintf(line, sizeof(line), "%-24s FAILED: %s\n", r.name.c_str(),
                    r.error.c_str());
      out += line;
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "%-24s %6zu %9.0f %9.0f %10.1f %8.1f %11.3f %8.2f\n",
                  r.name.c_str(), r.counters.completed, r.avg_wait_s,
                  r.avg_turnaround_s, r.mean_power_kw, r.mean_util_pct,
                  r.total_energy_j / 3.6e9, r.wall_seconds);
    out += line;
  }
  return out;
}

std::string FingerprintHex(std::uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, fp);
  return buf;
}

const std::vector<std::string>& MetricNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    const RunMetrics m;
    ForEachMetric(m, [&](const char* name, const auto&) { names.emplace_back(name); });
    return names;
  }();
  return kNames;
}

JsonObject RunMetricsJson(const RunMetrics& m) {
  JsonObject obj;
  ForEachMetric(m, [&](const char* name, const auto& value) {
    if constexpr (std::is_integral_v<std::decay_t<decltype(value)>>) {
      obj[name] = JsonValue(static_cast<std::int64_t>(value));
    } else {
      obj[name] = value;
    }
  });
  return obj;
}

JsonValue ResultsToJson(const std::vector<ScenarioResult>& results) {
  JsonArray scenarios;
  scenarios.reserve(results.size());
  for (const ScenarioResult& r : results) {
    JsonObject obj = r.ok ? RunMetricsJson(r) : JsonObject{};
    obj["name"] = r.name;
    obj["ok"] = r.ok;
    obj["spec"] = r.spec.ToJson();
    if (!r.ok) {
      obj["error"] = r.error;
      scenarios.emplace_back(std::move(obj));
      continue;
    }
    obj["counters"] = r.counters.ToJson();
    obj["sim_start"] = JsonValue(static_cast<std::int64_t>(r.sim_start));
    obj["sim_end"] = JsonValue(static_cast<std::int64_t>(r.sim_end));
    obj["wall_seconds"] = r.wall_seconds;
    obj["stats"] = r.stats;
    scenarios.emplace_back(std::move(obj));
  }
  JsonObject root;
  root["scenarios"] = JsonValue(std::move(scenarios));
  return JsonValue(std::move(root));
}

}  // namespace sraps
