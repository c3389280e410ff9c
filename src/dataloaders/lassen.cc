#include "dataloaders/lassen.h"

#include <cmath>
#include <filesystem>

#include "common/csv.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "config/system_config.h"
#include "dataloaders/replay_synth.h"
#include "workload/synthetic.h"

namespace sraps {
namespace fs = std::filesystem;

std::vector<Job> LassenLoader::Load(const std::string& path) const {
  fs::path root(path);
  fs::path jobs_csv = fs::is_directory(root) ? root / "jobs.csv" : root;
  const CsvTable t = CsvTable::Load(jobs_csv.string());
  std::vector<Job> jobs;
  jobs.reserve(t.num_rows());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    Job j;
    j.id = t.GetInt(r, "job_id").value();
    j.user = t.Cell(r, "user");
    j.account = t.Cell(r, "account");
    j.submit_time = t.GetInt(r, "submit_time").value();
    j.recorded_start = t.GetInt(r, "start_time").value_or(-1);
    j.recorded_end = t.GetInt(r, "end_time").value_or(-1);
    j.time_limit = t.GetInt(r, "time_limit").value_or(0);
    j.nodes_required = static_cast<int>(t.GetInt(r, "num_nodes").value());
    j.priority = t.GetDouble(r, "priority").value_or(0.0);
    j.name = "lassen-" + std::to_string(j.id);
    if (auto e = t.GetDouble(r, "energy_j")) {
      if (j.recorded_start >= 0 && j.recorded_end > j.recorded_start &&
          j.nodes_required > 0) {
        const double runtime = static_cast<double>(j.recorded_end - j.recorded_start);
        j.node_power_w = TraceSeries::Constant(*e / (runtime * j.nodes_required));
      }
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

std::vector<Job> GenerateLassenDataset(const std::string& dir,
                                       const LassenDatasetSpec& spec) {
  const SystemConfig config = MakeSystemConfig("lassen");
  Rng rng(spec.seed);

  SyntheticWorkloadSpec wl;
  wl.first_submit = 0;
  wl.horizon = spec.span;
  wl.arrival_rate_per_hour = spec.arrival_rate_per_hour;
  wl.max_nodes = 256;  // LAST jobs are overwhelmingly small
  wl.mean_nodes_log2 = 1.5;
  wl.sd_nodes_log2 = 1.6;
  wl.runtime_mu = 7.8;  // many short jobs (LSF throughput workload)
  wl.runtime_sigma = 1.4;
  wl.overestimate_factor = 2.2;
  wl.gpu_jobs = true;
  wl.trace_interval = config.telemetry_interval;
  wl.num_accounts = 24;
  wl.seed = spec.seed;
  std::vector<Job> jobs = GenerateSyntheticWorkload(wl);

  // LAST provides summaries only: collapse the generated traces to a
  // constant power level so the loader sees exactly what LAST offers.
  const NodePowerSpec& node = config.machines[0].node_power;
  for (Job& j : jobs) {
    const SimDuration runtime = j.recorded_end - j.recorded_start;
    const double cpu = j.cpu_util.empty() ? 0.5 : j.cpu_util.MeanOver(runtime);
    const double gpu = j.gpu_util.empty() ? 0.0 : j.gpu_util.MeanOver(runtime);
    const double p = node.IdleW() +
                     node.cpus_per_node * cpu * (node.cpu_max_w - node.cpu_idle_w) +
                     node.gpus_per_node * gpu * (node.gpu_max_w - node.gpu_idle_w);
    j.node_power_w = TraceSeries::Constant(p);
    j.cpu_util = TraceSeries();
    j.gpu_util = TraceSeries();
  }

  ReplaySynthesisOptions rs;
  rs.total_nodes = config.TotalNodes();
  rs.utilization_cap = spec.utilization_cap;
  rs.max_hold = 30 * kMinute;
  rs.seed = spec.seed + 1;
  rs.assign_node_lists = false;
  SynthesizeRecordedSchedule(jobs, rs);

  fs::create_directories(dir);
  CsvWriter w({"job_id", "user", "account", "submit_time", "start_time", "end_time",
               "time_limit", "num_nodes", "energy_j", "net_tx_gb", "net_rx_gb",
               "priority"});
  for (const Job& j : jobs) {
    const double runtime = static_cast<double>(j.recorded_end - j.recorded_start);
    const double energy = j.node_power_w.values().front() * runtime * j.nodes_required;
    // Network volume loosely correlated with job size — LAST's distinguishing
    // columns, carried through so downstream feature extraction can use them.
    const double tx = j.nodes_required * runtime / 3600.0 * rng.Uniform(0.5, 8.0);
    const double rx = tx * rng.Uniform(0.7, 1.3);
    w.AddRow({std::to_string(j.id), j.user, j.account, std::to_string(j.submit_time),
              std::to_string(j.recorded_start), std::to_string(j.recorded_end),
              std::to_string(j.time_limit), std::to_string(j.nodes_required),
              CsvNumber(energy), CsvNumber(tx), CsvNumber(rx), CsvNumber(j.priority)});
  }
  w.Save((fs::path(dir) / "jobs.csv").string());
  return jobs;
}

}  // namespace sraps
