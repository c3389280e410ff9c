#include "dataloaders/adastra.h"

#include <algorithm>
#include <array>
#include <filesystem>

#include "common/csv.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "config/system_config.h"
#include "dataloaders/replay_synth.h"
#include "workload/synthetic.h"

namespace sraps {
namespace fs = std::filesystem;

double DeriveAdastraGpuPowerW(double node_w, double cpu_w, double mem_w) {
  return std::max(0.0, node_w - cpu_w - mem_w);
}

std::vector<Job> AdastraLoader::Load(const std::string& path) const {
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
    j.name = "adastra-" + std::to_string(j.id);
    if (auto p = t.GetDouble(r, "node_power_w")) {
      j.node_power_w = TraceSeries::Constant(*p);
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

std::vector<Job> GenerateAdastraDataset(const std::string& dir,
                                        const AdastraDatasetSpec& spec) {
  const SystemConfig config = MakeSystemConfig("adastraMI250");
  Rng rng(spec.seed);

  SyntheticWorkloadSpec wl;
  wl.first_submit = 0;
  wl.horizon = spec.span;
  wl.arrival_rate_per_hour = spec.arrival_rate_per_hour;
  wl.max_nodes = 128;
  wl.mean_nodes_log2 = 2.0;
  wl.sd_nodes_log2 = 1.5;
  wl.runtime_mu = 9.0;  // longer jobs, low throughput
  wl.runtime_sigma = 1.2;
  wl.overestimate_factor = 1.5;
  wl.gpu_jobs = true;
  wl.trace_interval = config.telemetry_interval;
  wl.num_accounts = 10;
  wl.seed = spec.seed;
  std::vector<Job> jobs = GenerateSyntheticWorkload(wl);

  // Collapse traces to the dataset's per-job average component powers.
  const NodePowerSpec& node = config.machines[0].node_power;
  std::vector<std::array<double, 3>> component_powers;  // node, cpu, mem
  component_powers.reserve(jobs.size());
  for (Job& j : jobs) {
    const SimDuration runtime = j.recorded_end - j.recorded_start;
    const double cpu_u = j.cpu_util.empty() ? 0.4 : j.cpu_util.MeanOver(runtime);
    const double gpu_u = j.gpu_util.empty() ? 0.0 : j.gpu_util.MeanOver(runtime);
    const double cpu_w = node.cpus_per_node *
                         (node.cpu_idle_w + cpu_u * (node.cpu_max_w - node.cpu_idle_w));
    const double gpu_w = node.gpus_per_node *
                         (node.gpu_idle_w + gpu_u * (node.gpu_max_w - node.gpu_idle_w));
    const double mem_w = node.mem_w * rng.Uniform(0.8, 1.2);
    const double node_w = node.idle_w + node.nic_w + cpu_w + gpu_w + mem_w;
    j.node_power_w = TraceSeries::Constant(node_w);
    j.cpu_util = TraceSeries();
    j.gpu_util = TraceSeries();
    component_powers.push_back({node_w, cpu_w, mem_w});
  }

  ReplaySynthesisOptions rs;
  rs.total_nodes = config.TotalNodes();
  rs.utilization_cap = spec.utilization_cap;
  rs.max_hold = 15 * kMinute;
  rs.seed = spec.seed + 1;
  rs.assign_node_lists = false;
  SynthesizeRecordedSchedule(jobs, rs);

  fs::create_directories(dir);
  CsvWriter w({"job_id", "user", "account", "submit_time", "start_time", "end_time",
               "time_limit", "num_nodes", "node_power_w", "cpu_power_w", "mem_power_w",
               "priority"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    const auto& [node_w, cpu_w, mem_w] = component_powers[i];
    w.AddRow({std::to_string(j.id), j.user, j.account, std::to_string(j.submit_time),
              std::to_string(j.recorded_start), std::to_string(j.recorded_end),
              std::to_string(j.time_limit), std::to_string(j.nodes_required),
              CsvNumber(node_w), CsvNumber(cpu_w), CsvNumber(mem_w),
              CsvNumber(j.priority)});
  }
  w.Save((fs::path(dir) / "jobs.csv").string());
  return jobs;
}

}  // namespace sraps
