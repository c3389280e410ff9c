#include "dataloaders/frontier.h"

#include <algorithm>
#include <filesystem>

#include "common/mathutil.h"
#include "config/system_config.h"
#include "dataloaders/jobs_io.h"
#include "dataloaders/replay_synth.h"
#include "dataloaders/trace_table.h"
#include "workload/synthetic.h"

namespace sraps {
namespace fs = std::filesystem;

std::vector<Job> FrontierLoader::Load(const std::string& path) const {
  fs::path root(path);
  fs::path jobs_csv = fs::is_directory(root) ? root / "jobs.csv" : root;
  std::vector<Job> jobs = ReadJobsCsv(jobs_csv.string());
  const fs::path traces_csv = jobs_csv.parent_path() / "traces.csv";
  if (fs::exists(traces_csv)) {
    AttachTraces(jobs, LoadTraceTable(traces_csv.string()));
  }
  return jobs;
}

double FrontierPriority(SimTime submit, int nodes) {
  // Modified FIFO: age dominates, node count boosts — the documented
  // leadership-class incentive (large jobs skip ahead).  Units: "seconds of
  // age equivalent"; 1000 nodes of request ~ 4 h of queue age.
  return -static_cast<double>(submit) + static_cast<double>(nodes) * 14.4;
}

std::vector<Job> GenerateFrontierDataset(const std::string& dir,
                                         const FrontierDatasetSpec& spec) {
  const SystemConfig config = MakeSystemConfig("frontier");

  SyntheticWorkloadSpec wl;
  wl.first_submit = 0;
  wl.horizon = spec.span;
  wl.arrival_rate_per_hour = spec.arrival_rate_per_hour;
  // Draw no job larger than the recorded-schedule synthesiser below admits.
  // The clamp follows the draw, so the random stream is unchanged.
  wl.max_nodes =
      std::max(1, static_cast<int>(config.TotalNodes() * spec.utilization_cap));
  wl.mean_nodes_log2 = 6.0;  // leadership machine: jobs are hundreds of nodes
  wl.sd_nodes_log2 = 2.4;
  wl.runtime_mu = 8.8;
  wl.runtime_sigma = 1.3;
  wl.overestimate_factor = 1.7;
  wl.mean_cpu_util = 0.55;
  wl.mean_gpu_util = 0.7;  // GPU-dominant workloads
  wl.gpu_jobs = true;
  wl.trace_interval = config.telemetry_interval;  // 15 s cadence
  wl.num_accounts = 30;
  wl.seed = spec.seed;
  std::vector<Job> jobs = GenerateSyntheticWorkload(wl);
  for (Job& j : jobs) j.priority = FrontierPriority(j.submit_time, j.nodes_required);

  ReplaySynthesisOptions rs;
  rs.total_nodes = config.TotalNodes();
  rs.utilization_cap = spec.utilization_cap;
  rs.max_hold = spec.max_hold;
  rs.seed = spec.seed + 1;
  SynthesizeRecordedSchedule(jobs, rs);

  fs::create_directories(dir);
  WriteJobsCsv((fs::path(dir) / "jobs.csv").string(), jobs);
  SaveTraceTable((fs::path(dir) / "traces.csv").string(), jobs);
  return jobs;
}

std::vector<Job> GenerateFrontierFig6Scenario(const std::string& dir,
                                              const FrontierFig6Spec& spec) {
  const SystemConfig config = MakeSystemConfig("frontier");
  Rng rng(spec.seed);
  std::vector<Job> jobs;
  JobId next_id = 1;

  // Phase A: a busy mixed workload submitted over the first two hours —
  // enough demand to keep the machine near-full — with runtimes short
  // enough that the machine can drain for the heroes.
  SyntheticWorkloadSpec a;
  a.first_submit = 0;
  a.horizon = 2 * kHour;
  a.arrival_rate_per_hour = 220;
  a.max_nodes = 2048;
  a.mean_nodes_log2 = 5.5;
  a.sd_nodes_log2 = 2.0;
  a.runtime_mu = 8.4;  // median ~1.2 h, max clipped below
  a.runtime_sigma = 0.9;
  a.mean_cpu_util = 0.55;
  a.mean_gpu_util = 0.7;
  a.trace_interval = config.telemetry_interval;
  a.num_accounts = 16;
  a.seed = spec.seed + 1;
  for (Job j : GenerateSyntheticWorkload(a, next_id)) {
    // Clip phase-A runtimes so the drain completes within a few hours.
    const SimDuration runtime =
        std::min<SimDuration>(j.recorded_end - j.recorded_start, 3 * kHour + kHour / 2);
    j.recorded_end = j.recorded_start + runtime;
    j.time_limit = static_cast<SimDuration>(runtime * 1.5);
    next_id = std::max(next_id, j.id + 1);
    jobs.push_back(std::move(j));
  }

  // The three hero runs: full-system 9216-node jobs, submitted early (the
  // schedulers must clear space), high sustained GPU utilisation.
  const SimTime hero_submit = 90 * kMinute;
  std::vector<JobId> hero_ids;
  for (int k = 0; k < 3; ++k) {
    Job h;
    h.id = next_id++;
    h.name = "hero-" + std::to_string(k + 1);
    h.account = "acct_hero";  // dedicated flagship project: its accumulated
                              // behaviour is entirely hero-run shaped (§4.3)
    h.user = SyntheticUserName(0, k);
    h.submit_time = hero_submit + k * 5 * kMinute;
    h.nodes_required = spec.full_system_nodes;
    h.recorded_start = h.submit_time;  // placeholder; fixed below
    h.recorded_end = h.recorded_start + spec.hero_runtime;
    h.time_limit = static_cast<SimDuration>(spec.hero_runtime * 1.25);
    Rng hr = rng.Split();
    h.cpu_util = MakePhasedUtilTrace(hr, spec.hero_runtime, config.telemetry_interval,
                                     0.75, 0.03);
    h.gpu_util = MakePhasedUtilTrace(hr, spec.hero_runtime, config.telemetry_interval,
                                     0.95, 0.02);
    hero_ids.push_back(h.id);
    jobs.push_back(std::move(h));
  }

  // Phase B: the post-hero mix — varied sizes, lower utilisation, so total
  // power drops after the hero block (as in Fig. 6).
  SyntheticWorkloadSpec b;
  b.first_submit = 9 * kHour;
  b.horizon = spec.span - b.first_submit;
  b.arrival_rate_per_hour = 80;
  b.max_nodes = 3000;
  b.mean_nodes_log2 = 5.0;
  b.sd_nodes_log2 = 2.2;
  b.runtime_mu = 8.6;
  b.runtime_sigma = 1.0;
  b.mean_cpu_util = 0.45;
  b.mean_gpu_util = 0.5;  // lower-power tail
  b.trace_interval = config.telemetry_interval;
  b.num_accounts = 16;
  b.seed = spec.seed + 2;
  for (Job j : GenerateSyntheticWorkload(b, next_id)) {
    next_id = std::max(next_id, j.id + 1);
    jobs.push_back(std::move(j));
  }

  for (Job& j : jobs) j.priority = FrontierPriority(j.submit_time, j.nodes_required);

  // Recorded schedule: FCFS without backfill reproduces the production
  // behaviour — the machine drains for the heroes, runs them back to back,
  // then refills.
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& x, const Job& y) {
    return x.submit_time < y.submit_time;
  });
  ReplaySynthesisOptions rs;
  rs.total_nodes = config.TotalNodes();
  rs.utilization_cap = 1.0;  // the heroes need 9216 of 9600
  // Generous operator holds: the production schedule dawdles, which is what
  // lets S-RAPS place the hero runs earlier when rescheduling (§4.1).
  rs.max_hold = 50 * kMinute;
  rs.seed = spec.seed + 3;
  SynthesizeRecordedSchedule(jobs, rs);

  fs::create_directories(dir);
  WriteJobsCsv((fs::path(dir) / "jobs.csv").string(), jobs);
  SaveTraceTable((fs::path(dir) / "traces.csv").string(), jobs);
  return jobs;
}

}  // namespace sraps
