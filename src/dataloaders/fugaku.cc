#include "dataloaders/fugaku.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "common/csv.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "dataloaders/replay_synth.h"
#include "workload/synthetic.h"

namespace sraps {
namespace fs = std::filesystem;
namespace {

const char* ArchetypeName(FugakuArchetype a) {
  switch (a) {
    case FugakuArchetype::kComputeBound: return "compute";
    case FugakuArchetype::kMemoryBound: return "memory";
    case FugakuArchetype::kDebug: return "debug";
    case FugakuArchetype::kCapability: return "capability";
    case FugakuArchetype::kEnsemble: return "ensemble";
  }
  return "?";
}

struct ArchetypeParams {
  FugakuArchetype kind;
  double weight;          ///< mix fraction
  double nodes_log2_mu;   ///< node count ~ 2^N(mu, sd)
  double nodes_log2_sd;
  double runtime_mu;      ///< runtime ~ LogNormal
  double runtime_sigma;
  double power_mu_w;      ///< per-node average power ~ N(mu, sd), clamped
  double power_sd_w;
};

// A64FX node: idle ~100 W, peak ~230 W (see config).  Archetypes spread
// across that range so clustering has signal.
const ArchetypeParams kArchetypes[] = {
    {FugakuArchetype::kComputeBound, 0.25, 4.0, 1.5, 9.2, 0.8, 205.0, 12.0},
    {FugakuArchetype::kMemoryBound, 0.25, 4.0, 1.5, 9.4, 0.8, 160.0, 10.0},
    {FugakuArchetype::kDebug, 0.20, 0.8, 0.8, 6.0, 0.8, 120.0, 10.0},
    {FugakuArchetype::kCapability, 0.10, 8.0, 1.2, 8.8, 0.7, 190.0, 15.0},
    {FugakuArchetype::kEnsemble, 0.20, 2.0, 1.0, 7.8, 0.6, 150.0, 12.0},
};

}  // namespace

SystemConfig FugakuSliceConfig(int nodes) {
  SystemConfig c = MakeSystemConfig("fugaku");
  c.machines[0].num_nodes = nodes;
  c.cooling.design_it_load_kw *= static_cast<double>(nodes) / 158976.0;
  return c;
}

std::vector<Job> FugakuLoader::Load(const std::string& path) const {
  fs::path root(path);
  fs::path jobs_csv = fs::is_directory(root) ? root / "jobs.csv" : root;
  const CsvTable t = CsvTable::Load(jobs_csv.string());
  std::vector<Job> jobs;
  jobs.reserve(t.num_rows());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    Job j;
    j.id = t.GetInt(r, "job_id").value();
    j.user = t.Cell(r, "usr");
    j.account = t.Cell(r, "acct");
    j.submit_time = t.GetInt(r, "submit_time").value();
    j.recorded_start = t.GetInt(r, "start_time").value_or(-1);
    j.recorded_end = t.GetInt(r, "end_time").value_or(-1);
    j.time_limit = t.GetInt(r, "time_limit").value_or(0);
    j.nodes_required = static_cast<int>(t.GetInt(r, "nnumr").value());
    j.priority = t.GetDouble(r, "priority").value_or(0.0);
    j.name = t.Cell(r, "perf_class") + "-" + std::to_string(j.id);
    // Power telemetry: prefer the average power column; fall back to
    // energy / (runtime * nodes) when only energy is present.
    if (auto p = t.GetDouble(r, "avg_power_w")) {
      j.node_power_w = TraceSeries::Constant(*p);
    } else if (auto e = t.GetDouble(r, "energy_j")) {
      if (j.recorded_start >= 0 && j.recorded_end > j.recorded_start &&
          j.nodes_required > 0) {
        const double runtime =
            static_cast<double>(j.recorded_end - j.recorded_start);
        j.node_power_w =
            TraceSeries::Constant(*e / (runtime * j.nodes_required));
      }
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

std::vector<Job> GenerateFugakuDataset(const std::string& dir,
                                       const FugakuDatasetSpec& spec) {
  Rng rng(spec.seed);
  std::vector<double> weights;
  for (const auto& a : kArchetypes) weights.push_back(a.weight);

  std::vector<Job> jobs;
  JobId next_id = 1;
  double t = 0.0;
  while (true) {
    const bool high = static_cast<SimTime>(t) >= spec.high_load_start;
    const double rate =
        (high ? spec.high_rate_per_hour : spec.low_rate_per_hour) / 3600.0;
    t += rng.Exponential(rate);
    const SimTime submit = static_cast<SimTime>(t);
    if (submit >= spec.span) break;

    const ArchetypeParams& arch = kArchetypes[rng.Categorical(weights)];
    Job j;
    j.id = next_id++;
    const int acct = static_cast<int>(rng.UniformInt(0, 23));
    j.account = SyntheticAccountName(acct);
    j.user = SyntheticUserName(acct, static_cast<int>(rng.UniformInt(0, 3)));
    j.submit_time = submit;
    const double raw_nodes =
        std::pow(2.0, rng.Normal(arch.nodes_log2_mu, arch.nodes_log2_sd));
    j.nodes_required = static_cast<int>(
        Clamp(std::round(raw_nodes), 1.0, spec.scale_nodes * 0.5));
    const auto runtime = static_cast<SimDuration>(
        Clamp(rng.LogNormal(arch.runtime_mu, arch.runtime_sigma), 120.0, 2.0 * kDay));
    j.recorded_start = submit;
    j.recorded_end = submit + runtime;
    j.time_limit = static_cast<SimDuration>(runtime * rng.Uniform(1.2, 2.5));
    const double power = Clamp(rng.Normal(arch.power_mu_w, arch.power_sd_w), 80.0, 240.0);
    j.node_power_w = TraceSeries::Constant(power);
    j.priority = rng.Uniform(0.0, 100.0);
    j.name = std::string(ArchetypeName(arch.kind)) + "-" + std::to_string(j.id);
    jobs.push_back(std::move(j));
  }

  ReplaySynthesisOptions rs;
  rs.total_nodes = spec.scale_nodes;
  rs.utilization_cap = spec.utilization_cap;
  rs.max_hold = 20 * kMinute;
  rs.seed = spec.seed + 1;
  rs.assign_node_lists = false;  // F-Data carries no node placements
  SynthesizeRecordedSchedule(jobs, rs);

  fs::create_directories(dir);
  CsvWriter w({"job_id", "usr", "acct", "submit_time", "start_time", "end_time",
               "time_limit", "nnumr", "energy_j", "avg_power_w", "min_power_w",
               "max_power_w", "perf_class", "priority"});
  for (const Job& j : jobs) {
    const double power = j.node_power_w.values().front();
    const double runtime = static_cast<double>(j.recorded_end - j.recorded_start);
    const double energy = power * runtime * j.nodes_required;
    // The dataset reports min/max node power; approximate a +-8 % band.
    const std::string perf_class = j.name.substr(0, j.name.find('-'));
    w.AddRow({std::to_string(j.id), j.user, j.account, std::to_string(j.submit_time),
              std::to_string(j.recorded_start), std::to_string(j.recorded_end),
              std::to_string(j.time_limit), std::to_string(j.nodes_required),
              CsvNumber(energy), CsvNumber(power), CsvNumber(power * 0.92),
              CsvNumber(power * 1.08), perf_class, CsvNumber(j.priority)});
  }
  w.Save((fs::path(dir) / "jobs.csv").string());
  return jobs;
}

}  // namespace sraps
