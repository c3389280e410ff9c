// Command-line front end mirroring the paper artifact's `python main.py`
// surface, plus dataset generation so every run works offline:
//
//   # generate a PM100-shaped dataset, then replay it
//   ./sraps_cli --generate marconi100 --data ~/data/marconi100
//   ./sraps_cli --system marconi100 -f ~/data/marconi100 --scheduler default --policy replay -o out/replay
//
//   # reschedule with EASY backfill over a sub-window
//   ./sraps_cli --system marconi100 -f ~/data/marconi100 --policy fcfs --backfill easy -ff 4h -t 17h -o out/fcfs-easy
//
//   # drive a run from a scenario file (later flags override its fields)
//   ./sraps_cli --scenario whatif.json -o out/whatif
//
//   # two-phase incentive study
//   ./sraps_cli --system marconi100 -f DATA --policy replay --accounts -o out/collect
//   ./sraps_cli --system marconi100 -f DATA --scheduler experimental --policy acct_fugaku_pts --backfill firstfit --accounts-json out/collect/accounts.json -o out/redeem
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/simulation.h"
#include "core/simulation_builder.h"
#include "core/validate.h"
#include "common/log.h"
#include "dataloaders/adastra.h"
#include "dataloaders/dataloader.h"
#include "dataloaders/frontier.h"
#include "dataloaders/fugaku.h"
#include "dataloaders/lassen.h"
#include "dataloaders/marconi.h"
#include "dataloaders/mini.h"
#include "grid/grid_environment.h"
#include "report/html_report.h"
#include "report/sweep_report.h"
#include "sched/policies.h"
#include "sched/scheduler_registry.h"
#include "dist/coordinator.h"
#include "sweep/sweep_runner.h"

using namespace sraps;

namespace {

std::string Joined(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += "|";
    out += n;
  }
  return out;
}

void Usage() {
  EnsureBuiltinComponents();
  std::printf(
      "sraps_cli — scheduled digital-twin simulator (S-RAPS reproduction)\n\n"
      "usage: sraps_cli [options]\n"
      "  --system NAME        %s\n"
      "  -f, --data PATH      dataset directory (jobs.csv [+ traces.csv])\n"
      "  --scenario FILE      load a ScenarioSpec JSON file (later flags override)\n"
      "  --save-scenario F    write the resolved ScenarioSpec to F and exit\n"
      "  --scheduler NAME     %s\n"
      "  --policy NAME        %s\n"
      "  --backfill NAME      %s\n"
      "  -ff DURATION         fast-forward into the dataset (e.g. 4h, 35d, 61000)\n"
      "  -t DURATION          simulation length (default: to dataset end)\n"
      "  -c, --cooling        couple the cooling model (frontier, mini)\n"
      "  --cooling-topology F thermal topology JSON (racks, nodes_per_rack,\n"
      "                       hr_matrix) enabling the thermal-aware policies\n"
      "  --supply-temp C      override the facility supply setpoint (deg C)\n"
      "  --thermal-transient F  transient-thermal JSON (rack_tau_s, CRAC loop,\n"
      "                       trip_inlet_c; needs --cooling-topology or a\n"
      "                       system that declares one)\n"
      "  --accounts           accumulate per-account statistics\n"
      "  --accounts-json P    reload a collection run's accounts.json\n"
      "  --tick SECONDS       override the engine tick\n"
      "  --event-calendar     hop the clock event-to-event (bit-identical, faster)\n"
      "  --power-cap KW       facility power cap what-if (throttles + dilates)\n"
      "  --grid FILE          GridEnvironment JSON (price/carbon signals,\n"
      "                       demand-response cap windows, grid_aware slack)\n"
      "  --grid-csv FILE      load a time,value CSV as the $/kWh price signal\n"
      "  --machines FILE      machine-class JSON array (replaces the system's\n"
      "                       classes: node counts, P-state ladders, C/S states)\n"
      "  --validate           compare the realised schedule to the recorded one\n"
      "  --report             also write a self-contained report.html\n"
      "  -o, --output DIR     write history.csv/stats.out/job_history.csv"
      "[/accounts.json]\n"
      "  --sweep FILE         run a SweepSpec JSON grid (see DESIGN.md) and exit;\n"
      "                       with --report also writes sweep_report.html\n"
      "  --sweep-out DIR      spill sweep rows-*.csv shards + aggregates.json there\n"
      "  --sweep-threads N    sweep worker threads (default: hardware)\n"
      "  --sweep-shard N      scenarios per sweep CSV shard (default 256)\n"
      "  --sweep-tree         snapshot-tree execution: classify axes by\n"
      "                       first-effect time, share the trajectory up to\n"
      "                       each divergence and fork branches there; price\n"
      "                       and carbon scale variants only replay accounting;\n"
      "                       outputs stay bit-identical to the plain path\n"
      "  --sweep-distributed N  run the sweep across N sraps_sweep_worker\n"
      "                       processes via a filesystem work queue, then\n"
      "                       merge byte-identical artifacts (needs --sweep-out)\n"
      "  --sweep-workdir DIR  work-queue directory for --sweep-distributed\n"
      "                       (default: <sweep-out>.work; must not pre-exist)\n"
      "  --sweep-kill-worker  fault injection: SIGKILL one worker mid-sweep\n"
      "                       (CI uses this to prove crash recovery)\n"
      "  --sweep-steal-timeout S  reclaim a worker's claimed items after S\n"
      "                       seconds without completion (default 30)\n"
      "  --generate SYSTEM    generate a synthetic dataset into --data and exit\n"
      "                       (also: frontier-fig6 for the hero-run scenario)\n"
      "  -v                   verbose logging\n",
      Joined(DataloaderRegistry::Instance().Names()).c_str(),
      Joined(SchedulerRegistry().Names()).c_str(),
      Joined(PolicyRegistry().Names()).c_str(),
      Joined(BackfillRegistry().Names()).c_str());
}

bool NextArg(int argc, char** argv, int& i, std::string& out) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", argv[i]);
    return false;
  }
  out = argv[++i];
  return true;
}

int Generate(const std::string& system, const std::string& dir) {
  if (dir.empty()) {
    std::fprintf(stderr, "--generate requires --data DIR\n");
    return 2;
  }
  std::size_t n = 0;
  if (system == "marconi100") {
    n = GenerateMarconiDataset(dir).size();
  } else if (system == "frontier") {
    n = GenerateFrontierDataset(dir).size();
  } else if (system == "frontier-fig6") {
    n = GenerateFrontierFig6Scenario(dir).size();
  } else if (system == "fugaku") {
    n = GenerateFugakuDataset(dir).size();
  } else if (system == "lassen") {
    n = GenerateLassenDataset(dir).size();
  } else if (system == "adastraMI250") {
    n = GenerateAdastraDataset(dir).size();
  } else if (system == "mini") {
    n = GenerateMiniDataset(dir).size();
  } else {
    std::fprintf(stderr, "unknown generator '%s'\n", system.c_str());
    return 2;
  }
  std::printf("generated %zu jobs under %s\n", n, dir.c_str());
  return 0;
}

int RunSweep(const std::string& spec_path, const SweepOptions& options,
             bool html_report) {
  SweepRunner runner(SweepSpec::LoadFile(spec_path));
  const std::size_t total = runner.spec().ScenarioCount();
  std::printf("sweep '%s': %zu scenarios over %zu axes\n",
              runner.spec().name.c_str(), total, runner.spec().axes.size());
  const SweepSummary summary = runner.Run(options);
  std::printf("%zu ok, %zu failed in %.2f s (%.1f scenarios/s)\n",
              summary.ok_count, summary.failed_count, summary.wall_seconds,
              summary.wall_seconds > 0
                  ? static_cast<double>(summary.total) / summary.wall_seconds
                  : 0.0);
  if (summary.tree_used) {
    std::printf(
        "snapshot tree: %zu scenarios from %zu trajectories "
        "(%zu roots, %zu forks, %zu probes, %zu fallback), "
        "%.0f%% of plain sim-time saved\n",
        summary.tree_stats.scenarios, summary.tree_stats.Trajectories(),
        summary.tree_stats.roots, summary.tree_stats.forks,
        summary.tree_stats.probe_runs, summary.tree_stats.fallback_scenarios,
        100.0 * summary.tree_stats.SavedFraction());
  }
  for (const std::string& err : summary.sample_errors) {
    std::fprintf(stderr, "  failed: %s\n", err.c_str());
  }
  std::printf("%s\n", summary.aggregates.ToJson().Dump(2).c_str());
  if (html_report && options.output_dir.empty()) {
    std::fprintf(stderr,
                 "note: --report needs --sweep-out DIR; no report written\n");
  }
  if (!options.output_dir.empty()) {
    std::printf("%zu row shard(s) + aggregates.json written to %s/\n",
                summary.shard_paths.size(), options.output_dir.c_str());
    if (html_report) {
      const std::string path = options.output_dir + "/sweep_report.html";
      WriteReportFile(
          path, RenderSweepReport(runner.spec(), summary.aggregates,
                                  summary.tree_used ? &summary.tree_stats
                                                    : nullptr));
      std::printf("report written to %s\n", path.c_str());
    }
  }
  // Any failed scenario is a nonzero exit: the sweep-smoke and nightly CI
  // lanes gate on this, so a half-broken grid cannot pass green.
  return summary.failed_count == 0 ? 0 : 1;
}

int RunSweepDistributed(const std::string& spec_path,
                        const SweepOptions& options, unsigned workers,
                        std::string work_dir, bool kill_worker,
                        double steal_timeout_s) {
  if (options.output_dir.empty()) {
    std::fprintf(stderr, "--sweep-distributed needs --sweep-out DIR\n");
    return 2;
  }
  if (work_dir.empty()) work_dir = options.output_dir + ".work";
  DistributedSweepOptions dist;
  dist.workers = workers;
  dist.threads_per_worker = options.threads;
  dist.tree = options.tree;
  dist.shard_size = options.shard_size;
  dist.kill_first_worker = kill_worker;
  dist.straggler_timeout_s = steal_timeout_s;
  const SweepSpec spec = SweepSpec::LoadFile(spec_path);
  std::printf("sweep '%s': %zu scenarios over %zu axes, %u worker process(es)\n",
              spec.name.c_str(), spec.ScenarioCount(), spec.axes.size(),
              workers);
  const DistributedSweepSummary summary =
      RunDistributedSweep(spec, work_dir, options.output_dir, dist);
  std::printf(
      "%zu ok, %zu failed in %.2f s; %zu item(s): %zu reclaimed, %zu drained "
      "inline, %zu worker(s) killed\n",
      summary.ok_count, summary.failed_count, summary.wall_seconds,
      summary.items_total, summary.items_reclaimed, summary.items_inline,
      summary.workers_killed);
  std::printf("%s\n", summary.aggregates.ToJson().Dump(2).c_str());
  std::printf("%zu merged shard(s) + aggregates.json written to %s/\n",
              summary.shard_paths.size(), options.output_dir.c_str());
  return summary.failed_count == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioSpec opts;
  opts.system = "mini";
  std::string output_dir;
  std::string generate_system;
  std::string save_scenario;
  std::string sweep_spec;
  SweepOptions sweep_options;
  unsigned dist_workers = 0;
  std::string dist_workdir;
  bool dist_kill_worker = false;
  double dist_steal_timeout = 30.0;
  bool validate = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string v;
    if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
      Usage();
      return 0;
    } else if (!std::strcmp(a, "--scenario")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      try {
        opts = ScenarioSpec::LoadFile(v);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    } else if (!std::strcmp(a, "--save-scenario")) {
      if (!NextArg(argc, argv, i, save_scenario)) return 2;
    } else if (!std::strcmp(a, "--system")) {
      if (!NextArg(argc, argv, i, opts.system)) return 2;
    } else if (!std::strcmp(a, "-f") || !std::strcmp(a, "--data")) {
      if (!NextArg(argc, argv, i, opts.dataset_path)) return 2;
    } else if (!std::strcmp(a, "--scheduler")) {
      if (!NextArg(argc, argv, i, opts.scheduler)) return 2;
    } else if (!std::strcmp(a, "--policy")) {
      if (!NextArg(argc, argv, i, opts.policy)) return 2;
    } else if (!std::strcmp(a, "--backfill")) {
      if (!NextArg(argc, argv, i, opts.backfill)) return 2;
    } else if (!std::strcmp(a, "-ff")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      const auto d = ParseDuration(v);
      if (!d) {
        std::fprintf(stderr, "bad duration '%s'\n", v.c_str());
        return 2;
      }
      opts.fast_forward = *d;
    } else if (!std::strcmp(a, "-t")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      const auto d = ParseDuration(v);
      if (!d) {
        std::fprintf(stderr, "bad duration '%s'\n", v.c_str());
        return 2;
      }
      opts.duration = *d;
    } else if (!std::strcmp(a, "--tick")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      try {
        opts.tick = std::stoll(v);
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad tick '%s'\n", v.c_str());
        return 2;
      }
    } else if (!std::strcmp(a, "--event-calendar")) {
      opts.event_calendar = true;
    } else if (!std::strcmp(a, "-c") || !std::strcmp(a, "--cooling")) {
      opts.cooling = true;
    } else if (!std::strcmp(a, "--accounts")) {
      opts.accounts = true;
    } else if (!std::strcmp(a, "--accounts-json")) {
      if (!NextArg(argc, argv, i, opts.accounts_json)) return 2;
    } else if (!std::strcmp(a, "-o") || !std::strcmp(a, "--output")) {
      if (!NextArg(argc, argv, i, output_dir)) return 2;
    } else if (!std::strcmp(a, "--generate")) {
      if (!NextArg(argc, argv, i, generate_system)) return 2;
    } else if (!std::strcmp(a, "--sweep")) {
      if (!NextArg(argc, argv, i, sweep_spec)) return 2;
    } else if (!std::strcmp(a, "--sweep-out")) {
      if (!NextArg(argc, argv, i, sweep_options.output_dir)) return 2;
    } else if (!std::strcmp(a, "--sweep-threads")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      // std::stoul accepts "-1" by wrapping; reject negatives explicitly.
      try {
        if (v.find('-') != std::string::npos) throw std::invalid_argument(v);
        sweep_options.threads = static_cast<unsigned>(std::stoul(v));
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad thread count '%s'\n", v.c_str());
        return 2;
      }
    } else if (!std::strcmp(a, "--sweep-tree")) {
      sweep_options.tree = true;
    } else if (!std::strcmp(a, "--sweep-distributed")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      try {
        if (v.find('-') != std::string::npos) throw std::invalid_argument(v);
        dist_workers = static_cast<unsigned>(std::stoul(v));
        if (dist_workers == 0) throw std::invalid_argument(v);
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad worker count '%s'\n", v.c_str());
        return 2;
      }
    } else if (!std::strcmp(a, "--sweep-workdir")) {
      if (!NextArg(argc, argv, i, dist_workdir)) return 2;
    } else if (!std::strcmp(a, "--sweep-kill-worker")) {
      dist_kill_worker = true;
    } else if (!std::strcmp(a, "--sweep-steal-timeout")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      try {
        dist_steal_timeout = std::stod(v);
        if (dist_steal_timeout <= 0) throw std::invalid_argument(v);
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad steal timeout '%s'\n", v.c_str());
        return 2;
      }
    } else if (!std::strcmp(a, "--sweep-shard")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      try {
        if (v.find('-') != std::string::npos) throw std::invalid_argument(v);
        sweep_options.shard_size = std::stoul(v);
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad shard size '%s'\n", v.c_str());
        return 2;
      }
    } else if (!std::strcmp(a, "--grid")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      try {
        std::ifstream in(v);
        if (!in) throw std::runtime_error("cannot open '" + v + "'");
        std::ostringstream text;
        text << in.rdbuf();
        opts.grid = GridEnvironment::FromJson(JsonValue::Parse(text.str()));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bad grid file '%s': %s\n", v.c_str(), e.what());
        return 2;
      }
    } else if (!std::strcmp(a, "--machines")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      try {
        std::ifstream in(v);
        if (!in) throw std::runtime_error("cannot open '" + v + "'");
        std::ostringstream text;
        text << in.rdbuf();
        opts.machines.clear();
        const JsonValue parsed = JsonValue::Parse(text.str());
        for (const JsonValue& m : parsed.AsArray()) {
          opts.machines.push_back(MachineClassSpec::FromJson(m));
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bad machines file '%s': %s\n", v.c_str(), e.what());
        return 2;
      }
    } else if (!std::strcmp(a, "--cooling-topology")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      try {
        std::ifstream in(v);
        if (!in) throw std::runtime_error("cannot open '" + v + "'");
        std::ostringstream text;
        text << in.rdbuf();
        opts.cooling_topology =
            ThermalTopologySpec::FromJson(JsonValue::Parse(text.str()));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bad cooling topology file '%s': %s\n", v.c_str(),
                     e.what());
        return 2;
      }
    } else if (!std::strcmp(a, "--thermal-transient")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      try {
        std::ifstream in(v);
        if (!in) throw std::runtime_error("cannot open '" + v + "'");
        std::ostringstream text;
        text << in.rdbuf();
        opts.cooling_transient =
            TransientThermalSpec::FromJson(JsonValue::Parse(text.str()));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bad transient thermal file '%s': %s\n", v.c_str(),
                     e.what());
        return 2;
      }
    } else if (!std::strcmp(a, "--supply-temp")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      try {
        opts.cooling_supply_temp_c = std::stod(v);
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad supply temperature '%s'\n", v.c_str());
        return 2;
      }
    } else if (!std::strcmp(a, "--grid-csv")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      try {
        opts.grid.price_usd_per_kwh = GridSignal::FromCsv(v);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bad grid CSV '%s': %s\n", v.c_str(), e.what());
        return 2;
      }
    } else if (!std::strcmp(a, "--power-cap")) {
      if (!NextArg(argc, argv, i, v)) return 2;
      try {
        opts.power_cap_w = std::stod(v) * 1000.0;
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad power cap '%s'\n", v.c_str());
        return 2;
      }
    } else if (!std::strcmp(a, "--validate")) {
      validate = true;
    } else if (!std::strcmp(a, "--report")) {
      opts.html_report = true;
    } else if (!std::strcmp(a, "-v")) {
      SetLogLevel(LogLevel::kInfo);
    } else {
      std::fprintf(stderr, "unknown option '%s' (see --help)\n", a);
      return 2;
    }
  }

  try {
    if (!generate_system.empty()) return Generate(generate_system, opts.dataset_path);
    if (!sweep_spec.empty()) {
      if (dist_workers > 0) {
        return RunSweepDistributed(sweep_spec, sweep_options, dist_workers,
                                   dist_workdir, dist_kill_worker,
                                   dist_steal_timeout);
      }
      return RunSweep(sweep_spec, sweep_options, opts.html_report);
    }
    if (!save_scenario.empty()) {
      opts.SaveFile(save_scenario);
      std::printf("scenario written to %s\n", save_scenario.c_str());
      return 0;
    }
    if (opts.dataset_path.empty()) {
      std::fprintf(stderr, "no dataset: pass -f DIR (or --generate SYSTEM first)\n");
      return 2;
    }
    auto sim = SimulationBuilder(opts).Build();
    std::printf("simulating %s [%s .. %s] policy=%s backfill=%s scheduler=%s\n",
                opts.system.c_str(), FormatTime(sim->sim_start()).c_str(),
                FormatTime(sim->sim_end()).c_str(), opts.policy.c_str(),
                opts.backfill.c_str(), opts.scheduler.c_str());
    sim->Run();
    const auto& eng = sim->engine();
    std::printf("completed %zu jobs (%zu dismissed, %zu prepopulated) in %.2f s "
                "(%.0fx realtime)\n",
                eng.counters().completed, eng.counters().dismissed,
                eng.counters().prepopulated, sim->wall_seconds(),
                sim->SpeedupVsRealtime());
    std::printf("%s\n", eng.stats().ToJson().Dump(2).c_str());
    if (validate) {
      std::printf("validation vs recorded schedule:\n%s\n",
                  ValidateAgainstRecorded(eng).ToJson().Dump(2).c_str());
    }
    if (!output_dir.empty()) {
      sim->SaveOutputs(output_dir);
      std::printf("outputs written to %s/\n", output_dir.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
