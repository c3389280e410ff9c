#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/scenario.h"
#include "core/simulation.h"
#include "core/simulation_builder.h"
#include "core/snapshot.h"
#include "dataloaders/dataloader.h"
#include "dataloaders/marconi.h"
#include "experiment/experiment_runner.h"
#include "loadgen.h"
#include "sha256.h"
#include "sched/scheduler_registry.h"
#include "serve/http_server.h"
#include "serve/scenario_service.h"
#include "stats.h"
#include "sweep/sweep_runner.h"
#include "sweep/tree/first_effect.h"
#include "trace.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace fs = std::filesystem;

void WorkloadResult::Set(const std::string& name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  metrics.push_back({name, value});
}

void WorkloadResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
}

namespace {

/// The rate at which serve latency is measured (q/s).
constexpr double kLatencyRate = 500.0;

/// Per-layer metrics of one traced run, only those the workload measured
/// (run.py checks the set against perfbench/metrics.json).  Each value is
/// the median over the traced repetitions of that repetition's figure.
class LayerTable {
 public:
  void Add(const std::string& name, double value) { samples_[name].push_back(value); }
  void Emit(WorkloadResult& out) const {
    for (const auto& [name, values] : samples_) out.Set(name, Median(values));
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Every span of the run, for writing out when it ends.  Take() hands back
/// the spans recorded since the previous call (indices local to that batch)
/// and keeps a copy with parents rebased onto the whole log.
class SpanLog {
 public:
  std::vector<Span> Take() {
    std::vector<Span> batch = Tracer::Take();
    const int offset = static_cast<int>(all_.size());
    for (Span span : batch) {
      if (span.parent >= 0) span.parent += offset;
      all_.push_back(std::move(span));
    }
    return batch;
  }
  void Write(const std::string& path) const {
    if (!path.empty()) WriteSpans(path, all_);
  }

 private:
  std::vector<Span> all_;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double PathMb(const fs::path& path) {
  if (fs::is_regular_file(path)) return static_cast<double>(fs::file_size(path)) / 1e6;
  double mb = 0.0;
  for (const auto& entry : fs::recursive_directory_iterator(path)) {
    if (entry.is_regular_file()) mb += static_cast<double>(entry.file_size()) / 1e6;
  }
  return mb;
}

/// Restricts the calling thread, and so every thread it starts later, to
/// one CPU, the last it may use.  On a shared virtual machine this steadies the two
/// workloads that are one chain of work: the CLI replay, which the kernel
/// otherwise moves between vCPUs, and the serve workload, whose queries pass
/// through four threads (generator, connection, fork worker, reader), where
/// waking a thread on another, idle vCPU waits for the host to schedule that
/// vCPU.  On one CPU each hand-off is a context switch, and serve capacity
/// is what one CPU answers.  The sweep's two threads compute in parallel and
/// are left free.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
    return;
  }
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs `rep(i)` for i = 0, 1, ... until `seconds` are spent, never fewer
/// than `min_reps` times: a repetition starts only when the previous one's
/// duration still fits in the time left.
void Repeat(double seconds, int min_reps, const std::function<void(int)>& rep) {
  const double start = NowS();
  double last = 0.0;
  for (int i = 0;; ++i) {
    const double elapsed = NowS() - start;
    if (i >= min_reps && elapsed + last > seconds) return;
    const double t0 = NowS();
    rep(i);
    last = NowS() - t0;
  }
}

std::string Hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- timed scheduler --------------------------------------------------------

/// Delegates every virtual to the built-in scheduler, timing Schedule().
/// Used only by the traced run of m100_cli: the snapshot-tree classifier
/// treats any scheduler outside the built-in family as unforkable, so
/// wrapping it in a sweep would change what is measured.
class TimedScheduler : public sraps::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<sraps::Scheduler> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<sraps::Scheduler> Clone(
      const sraps::SchedulerCloneContext& ctx) const override {
    auto copy = inner_->Clone(ctx);
    if (!copy) return nullptr;
    return std::make_unique<TimedScheduler>(std::move(copy));
  }
  std::vector<sraps::Placement> Schedule(const sraps::SchedulerContext& ctx) override {
    Tracer::Scope span("sched.schedule");
    std::vector<sraps::Placement> placements = inner_->Schedule(ctx);
    placements_ += placements.size();
    return placements;
  }
  bool NeedsTimeTriggered() const override { return inner_->NeedsTimeTriggered(); }
  bool WantsPowerStates() const override { return inner_->WantsPowerStates(); }
  std::vector<sraps::PowerAction> PlanPowerStates(
      const sraps::SchedulerContext& ctx) override {
    return inner_->PlanPowerStates(ctx);
  }
  void OnJobSubmitted(const sraps::Job& job) override { inner_->OnJobSubmitted(job); }
  void OnJobStarted(const sraps::Job& job) override { inner_->OnJobStarted(job); }
  void OnJobCompleted(const sraps::Job& job) override { inner_->OnJobCompleted(job); }

  /// Placements returned by every TimedScheduler since the last call.
  static std::size_t TakePlacements() { return placements_.exchange(0); }

 private:
  std::unique_ptr<sraps::Scheduler> inner_;
  static inline std::atomic<std::size_t> placements_{0};
};

constexpr const char* kTimedScheduler = "perfbench_timed";

void RegisterTimedScheduler() {
  static std::once_flag once;
  std::call_once(once, [] {
    sraps::EnsureBuiltinComponents();
    sraps::SchedulerRegistry().Register(
        kTimedScheduler,
        [](const sraps::SchedulerFactoryContext& ctx) -> std::unique_ptr<sraps::Scheduler> {
          return std::make_unique<TimedScheduler>(
              sraps::SchedulerRegistry().Get("default")(ctx));
        },
        "built-in scheduler with Schedule() timed (benchmark trace)");
  });
}

/// Steps `sim` to the end of its window one StepOnce at a time, each inside
/// an "engine.step" span; returns the steps that advanced the clock.
std::size_t RunTraced(sraps::Simulation& sim) {
  Tracer::Scope span("engine.run");
  std::size_t steps = 0;
  for (;;) {
    bool more = false;
    {
      Tracer::Scope step("engine.step");
      more = sim.mutable_engine().StepOnce();
    }
    if (!more) break;
    ++steps;
  }
  sim.Run();  // no step left: only the end-of-window completion sweep runs
  return steps;
}

/// Adds the engine and telemetry figures of one traced repetition, and the
/// sched figures when the simulation ran the timed scheduler.  A layer whose
/// spans are missing fails a check rather than reading 0.
void AddEngineLayers(WorkloadResult& out, LayerTable& layers, const std::vector<Span>& spans,
                     const std::vector<double>& self, int run, std::size_t steps,
                     const sraps::Simulation& sim, bool timed_scheduler) {
  const SpanSum step = SumSpans(spans, {}, "engine.step", run);
  const SpanSum step_self = SumSpans(spans, self, "engine.step", run);
  out.Check(step.count > 0, "no engine.step spans recorded");
  layers.Add("engine.step_self_s", step_self.total);
  layers.Add("engine.steps", static_cast<double>(steps));
  layers.Add("engine.us_per_step", steps ? 1e6 * step.total / static_cast<double>(steps) : 0.0);
  layers.Add("engine.batched_ticks",
             static_cast<double>(sim.engine().counters().batched_ticks));
  if (timed_scheduler) {
    const SpanSum sched = SumSpans(spans, {}, "sched.schedule", run);
    out.Check(sched.count > 0, "the timed scheduler recorded no Schedule() calls");
    layers.Add("sched.schedule_s", sched.total);
    layers.Add("sched.calls", static_cast<double>(sched.count));
    layers.Add("sched.us_per_call",
               sched.count ? 1e6 * sched.total / static_cast<double>(sched.count) : 0.0);
    layers.Add("sched.placements", static_cast<double>(TimedScheduler::TakePlacements()));
  }
  std::size_t samples = 0;
  const sraps::TimeSeriesRecorder& rec = sim.engine().recorder();
  for (const std::string& channel : rec.ChannelNames()) samples += rec.Get(channel).values.size();
  layers.Add("telemetry.samples", static_cast<double>(samples));
}

/// Fills the end-to-end metrics of a workload whose request is a whole
/// study (a CLI replay, a sweep grid), from the timed repetitions.
void SetStudyMetrics(WorkloadResult& out, const std::vector<double>& setup,
                     const std::vector<double>& wall, double sim_s_per_wall_s,
                     double scenarios_per_s) {
  out.Set("setup_s", Median(setup));
  out.Set("wall_s", Median(wall));
  out.Set("sim_s_per_wall_s", sim_s_per_wall_s);
  out.Set("scenarios_per_s", scenarios_per_s);
  out.Set("peak_rss_mb", PeakRssMb());
  std::string walls;
  for (double w : wall) walls += " " + std::to_string(w);
  out.notes.push_back("study wall times (s):" + walls);
}

// --- m100_cli -------------------------------------------------------------------

/// What `sraps_cli --system marconi100 -f DIR --policy fcfs --backfill easy
/// -t 3d -o OUT` builds, runs, prints and writes.
sraps::ScenarioSpec M100Spec(const RunConfig& cfg, bool traced) {
  sraps::ScenarioSpec s;
  s.system = "marconi100";
  s.dataset_path = cfg.data_dir;
  s.policy = "fcfs";
  s.backfill = "easy";
  s.duration = sraps::MarconiDatasetSpec{}.span;  // -t 3d: the same window for every seed
  if (traced) s.scheduler = kTimedScheduler;
  return s;
}

/// Repeats the CLI replay (load -> simulate -> print stats -> write)
/// untraced (and, in a traced run, alternately traced), checks that every
/// repetition's completion fingerprint and output files agree, reports.
WorkloadResult RunM100(const RunConfig& cfg) {
  WorkloadResult out;
  std::vector<double> setup, wall, sim_rate, traced_wall;
  std::vector<std::uint64_t> fingerprints;
  std::string ref_outputs;
  LayerTable layers;
  SpanLog span_log;

  auto one_rep = [&](int i, bool traced) {
    sraps::ScenarioSpec spec = M100Spec(cfg, traced);
    const fs::path out_dir = fs::path(cfg.work_dir) / ("out-" + std::to_string(i));
    Tracer::SetEnabled(traced);
    Tracer::SetRun(i);
    if (traced) {
      std::vector<sraps::Job> jobs;
      {
        Tracer::Scope span("dataloaders.load");
        jobs = sraps::DataloaderRegistry::Instance().Get(spec.system).Load(spec.dataset_path);
      }
      layers.Add("dataloaders.jobs", static_cast<double>(jobs.size()));
      layers.Add("dataloaders.input_mb", PathMb(spec.dataset_path));
    }
    const double t0 = NowS();
    std::unique_ptr<sraps::Simulation> sim;
    {
      Tracer::Scope span("core.build");
      sim = sraps::SimulationBuilder(std::move(spec)).Build();
    }
    const double t1 = NowS();
    std::size_t steps = 0;
    if (traced) {
      steps = RunTraced(*sim);
    } else {
      sim->Run();
    }
    const double t2 = NowS();
    std::string stats_json;
    {
      Tracer::Scope span("core.save");
      stats_json = sim->engine().stats().ToJson().Dump(2);  // what sraps_cli prints
      sim->SaveOutputs(out_dir.string());
    }
    const double t3 = NowS();
    Tracer::SetEnabled(false);

    const sraps::SimDuration window = sim->sim_end() - sim->sim_start();
    fingerprints.push_back(sim->engine().stats().Fingerprint());
    out.Check(sim->engine().counters().completed > 0,
              "repetition " + std::to_string(i) + " completed no jobs");
    std::string outputs;
    for (const char* file : {"stats.out", "job_history.csv", "history.csv"}) {
      outputs += Sha256File((out_dir / file).string()) + " ";
    }
    out.Check(ReadFile(out_dir / "stats.out") == stats_json + "\n",
              "stats.out differs from the stats the run reported");
    if (ref_outputs.empty()) ref_outputs = outputs;
    out.Check(outputs == ref_outputs,
              "repetition " + std::to_string(i) + " wrote different output files");
    if (traced) layers.Add("core.output_mb", PathMb(out_dir));
    fs::remove_all(out_dir);
    if (traced) {
      traced_wall.push_back(t3 - t0);
      const std::vector<Span> spans = span_log.Take();
      const std::vector<double> self = SelfTimes(spans);
      AddEngineLayers(out, layers, spans, self, i, steps, *sim, /*timed_scheduler=*/true);
      const double load = SumSpans(spans, {}, "dataloaders.load", i).total;
      layers.Add("core.build_s", SumSpans(spans, {}, "core.build", i).total - load);
      layers.Add("dataloaders.load_s", load);
      layers.Add("core.save_s", SumSpans(spans, {}, "core.save", i).total);
    } else if (i > 0) {
      setup.push_back(t1 - t0);
      wall.push_back(t3 - t0);
      sim_rate.push_back(static_cast<double>(window) / (t2 - t1));
    }
  };

  auto guarded = [&](int i, bool traced) {
    try {
      one_rep(i, traced);
    } catch (const std::exception& e) {
      Tracer::SetEnabled(false);
      out.Check(false, std::string("repetition failed: ") + e.what());
    }
  };

  // Repetition 0 warms the allocator and the page cache: checked, not timed.
  if (cfg.trace) {
    RegisterTimedScheduler();
    Repeat(cfg.seconds, 5, [&](int i) { guarded(i, i % 2 == 1); });
  } else {
    Repeat(cfg.seconds, 4, [&](int i) { guarded(i, false); });
  }

  const bool same = std::all_of(fingerprints.begin(), fingerprints.end(),
                                [&](std::uint64_t f) { return f == fingerprints.front(); });
  out.Check(!fingerprints.empty() && same,
            "completion fingerprints differ across repetitions" +
                std::string(cfg.trace ? " (traced vs untraced)" : ""));
  if (!fingerprints.empty()) out.notes.push_back("fingerprint " + Hex(fingerprints.front()));
  if (out.failed > 0 || wall.empty()) return out;

  if (cfg.trace) {
    span_log.Write(cfg.spans_out);
    layers.Add("trace.overhead_frac", Median(traced_wall) / Median(wall) - 1.0);
    layers.Emit(out);
  } else {
    SetStudyMetrics(out, setup, wall, Median(sim_rate), 1.0 / Median(wall));
  }
  return out;
}

// --- tree_sweep ---------------------------------------------------------------

sraps::JsonValue DrWindow(sraps::SimTime start, sraps::SimTime end, double cap_w) {
  sraps::JsonObject w;
  w["start"] = start;
  w["end"] = end;
  w["cap_w"] = cap_w;
  return sraps::JsonValue(sraps::JsonArray{sraps::JsonValue(std::move(w))});
}

/// 4 caps x 3 demand-response schedules x 4 price scales x 3 policies x 4
/// workload seeds = 576 scenarios on the mini system over 48 h.  The seed
/// axis is the only immediate one (4 roots); the other axes fork off each
/// root's trajectory, and price scales resolve by accounting replay at the
/// leaves.
sraps::SweepSpec TreeGrid(std::uint64_t seed) {
  sraps::SweepSpec sweep;
  sweep.name = "perfbench-tree";
  sraps::ScenarioSpec& b = sweep.base;
  b.name = "base";
  b.system = "mini";
  b.policy = "fcfs";
  b.backfill = "easy";
  b.record_history = false;
  b.event_calendar = true;
  b.duration = 48 * sraps::kHour;
  b.grid.price_usd_per_kwh = sraps::GridSignal::Diurnal(0.12, 0.5, 1.6);
  b.grid.carbon_kg_per_kwh = sraps::GridSignal::Diurnal(0.35, 0.4, 1.3);

  sraps::SyntheticWorkloadSpec wl;
  wl.horizon = 48 * sraps::kHour;
  wl.arrival_rate_per_hour = 6;
  wl.max_nodes = 8;
  wl.mean_nodes_log2 = 1.5;
  wl.seed = seed;
  sweep.synthetic = wl;

  using sraps::JsonValue;
  sweep.axes.push_back(sraps::SweepAxis(
      "power_cap_w", {JsonValue(0.0), JsonValue(6000.0), JsonValue(5000.0), JsonValue(4500.0)}));
  sweep.axes.push_back(sraps::SweepAxis(
      "grid.dr_windows", {JsonValue(sraps::JsonArray{}),
                          DrWindow(40 * sraps::kHour, 46 * sraps::kHour, 2000.0),
                          DrWindow(43 * sraps::kHour, 46 * sraps::kHour, 1500.0)}));
  sweep.axes.push_back(sraps::SweepAxis(
      "grid.price.scale", {JsonValue(0.5), JsonValue(1.0), JsonValue(1.5), JsonValue(2.0)}));
  sweep.axes.push_back(sraps::SweepAxis(
      "policy", {JsonValue("fcfs"), JsonValue("sjf"), JsonValue("priority")}));
  std::vector<JsonValue> seeds;
  for (std::uint64_t k = 0; k < 4; ++k) {
    seeds.emplace_back(static_cast<std::int64_t>((4 * seed + k) % (1u << 30)));
  }
  sweep.axes.push_back(sraps::SweepAxis("synth.seed", std::move(seeds)));
  return sweep;
}

constexpr unsigned kSweepThreads = 2;
constexpr std::size_t kShardSize = 256;
constexpr int kSweepSetups = 32;

std::map<std::string, std::string> ShardDigests(const std::vector<std::string>& paths) {
  std::map<std::string, std::string> digests;
  for (const std::string& p : paths) {
    if (!p.empty()) digests[fs::path(p).filename().string()] = Sha256File(p);  // "" = not in range
  }
  return digests;
}

/// Snapshot and engine figures on the sweep's first scenario: the engine
/// stepped through its whole window, and Snapshot / ForkWithPatch /
/// ForkWithGrid timed at the demand-response axis's first-effect bound.
void AddSweepBaseLayers(WorkloadResult& out, LayerTable& layers, SpanLog& span_log,
                        const sraps::SweepSpec& sweep,
                        const std::vector<sraps::AxisFirstEffect>& plan, int run) {
  sraps::ExpandedScenario ex = sweep.Expand(0);
  ex.spec.jobs_override = sraps::GenerateSyntheticWorkload(*ex.synthetic);
  sraps::SimTime bound = 0;
  for (const sraps::AxisFirstEffect& axis : plan) {
    if (axis.cls == sraps::AxisClass::kDrWindows) bound = axis.bound;
  }

  Tracer::SetEnabled(true);
  auto sim = sraps::SimulationBuilder(ex.spec).Build();
  const std::size_t steps = RunTraced(*sim);

  ex.spec.capture_grid_basis = true;
  auto base = sraps::SimulationBuilder(ex.spec).Build();
  base->RunUntilExact(base->sim_start() + bound);
  constexpr int kForks = 5;
  for (int k = 0; k < kForks; ++k) {
    std::optional<sraps::SimStateSnapshot> snap;
    std::unique_ptr<sraps::Simulation> fork;  // freed outside the spans
    {
      Tracer::Scope span("snapshot.capture");
      snap.emplace(base->Snapshot());
    }
    {
      Tracer::Scope span("snapshot.fork_patch");
      fork = sraps::Simulation::ForkWithPatch(*snap, "power_cap_w", sraps::JsonValue(4500.0));
    }
    fork.reset();
    sraps::GridEnvironment grid = snap->spec().grid;
    grid.price_usd_per_kwh.SetScale(2.0);
    {
      Tracer::Scope span("snapshot.fork_grid");
      fork = sraps::Simulation::ForkWithGrid(*snap, std::move(grid));
    }
    fork.reset();
    if (k == 0) layers.Add("snapshot.mb", static_cast<double>(snap->ApproxBytes()) / 1e6);
  }
  Tracer::SetEnabled(false);

  const std::vector<Span> spans = span_log.Take();
  AddEngineLayers(out, layers, spans, SelfTimes(spans), run, steps, *sim,
                  /*timed_scheduler=*/false);
  for (const char* name : {"snapshot.capture", "snapshot.fork_patch", "snapshot.fork_grid"}) {
    layers.Add(std::string(name) + "_ms", 1000.0 * SumSpans(spans, {}, name, run).total / kForks);
  }
}

WorkloadResult RunTreeSweep(const RunConfig& cfg) {
  WorkloadResult out;
  const sraps::SweepSpec sweep = TreeGrid(cfg.seed);
  const std::size_t total = sweep.ScenarioCount();
  const double window_s = static_cast<double>(sweep.base.duration);
  std::vector<double> setup, wall, rate, traced_wall;
  std::map<std::string, std::string> ref_digests;
  LayerTable layers;
  SpanLog span_log;

  auto one_rep = [&](int i, bool traced) {
    const std::string dir = (fs::path(cfg.work_dir) / ("sweep-" + std::to_string(i))).string();
    Tracer::SetEnabled(traced);
    Tracer::SetRun(i);
    std::vector<sraps::AxisFirstEffect> plan;
    if (traced) {
      Tracer::Scope span("sweep.plan");
      plan = sraps::ClassifySweepAxes(sweep);
    }
    sraps::SweepOptions options;
    options.threads = kSweepThreads;
    options.tree = true;
    options.shard_size = kShardSize;
    options.output_dir = dir;
    // Set-up is what the program does before Run: SweepRunner construction
    // (which validates every axis value against the base) and
    // ResolveWorkload.  It takes microseconds, so it is timed kSweepSetups
    // times and the last runner goes on to Run.
    std::optional<sraps::SweepRunner> runner;
    std::vector<double> setups;
    double t0 = 0.0, t1 = 0.0;
    for (int k = 0; k < kSweepSetups; ++k) {
      runner.reset();
      t0 = NowS();
      runner.emplace(sweep);
      runner->ResolveWorkload();
      t1 = NowS();
      setups.push_back(t1 - t0);
    }
    sraps::SweepSummary summary;
    {
      Tracer::Scope span("sweep.run");
      summary = runner->Run(options);
    }
    const double t2 = NowS();
    Tracer::SetEnabled(false);

    out.Check(summary.total == total && summary.failed_count == 0,
              std::to_string(summary.failed_count) + " sweep scenarios failed" +
                  (summary.sample_errors.empty() ? "" : ": " + summary.sample_errors.front()));
    out.Check(summary.tree_used, "the snapshot tree did not engage");
    const auto digests = ShardDigests(summary.shard_paths);
    if (ref_digests.empty()) ref_digests = digests;
    out.Check(digests == ref_digests,
              "repetition " + std::to_string(i) + " wrote different row shards");
    if (traced) {
      const sraps::TreeStats& ts = summary.tree_stats;
      traced_wall.push_back(t2 - t0);
      layers.Add("sweep.roots", static_cast<double>(ts.roots));
      layers.Add("sweep.forks", static_cast<double>(ts.forks));
      layers.Add("sweep.probe_runs", static_cast<double>(ts.probe_runs));
      layers.Add("sweep.fallback_scenarios", static_cast<double>(ts.fallback_scenarios));
      layers.Add("sweep.stepped_frac", ts.sim_seconds_plain > 0
                                           ? ts.sim_seconds_stepped / ts.sim_seconds_plain
                                           : 0.0);
      double shard_mb = 0.0;
      for (const std::string& p : summary.shard_paths) shard_mb += PathMb(p);
      layers.Add("sweep.shard_mb", shard_mb);
      const std::vector<Span> spans = span_log.Take();
      layers.Add("sweep.plan_s", SumSpans(spans, {}, "sweep.plan", i).total);
      AddSweepBaseLayers(out, layers, span_log, sweep, plan, i);
    } else if (i > 0) {
      setup.insert(setup.end(), setups.begin(), setups.end());
      wall.push_back(t2 - t0);
      rate.push_back(static_cast<double>(total) / (t2 - t1));
    }
    fs::remove_all(dir);
  };

  auto guarded = [&](int i, bool traced) {
    try {
      one_rep(i, traced);
    } catch (const std::exception& e) {
      Tracer::SetEnabled(false);
      out.Check(false, std::string("sweep repetition failed: ") + e.what());
    }
  };
  // Repetition 0 warms the allocator and the page cache: checked, not timed.
  if (cfg.trace) {
    Repeat(cfg.seconds, 5, [&](int i) { guarded(i, i % 2 == 1); });
  } else {
    Repeat(cfg.seconds, 4, [&](int i) { guarded(i, false); });
  }

  // The tree's rows must equal the plain path's, byte for byte, on one
  // shard-aligned subrange (chosen by the seed; untimed).
  try {
    const std::size_t shards = (total + kShardSize - 1) / kShardSize;
    const std::size_t shard = cfg.seed % shards;
    sraps::SweepOptions plain;
    plain.threads = kSweepThreads;
    plain.shard_size = kShardSize;
    plain.scenario_begin = shard * kShardSize;
    plain.scenario_end = std::min(total, (shard + 1) * kShardSize);
    plain.write_aggregates = false;
    plain.output_dir = (fs::path(cfg.work_dir) / "sweep-plain").string();
    sraps::SweepRunner runner(sweep);
    const sraps::SweepSummary summary = runner.Run(plain);
    const auto digests = ShardDigests(summary.shard_paths);
    bool match = digests.size() == 1 && summary.failed_count == 0;
    for (const auto& [name, digest] : digests) {
      auto it = ref_digests.find(name);
      match = match && it != ref_digests.end() && it->second == digest;
    }
    out.Check(match, "tree rows differ from the plain path on shard " + std::to_string(shard));
    out.notes.push_back("plain-path check: shard " + std::to_string(shard) + " of " +
                        std::to_string(shards));
    fs::remove_all(plain.output_dir);
  } catch (const std::exception& e) {
    out.Check(false, std::string("plain-path check failed: ") + e.what());
  }
  if (out.failed > 0 || wall.empty()) return out;

  if (cfg.trace) {
    span_log.Write(cfg.spans_out);
    layers.Add("trace.overhead_frac", Median(traced_wall) / Median(wall) - 1.0);
    layers.Emit(out);
  } else {
    SetStudyMetrics(out, setup, wall, Median(rate) * window_s, Median(rate));
  }
  return out;
}

// --- serve_openloop -------------------------------------------------------------

/// examples/serve_base.json with a serve_workload.json-shaped synthetic
/// workload drawn from the seed.
sraps::ScenarioSpec ServeBase(std::uint64_t seed) {
  sraps::ScenarioSpec s;
  s.name = "serve-base";
  s.system = "mini";
  s.policy = "fcfs";
  s.backfill = "easy";
  s.duration = 24 * sraps::kHour;
  s.record_history = true;
  s.event_calendar = true;
  s.capture_grid_basis = true;
  s.grid.price_usd_per_kwh = sraps::GridSignal::Diurnal(0.12, 0.5, 1.6);
  s.grid.carbon_kg_per_kwh = sraps::GridSignal::Diurnal(0.35, 0.4, 1.3);
  sraps::SyntheticWorkloadSpec wl;
  wl.horizon = 24 * sraps::kHour;
  wl.arrival_rate_per_hour = 30;
  wl.max_nodes = 16;
  wl.mean_nodes_log2 = 1.5;
  wl.sd_nodes_log2 = 1.0;
  wl.runtime_mu = 7.5;
  wl.runtime_sigma = 1.0;
  wl.trace_interval = 60;
  wl.num_accounts = 6;
  wl.num_users_per_account = 3;
  wl.seed = seed;
  s.jobs_override = sraps::GenerateSyntheticWorkload(wl);
  return s;
}

std::string ScaleQuery(double scale) {
  sraps::JsonObject patch;
  patch["grid.price.scale"] = scale;
  sraps::JsonObject q;
  q["base"] = "serve-base";
  q["patch"] = sraps::JsonValue(std::move(patch));
  return sraps::JsonValue(std::move(q)).Dump(0);
}

/// Handler time per request of the current step, keyed by the X-Seq header
/// the load generator sends (traced run only).
class HandlerLog {
 public:
  void Reset(std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    ms_.assign(n, 0.0);
  }
  void Record(const sraps::HttpRequest& req, double ms) {
    auto it = req.headers.find("x-seq");
    if (it == req.headers.end()) return;
    const std::size_t seq = std::stoull(it->second);
    std::lock_guard<std::mutex> lock(mu_);
    if (seq < ms_.size()) ms_[seq] = ms;
  }
  std::vector<double> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(ms_, {});
  }

 private:
  std::mutex mu_;
  std::vector<double> ms_;
};

/// One service behind one HTTP server on an ephemeral loopback port.
/// Members are destroyed in reverse order: the server drains before the
/// service it calls into.
struct ServeStack {
  std::unique_ptr<sraps::ScenarioService> service;
  std::unique_ptr<sraps::HttpServer> server;

  void Reset() {
    server.reset();
    service.reset();
  }
};

constexpr unsigned kForkWorkers = 2;
constexpr int kConnections = 2;

ServeStack StartServe(sraps::ScenarioSpec base, HandlerLog& log) {
  ServeStack stack;
  sraps::ServeOptions options;
  options.workers = kForkWorkers;
  stack.service = std::make_unique<sraps::ScenarioService>(options);
  stack.service->AddBase(std::move(base));
  stack.service->Warmup();
  sraps::ScenarioService* service = stack.service.get();
  stack.server = std::make_unique<sraps::HttpServer>(
      [service, &log](const sraps::HttpRequest& req) {
        if (!Tracer::Enabled()) return sraps::RouteRequest(*service, req);
        Tracer::Scope span("serve.handler");
        const double t0 = NowS();
        sraps::HttpResponse resp = sraps::RouteRequest(*service, req);
        log.Record(req, 1000.0 * (NowS() - t0));
        return resp;
      });
  stack.server->Start("127.0.0.1", 0);
  return stack;
}

/// The reply a full, unforked run of the base under `scale` must produce:
/// its "metrics" object and completion fingerprint, as the service formats
/// them.
std::pair<std::string, std::string> FullRunReply(const sraps::ScenarioSpec& base, double scale) {
  sraps::ScenarioSpec spec = base;
  sraps::ApplyScenarioKey(spec, "grid.price.scale", sraps::JsonValue(scale));
  auto sim = sraps::SimulationBuilder(std::move(spec)).Build();
  sim->Run();
  sraps::ScenarioResult res;
  sraps::ExtractScenarioMetrics(*sim, res, /*capture_stats_json=*/false);
  sraps::JsonObject m;
  m["completed"] = sraps::JsonValue(static_cast<std::int64_t>(res.counters.completed));
  m["dismissed"] = sraps::JsonValue(static_cast<std::int64_t>(res.counters.dismissed));
  m["avg_wait_s"] = res.avg_wait_s;
  m["avg_turnaround_s"] = res.avg_turnaround_s;
  m["makespan_s"] = res.makespan_s;
  m["total_energy_j"] = res.total_energy_j;
  m["mean_power_kw"] = res.mean_power_kw;
  m["max_power_kw"] = res.max_power_kw;
  m["mean_util_pct"] = res.mean_util_pct;
  m["mean_pue"] = res.mean_pue;
  m["grid_cost_usd"] = res.grid_cost_usd;
  m["grid_co2_kg"] = res.grid_co2_kg;
  return {sraps::JsonValue(std::move(m)).Dump(0), Hex(res.fingerprint)};
}

WorkloadResult RunServe(const RunConfig& cfg) {
  WorkloadResult out;
  const sraps::ScenarioSpec base = ServeBase(cfg.seed);
  // 64 distinct tariffs, drawn per request from the seed.
  std::vector<std::string> queries;
  for (int k = 0; k < 64; ++k) queries.push_back(ScaleQuery(0.25 + 0.05 * k));
  const std::uint64_t mix = cfg.seed * 0x9E3779B97F4A7C15ull + 1;
  auto body_of = [&](std::size_t i) {
    std::uint64_t x = mix ^ (i * 0xBF58476D1CE4E5B9ull);
    x ^= x >> 31;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 29;
    return queries[x % queries.size()];
  };
  HandlerLog log;

  // Set-up, kServeSetups + 1 times: AddBase + Warmup + server ready, each
  // checked with one query on a fresh connection.  The first warms the
  // allocator and is not timed; the last stack stays up for the load.
  constexpr int kServeSetups = 48;
  std::vector<double> setup;
  ServeStack stack;
  for (int k = 0; k <= kServeSetups; ++k) {
    sraps::ScenarioSpec copy = base;
    stack.Reset();
    const double t0 = NowS();
    stack = StartServe(std::move(copy), log);
    const double t1 = NowS();
    LoadClient probe(stack.server->port(), 1);
    const StepRecords one = probe.RunStep(1000.0, 0.001, body_of, false);
    out.Check(one.result.failed == 0, "first query after set-up failed");
    if (k > 0) setup.push_back(t1 - t0);
  }

  LoadClient client(stack.server->port(), kConnections);
  auto count_step = [&](const StepRecords& step) {
    out.attempted += step.requests.size();
    out.failed += step.result.failed;
    if (step.result.failed > 0) {
      out.failures.push_back(std::to_string(step.result.failed) + " of " +
                             std::to_string(step.requests.size()) + " queries at " +
                             std::to_string(step.result.rate_qps) + " q/s failed");
    }
  };

  // Latency at the fixed rate over blocks of 2 s (1000 queries: a p99 has
  // 10 beyond it), each followed by 1 s of closed loop for capacity: replies
  // per second with both connections kept busy.  Interleaved, both medians
  // span the whole phase.  Each block gives kSamplesPerBlock samples of
  // each (the median latency of a quarter of its queries, in due order, and
  // a closed loop of a quarter second), so a burst of host noise moves a
  // few of many samples.  A traced run alternates untraced and traced
  // blocks instead.
  constexpr double kBlockS = 2.0;
  constexpr std::size_t kSamplesPerBlock = 4;
  const int blocks = std::max(4, static_cast<int>(std::lround(0.4 * cfg.seconds / kBlockS)));
  std::vector<StepResult> untraced;  // also the ladder's 500 q/s rung
  std::vector<double> p50, capacity, traced_p50, handler_ms, http_ms, late_ms, all_latency;
  const sraps::ServeCounters before = stack.service->Counters();
  const sraps::SnapshotCacheStats cache_before = stack.service->CacheStats();
  for (int b = 0; b < (cfg.trace ? 2 * blocks : blocks); ++b) {
    const bool traced = cfg.trace && b % 2 == 1;
    log.Reset(static_cast<std::size_t>(std::ceil(kLatencyRate * kBlockS)));
    Tracer::SetRun(b);
    Tracer::SetEnabled(traced);
    const StepRecords step = client.RunStep(kLatencyRate, kBlockS, body_of, false);
    Tracer::SetEnabled(false);
    count_step(step);
    const std::vector<double>& lat = step.result.latency_ms;
    late_ms.insert(late_ms.end(), step.late_ms.begin(), step.late_ms.end());
    if (traced) {
      traced_p50.push_back(Median(lat));
      const std::vector<double> handler = log.Take();
      for (std::size_t i = 0; i < step.requests.size(); ++i) {
        const RequestRecord& r = step.requests[i];
        if (r.status != 200) continue;
        handler_ms.push_back(handler[i]);
        http_ms.push_back(1000.0 * (r.recv_s - r.sent_s) - handler[i]);
      }
      continue;
    }
    if (cfg.trace) {
      p50.push_back(Median(lat));
    } else {
      const std::size_t n = lat.size();
      for (std::size_t k = 0; k < kSamplesPerBlock; ++k) {
        p50.push_back(Median(std::vector<double>(lat.begin() + k * n / kSamplesPerBlock,
                                                 lat.begin() + (k + 1) * n / kSamplesPerBlock)));
      }
    }
    all_latency.insert(all_latency.end(), lat.begin(), lat.end());
    untraced.push_back(step.result);
    if (cfg.trace) continue;
    for (std::size_t k = 0; k < kSamplesPerBlock; ++k) {
      const LoadClient::ClosedLoopResult closed =
          client.RunClosedLoop(1.0 / kSamplesPerBlock, body_of);
      out.attempted += closed.replies + closed.failed;
      out.failed += closed.failed;
      if (closed.failed > 0) out.failures.push_back("closed-loop queries failed");
      capacity.push_back(closed.replies_per_s);
    }
  }

  if (cfg.trace) {
    LayerTable layers;
    const sraps::ServeCounters after = stack.service->Counters();
    const sraps::SnapshotCacheStats cache_after = stack.service->CacheStats();
    const double lookups = static_cast<double>((cache_after.hits - cache_before.hits) +
                                               (cache_after.misses - cache_before.misses));
    layers.Add("serve.handler_p50_ms", Median(handler_ms));
    layers.Add("serve.http_p50_ms", Median(http_ms));
    layers.Add("serve.forks", static_cast<double>(after.forks - before.forks));
    layers.Add("serve.coalesced", static_cast<double>(after.coalesced - before.coalesced));
    layers.Add("serve.cache_hit_rate",
               lookups > 0 ? static_cast<double>(cache_after.hits - cache_before.hits) / lookups
                           : 0.0);
    layers.Add("serve.replies_503",
               static_cast<double>(after.replies_503 - before.replies_503));
    layers.Add("loadgen.late_p99_ms", TailPercentile(late_ms, 0.99).value_or(0.0));
    layers.Add("trace.overhead_frac", Median(traced_p50) / Median(p50) - 1.0);
    SpanLog span_log;
    const std::vector<Span> spans = span_log.Take();
    const auto handler_spans = std::count_if(spans.begin(), spans.end(), [](const Span& s) {
      return s.name == "serve.handler";
    });
    out.Check(!handler_ms.empty() && static_cast<std::size_t>(handler_spans) >= handler_ms.size(),
              "the traced HTTP handler recorded no serve.handler spans");
    span_log.Write(cfg.spans_out);
    layers.Emit(out);
  } else {
    // The highest open-loop rate meeting p99 <= 10 ms without a failure or a
    // growing backlog: ladder above the fixed rate, refined by bisection.
    // Reported, not bounded: it turns on the p99, which preemptions of
    // 10-35 ms on a shared host decide (see metrics.json).
    auto probe = [&](double rate) {
      std::vector<StepResult> parts = untraced;
      if (rate != kLatencyRate) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        const StepRecords step = client.RunStep(rate, std::max(1.0, 1000.0 / rate), body_of, false);
        count_step(step);
        parts = {step.result};
      }
      std::vector<double> achieved;
      for (const StepResult& p : parts) achieved.push_back(p.achieved_qps);
      return RateProbe{rate, MostMeetLimit(parts), Median(achieved)};
    };
    std::vector<double> rungs = {500, 1000, 1500, 2000};
    if (!MostMeetLimit(untraced)) rungs.insert(rungs.begin(), 250);
    const LadderOutcome ladder = SearchMaxRate(rungs, probe);
    std::string trail;
    for (const RateProbe& p : ladder.probes) {
      trail += " " + std::to_string(static_cast<int>(p.rate_qps)) + (p.meets ? "+" : "-");
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "lat_p50_ms %.3f, lat_p95_ms %.3f, lat_p99_ms %.3f at 500 q/s "
                  "(pooled over %zu queries)",
                  Median(all_latency), TailPercentile(all_latency, 0.95).value_or(-1.0),
                  TailPercentile(all_latency, 0.99).value_or(-1.0), all_latency.size());
    out.notes.push_back(buf);
    std::snprintf(buf, sizeof buf, "max_qps_slo %.1f q/s (p99 <= 10 ms, no backlog); ladder:",
                  ladder.achieved_qps);
    out.notes.push_back(buf + trail);
    out.Set("setup_s", Median(setup));
    out.Set("wall_s", Median(p50) / 1000.0);
    out.Set("sim_s_per_wall_s", Median(capacity) * static_cast<double>(base.duration));
    out.Set("scenarios_per_s", Median(capacity));
    out.Set("peak_rss_mb", PeakRssMb());
  }

  // Output checks (untimed): each query sent twice in a row must come back
  // byte-identical, and a sample of replies must equal a full re-run of the
  // base under that tariff.
  const std::size_t pairs = 24;
  const StepRecords dup = client.RunStep(
      200.0, 2 * pairs / 200.0, [&](std::size_t i) { return body_of(i / 2); }, true);
  count_step(dup);
  for (std::size_t p = 0; p < pairs; ++p) {
    out.Check(dup.requests[2 * p].status == 200 &&
                  dup.requests[2 * p].body == dup.requests[2 * p + 1].body,
              "a query sent twice got different replies");
  }
  for (std::size_t p = 0; p < 3; ++p) {
    const std::string query = body_of(p);
    const double scale = sraps::JsonValue::Parse(query).At("patch").At("grid.price.scale").AsDouble();
    const sraps::JsonValue reply = sraps::JsonValue::Parse(dup.requests[2 * p].body);
    const auto [metrics, fingerprint] = FullRunReply(base, scale);
    out.Check(reply.At("fingerprint").AsString() == fingerprint &&
                  reply.At("metrics").Dump(0) == metrics,
              "served reply differs from a full re-run at price scale " + std::to_string(scale));
  }
  stack.server->Stop();
  stack.service->Stop();
  return out;
}

}  // namespace

void GenerateM100Dataset(std::uint64_t seed, const std::string& dir) {
  sraps::MarconiDatasetSpec spec;
  spec.seed = seed;
  sraps::GenerateMarconiDataset(dir, spec);
}

WorkloadResult RunWorkload(const RunConfig& cfg) {
  sraps::EnsureBuiltinComponents();
  if (cfg.workload == "tree_sweep") return RunTreeSweep(cfg);
  if (cfg.workload == "m100_cli") {
    PinToOneCpu();
    return RunM100(cfg);
  }
  if (cfg.workload == "serve_openloop") {
    PinToOneCpu();
    return RunServe(cfg);
  }
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

}  // namespace perfbench
