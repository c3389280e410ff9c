#include "dist/coordinator.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "common/csv.h"
#include "dist/sweep_worker.h"
#include "dist/work_queue.h"

namespace sraps {

namespace fs = std::filesystem;

namespace {

std::string DefaultWorkerBinary() {
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (ec) return "sraps_sweep_worker";  // PATH lookup as a last resort
  return (self.parent_path() / "sraps_sweep_worker").string();
}

pid_t SpawnWorker(const std::string& binary, const std::string& work_dir,
                  const std::string& worker_id,
                  const DistributedSweepOptions& options) {
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("RunDistributedSweep: fork failed");
  if (pid > 0) return pid;
  // Child: exec the worker.  _exit (not exit) on failure so we never unwind
  // the parent's state twice.
  const std::string threads = std::to_string(options.threads_per_worker);
  const std::string timeout = std::to_string(options.straggler_timeout_s);
  execl(binary.c_str(), binary.c_str(), work_dir.c_str(),  //
        "--id", worker_id.c_str(),                         //
        "--threads", threads.c_str(),                      //
        "--steal-timeout", timeout.c_str(),                //
        static_cast<char*>(nullptr));
  std::fprintf(stderr, "sraps: cannot exec worker binary %s\n", binary.c_str());
  _exit(127);
}

}  // namespace

std::vector<SweepRow> ParseShardCsv(const std::string& path,
                                    const SweepSpec& spec) {
  CsvRowStream csv(path);
  const auto refuse = [&](const CsvColumn& col, const char* what) {
    return std::runtime_error("ParseShardCsv " + csv.Where() + ": column " + col.name +
                              ": '" + csv.Cell(col) + "' " + what);
  };
  const CsvColumn index_col = csv.Column("index");
  const CsvColumn name_col = csv.Column("name");
  const CsvColumn ok_col = csv.Column("ok");
  const CsvColumn error_col = csv.Column("error");
  const CsvColumn fingerprint_col = csv.Column("fingerprint");
  std::vector<CsvColumn> axis_cols;
  for (const SweepAxis& axis : spec.axes) axis_cols.push_back(csv.Column(axis.key));
  std::vector<CsvColumn> metric_cols;
  for (const std::string& name : MetricNames()) metric_cols.push_back(csv.Column(name));

  // Metric/fingerprint cells were written with %.17g / %016x exactly, so
  // this round trip reproduces the producer's bits.  Any other cell is
  // refused rather than merged as 0.
  std::vector<SweepRow> rows;
  while (csv.Next()) {
    SweepRow row;
    const std::optional<std::int64_t> index = csv.Int(index_col);
    if (!index || *index < 0) throw refuse(index_col, "is not a scenario index");
    row.index = static_cast<std::size_t>(*index);
    row.name = csv.Cell(name_col);
    const std::string& ok = csv.Cell(ok_col);
    if (ok != "0" && ok != "1") throw refuse(ok_col, "is not 0 or 1");
    row.ok = ok == "1";
    row.error = csv.Cell(error_col);
    for (const CsvColumn& col : axis_cols) row.axis_values.emplace_back(csv.Cell(col));
    std::size_t m = 0;
    ForEachMetric(row, [&](const char*, auto& field) {
      const CsvColumn& col = metric_cols[m++];
      const std::optional<double> value = csv.Double(col);
      if (!value) throw refuse(col, "is empty");
      using Field = std::decay_t<decltype(field)>;
      if constexpr (std::is_integral_v<Field>) {
        if (!(*value >= 0 && *value < 0x1p64 && *value == std::floor(*value))) {
          throw refuse(col, "is not a count");
        }
      }
      field = static_cast<Field>(*value);
    });
    const std::string& fp = csv.Cell(fingerprint_col);
    const char* const fp_end = fp.data() + fp.size();
    const auto [stop, ec] = std::from_chars(fp.data(), fp_end, row.fingerprint, 16);
    if (fp.size() != 16 || ec != std::errc() || stop != fp_end) {
      throw refuse(fingerprint_col, "is not 16 hex digits");
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

DistributedSweepSummary RunDistributedSweep(
    const SweepSpec& spec, const std::string& work_dir,
    const std::string& out_dir, const DistributedSweepOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();

  // Resolve the workload FIRST so a calibrating sweep is fitted exactly once;
  // the manifest then carries the fitted spec and every worker replays it.
  SweepRunner runner(spec);
  runner.ResolveWorkload();
  const SweepSpec& resolved = runner.spec();

  QueueConfig config;
  config.scenario_count = resolved.ScenarioCount();
  config.shard_size = std::max<std::size_t>(1, options.shard_size);
  config.tree = options.tree;
  SweepWorkQueue queue =
      SweepWorkQueue::Create(work_dir, resolved, config, options.shards_per_item);

  DistributedSweepSummary summary;
  summary.total = config.scenario_count;
  summary.items_total = queue.TodoCount();

  // Spawn the fleet and babysit it: reap exits, reclaim stragglers' items,
  // and (under fault injection) kill the first worker once work is in flight.
  const std::string binary =
      options.worker_binary.empty() ? DefaultWorkerBinary() : options.worker_binary;
  std::vector<pid_t> children;
  for (unsigned w = 0; w < options.workers; ++w) {
    children.push_back(
        SpawnWorker(binary, queue.dir(), "w" + std::to_string(w), options));
  }
  summary.workers_spawned = children.size();

  bool kill_pending = options.kill_first_worker && !children.empty();
  std::size_t live = children.size();
  while (live > 0) {
    for (pid_t& pid : children) {
      if (pid == 0) continue;
      int status = 0;
      const pid_t reaped = waitpid(pid, &status, WNOHANG);
      if (reaped == pid) {
        pid = 0;
        --live;
      }
    }
    if (live == 0) break;
    if (kill_pending && queue.ClaimedCount() + queue.DoneCount() > 0) {
      // Fault injection: hard-kill the first still-live worker mid-sweep.
      for (pid_t pid : children) {
        if (pid == 0) continue;
        kill(pid, SIGKILL);
        ++summary.workers_killed;
        break;
      }
      kill_pending = false;
    }
    summary.items_reclaimed += queue.ReclaimStale(options.straggler_timeout_s);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.poll_seconds));
  }

  // Workers are gone; anything still claimed belonged to a dead one.  Drain
  // the remainder inline — same worker code path, just in this process.
  summary.items_reclaimed += queue.ReclaimStale(0.0);
  if (!queue.Drained()) {
    SweepWorkerOptions inline_options;
    inline_options.worker_id = "coordinator";
    inline_options.threads = options.threads_per_worker;
    const SweepWorkerReport drained = RunSweepWorker(queue.dir(), inline_options);
    summary.items_inline = drained.items_completed;
  }
  if (!queue.Drained()) {
    throw std::runtime_error(
        "RunDistributedSweep: queue not drained after inline pass");
  }

  // Merge: every shard must be present; re-fold their rows into the same
  // aggregates a single-process run computes, then write the whole-grid
  // artifacts and move the shards into place.
  const std::size_t num_shards =
      (config.scenario_count + config.shard_size - 1) / config.shard_size;
  fs::create_directories(out_dir);
  SweepAggregator aggregator(config.scenario_count);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const fs::path shard = fs::path(queue.ShardsDir()) / ShardFileName(s);
    if (!fs::exists(shard)) {
      throw std::runtime_error("RunDistributedSweep: missing shard " +
                               shard.string());
    }
    const std::size_t shard_begin = s * config.shard_size;
    const std::size_t shard_rows = std::min(
        config.shard_size, config.scenario_count - shard_begin);
    const std::vector<SweepRow> rows = ParseShardCsv(shard.string(), resolved);
    if (rows.size() != shard_rows) {
      throw std::runtime_error(
          "RunDistributedSweep: shard " + shard.string() + " has " +
          std::to_string(rows.size()) + " rows, expected " +
          std::to_string(shard_rows));
    }
    for (const SweepRow& row : rows) {
      if (row.index < shard_begin || row.index >= shard_begin + shard_rows) {
        throw std::runtime_error("RunDistributedSweep: shard " +
                                 shard.string() + " carries foreign index " +
                                 std::to_string(row.index));
      }
      if (row.ok) {
        ++summary.ok_count;
      } else {
        ++summary.failed_count;
      }
      aggregator.Fold(row);  // throws on duplicate/out-of-range indices
    }
    const fs::path dest = fs::path(out_dir) / ShardFileName(s);
    fs::copy_file(shard, dest, fs::copy_options::overwrite_existing);
    summary.shard_paths.push_back(dest.string());
  }
  summary.aggregates = aggregator.Finalize();
  WriteSweepArtifacts(out_dir, resolved, summary.aggregates, config.shard_size);

  summary.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  return summary;
}

}  // namespace sraps
