// Distributed sweep tier (src/dist): the filesystem work queue must hand
// each item to exactly one claimer, survive reclaim/steal cycles, and
// tolerate duplicated completion; a worker draining a queue — including one
// whose previous owner crashed mid-shard — must publish shards byte-identical
// to a single-process SweepRunner run; and the full coordinator (real
// fork/exec worker processes, fault injection included) must merge artifacts
// byte-identical to the in-process path.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "dist/coordinator.h"
#include "dist/sweep_worker.h"
#include "dist/work_queue.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "workload/synthetic.h"

namespace sraps {
namespace {

namespace fs = std::filesystem;

/// 3 caps x 2 backfills x 2 setpoints = 12 scenarios; with shard size 2
/// that is 6 shards / 6 work items — enough to spread over two claimers.
/// The workload is synthetic (seeded, regenerated identically by every
/// worker) because a distributed manifest must be self-contained —
/// jobs_override does not survive spec.json.
SweepSpec DistSweep() {
  SweepSpec spec;
  spec.name = "dist";
  spec.base.name = "base";
  spec.base.system = "mini";
  SyntheticWorkloadSpec wl;
  wl.horizon = 4 * kHour;
  wl.arrival_rate_per_hour = 10;
  wl.max_nodes = 12;
  wl.mean_nodes_log2 = 1.5;
  wl.runtime_mu = 7.0;
  wl.runtime_sigma = 0.8;
  wl.seed = 21;
  spec.synthetic = wl;
  spec.base.policy = "fcfs";
  spec.base.backfill = "easy";
  spec.base.record_history = false;
  spec.base.duration = 12 * kHour;
  spec.axes.push_back(SweepAxis(
      "power_cap_w", {JsonValue(4500.0), JsonValue(3500.0), JsonValue(0.0)}));
  spec.axes.push_back(SweepAxis("backfill", {JsonValue("easy"), JsonValue("none")}));
  spec.axes.push_back(SweepAxis(
      "cooling.supply_temp_c", {JsonValue(20.0), JsonValue(27.0)}));
  return spec;
}

QueueConfig DistConfig(const SweepSpec& spec, std::size_t shard_size = 2) {
  QueueConfig config;
  config.scenario_count = spec.ScenarioCount();
  config.shard_size = shard_size;
  return config;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs the spec in one process and returns its output directory.
std::string SingleProcessRun(const SweepSpec& spec, const fs::path& dir,
                             std::size_t shard_size = 2) {
  SweepRunner runner(spec);
  SweepOptions options;
  options.threads = 2;
  options.output_dir = dir.string();
  options.shard_size = shard_size;
  runner.Run(options);
  return dir.string();
}

void ExpectDirsByteIdentical(const std::string& expected_dir,
                             const std::string& actual_dir,
                             const std::vector<std::string>& files) {
  for (const std::string& file : files) {
    EXPECT_EQ(ReadFile(expected_dir + "/" + file),
              ReadFile(actual_dir + "/" + file))
        << file;
  }
}

std::vector<std::string> ShardAndArtifactNames(std::size_t num_shards) {
  std::vector<std::string> files;
  for (std::size_t s = 0; s < num_shards; ++s) {
    char name[32];
    std::snprintf(name, sizeof name, "rows-%05zu.csv", s);
    files.emplace_back(name);
  }
  files.emplace_back("aggregates.json");
  files.emplace_back("manifest.json");
  return files;
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("sraps_dist_" + tag + "_" + std::to_string(getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  fs::path path() const { return path_; }
  std::string Sub(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

// --- work queue semantics ---------------------------------------------------

TEST(WorkQueueTest, CreateClaimCompleteDrain) {
  ScratchDir scratch("queue_basic");
  const SweepSpec spec = DistSweep();
  SweepWorkQueue queue =
      SweepWorkQueue::Create(scratch.Sub("q"), spec, DistConfig(spec));

  EXPECT_EQ(queue.TodoCount(), 6u);
  EXPECT_EQ(queue.ClaimedCount(), 0u);
  EXPECT_FALSE(queue.Drained());

  // Single-claimer order is deterministic: items come back in id order, each
  // covering one shard-aligned subrange.
  for (std::size_t expect_id = 0; expect_id < 6; ++expect_id) {
    const auto item = queue.Claim();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(item->id, expect_id);
    EXPECT_EQ(item->begin, expect_id * 2);
    EXPECT_EQ(item->end, expect_id * 2 + 2);
    queue.Complete(*item);
  }
  EXPECT_FALSE(queue.Claim().has_value());
  EXPECT_TRUE(queue.Drained());
  EXPECT_EQ(queue.DoneCount(), 6u);

  // The manifest spec round-trips: a worker opening the directory replays
  // the same grid.
  SweepWorkQueue reopened = SweepWorkQueue::Open(scratch.Sub("q"));
  EXPECT_EQ(reopened.config().scenario_count, 12u);
  EXPECT_EQ(reopened.config().shard_size, 2u);
  EXPECT_EQ(reopened.LoadSpec().ScenarioCount(), 12u);
}

TEST(WorkQueueTest, LastItemCoversThePartialShard) {
  ScratchDir scratch("queue_partial");
  const SweepSpec spec = DistSweep();  // 12 scenarios
  SweepWorkQueue queue =
      SweepWorkQueue::Create(scratch.Sub("q"), spec, DistConfig(spec, 5));
  std::size_t total = 0;
  while (auto item = queue.Claim()) {
    total += item->end - item->begin;
    EXPECT_LE(item->end, 12u);
    queue.Complete(*item);
  }
  EXPECT_EQ(total, 12u);
}

TEST(WorkQueueTest, TwoHandlesNeverClaimTheSameItem) {
  ScratchDir scratch("queue_race");
  const SweepSpec spec = DistSweep();
  SweepWorkQueue a =
      SweepWorkQueue::Create(scratch.Sub("q"), spec, DistConfig(spec));
  SweepWorkQueue b = SweepWorkQueue::Open(scratch.Sub("q"));

  // Interleave claims from two independent handles (same filesystem state a
  // second worker process would see): every item is claimed exactly once.
  std::set<std::size_t> ids;
  bool from_a = true;
  while (true) {
    auto item = (from_a ? a : b).Claim();
    from_a = !from_a;
    if (!item) {
      if (!a.Claim() && !b.Claim()) break;
      continue;
    }
    EXPECT_TRUE(ids.insert(item->id).second) << "item claimed twice";
  }
  EXPECT_EQ(ids.size(), 6u);
  EXPECT_EQ(a.TodoCount(), 0u);
  EXPECT_EQ(a.ClaimedCount(), 6u);
}

TEST(WorkQueueTest, ReclaimReturnsStaleItemsAndCompleteToleratesTheft) {
  ScratchDir scratch("queue_reclaim");
  const SweepSpec spec = DistSweep();
  SweepWorkQueue queue =
      SweepWorkQueue::Create(scratch.Sub("q"), spec, DistConfig(spec));

  const auto item = queue.Claim();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(queue.ClaimedCount(), 1u);

  // Young items are not stolen; age 0 reclaims everything claimed.
  EXPECT_EQ(queue.ReclaimStale(3600.0), 0u);
  EXPECT_EQ(queue.ReclaimStale(0.0), 1u);
  EXPECT_EQ(queue.ClaimedCount(), 0u);
  EXPECT_EQ(queue.TodoCount(), 6u);

  // A thief claims and finishes the item; the original owner's Complete is
  // a no-op, not an error (its shards were byte-identical anyway).
  SweepWorkQueue thief = SweepWorkQueue::Open(scratch.Sub("q"));
  const auto stolen = thief.Claim();
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->id, item->id);
  thief.Complete(*stolen);
  EXPECT_NO_THROW(queue.Complete(*item));
  EXPECT_EQ(queue.DoneCount(), 1u);
}

TEST(WorkQueueTest, ClaimAndHeartbeatRestampMtimeSoLiveWorkIsNotStolen) {
  ScratchDir scratch("queue_heartbeat");
  const SweepSpec spec = DistSweep();
  SweepWorkQueue queue =
      SweepWorkQueue::Create(scratch.Sub("q"), spec, DistConfig(spec));

  // Age every todo item far past any straggler timeout: rename(2) preserves
  // mtime, so without the claim-time re-stamp a fresh claim would look
  // instantly stale and be stolen from its live worker (the thrash this
  // test pins down).
  const auto old = fs::file_time_type::clock::now() - std::chrono::hours(2);
  for (const auto& entry : fs::directory_iterator(scratch.Sub("q") + "/todo")) {
    fs::last_write_time(entry.path(), old);
  }
  const auto item = queue.Claim();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(queue.ReclaimStale(60.0), 0u);

  // A heartbeat refreshes an aging claim the same way...
  fs::last_write_time(
      fs::path(scratch.Sub("q")) / "claimed" / "item-00000.json", old);
  EXPECT_TRUE(queue.Heartbeat(*item));
  EXPECT_EQ(queue.ReclaimStale(60.0), 0u);
  EXPECT_EQ(queue.ClaimedCount(), 1u);

  // ...and reports (harmlessly) when the item is no longer on the board.
  queue.Complete(*item);
  EXPECT_FALSE(queue.Heartbeat(*item));
}

TEST(WorkQueueTest, CreateRejectsReuseAndBadConfig) {
  ScratchDir scratch("queue_guards");
  const SweepSpec spec = DistSweep();
  SweepWorkQueue::Create(scratch.Sub("q"), spec, DistConfig(spec));
  EXPECT_THROW(SweepWorkQueue::Create(scratch.Sub("q"), spec, DistConfig(spec)),
               std::invalid_argument);
  QueueConfig empty;
  EXPECT_THROW(SweepWorkQueue::Create(scratch.Sub("q2"), spec, empty),
               std::invalid_argument);

  // A programmatic workload would silently vanish through spec.json and
  // hand every worker a jobless grid; Create refuses it up front.
  SweepSpec programmatic = spec;
  programmatic.synthetic.reset();
  programmatic.base.jobs_override.push_back(Job{});
  EXPECT_THROW(
      SweepWorkQueue::Create(scratch.Sub("q3"), programmatic, DistConfig(spec)),
      std::invalid_argument);
}

// --- worker ----------------------------------------------------------------

TEST(SweepWorkerTest, WorkerShardsMatchSingleProcessBytes) {
  ScratchDir scratch("worker_bytes");
  const SweepSpec spec = DistSweep();
  const std::string expected = SingleProcessRun(spec, scratch.Sub("single"));

  // The manifest carries the spec as the coordinator resolves it.
  SweepRunner resolver(spec);
  resolver.ResolveWorkload();
  SweepWorkQueue queue = SweepWorkQueue::Create(scratch.Sub("q"),
                                                resolver.spec(),
                                                DistConfig(spec));
  SweepWorkerOptions options;
  options.worker_id = "t";
  options.threads = 2;
  const SweepWorkerReport report = RunSweepWorker(scratch.Sub("q"), options);
  EXPECT_EQ(report.items_completed, 6u);
  EXPECT_EQ(report.scenarios_run, 12u);
  EXPECT_EQ(report.shards_written, 6u);
  EXPECT_TRUE(queue.Drained());

  for (std::size_t s = 0; s < 6; ++s) {
    char name[32];
    std::snprintf(name, sizeof name, "rows-%05zu.csv", s);
    EXPECT_EQ(ReadFile(expected + "/" + name),
              ReadFile(scratch.Sub("q") + "/shards/" + name))
        << name;
  }
  // Staging scratch is cleaned up behind every published item.
  EXPECT_TRUE(fs::is_empty(scratch.Sub("q") + "/staging"));
}

TEST(SweepWorkerTest, CrashMidShardIsReclaimedAndRerunDeterministically) {
  ScratchDir scratch("worker_crash");
  const SweepSpec spec = DistSweep();
  const std::string expected = SingleProcessRun(spec, scratch.Sub("single"));

  SweepRunner resolver(spec);
  resolver.ResolveWorkload();
  SweepWorkQueue queue = SweepWorkQueue::Create(scratch.Sub("q"),
                                                resolver.spec(),
                                                DistConfig(spec));

  // Simulate a worker that died mid-item: the item stays in claimed/ and a
  // half-written shard rots in its staging directory.
  const auto doomed = queue.Claim();
  ASSERT_TRUE(doomed.has_value());
  {
    std::ofstream partial(queue.StagingDir("dead", doomed->id) +
                          "/rows-00000.csv");
    partial << "index,name\n0,torn-row-with-no-terminato";
  }
  ASSERT_EQ(queue.ClaimedCount(), 1u);

  // The steal path returns it to todo/; a healthy worker then drains the
  // whole queue, re-running the crashed item from scratch.
  EXPECT_EQ(queue.ReclaimStale(0.0), 1u);
  SweepWorkerOptions options;
  options.worker_id = "healthy";
  options.threads = 2;
  const SweepWorkerReport report = RunSweepWorker(scratch.Sub("q"), options);
  EXPECT_EQ(report.items_completed, 6u);
  EXPECT_TRUE(queue.Drained());

  // Published shards are untouched by the partial write — byte-identical to
  // the single-process run.  The dead worker's staging litter survives (only
  // its owner may clean it) but never reaches shards/.
  for (std::size_t s = 0; s < 6; ++s) {
    char name[32];
    std::snprintf(name, sizeof name, "rows-%05zu.csv", s);
    EXPECT_EQ(ReadFile(expected + "/" + name),
              ReadFile(scratch.Sub("q") + "/shards/" + name))
        << name;
  }
}

// --- coordinator (real worker processes) -----------------------------------

TEST(DistributedSweepTest, TwoWorkersMergeByteIdenticalArtifacts) {
  ScratchDir scratch("coord");
  const SweepSpec spec = DistSweep();
  const std::string expected = SingleProcessRun(spec, scratch.Sub("single"));

  DistributedSweepOptions options;
  options.workers = 2;
  options.threads_per_worker = 1;
  options.shard_size = 2;
  options.straggler_timeout_s = 60.0;
  const DistributedSweepSummary summary = RunDistributedSweep(
      spec, scratch.Sub("work"), scratch.Sub("merged"), options);

  EXPECT_EQ(summary.total, 12u);
  EXPECT_EQ(summary.ok_count, 12u);
  EXPECT_EQ(summary.failed_count, 0u);
  EXPECT_EQ(summary.workers_spawned, 2u);
  EXPECT_EQ(summary.items_total, 6u);
  ASSERT_EQ(summary.shard_paths.size(), 6u);
  ExpectDirsByteIdentical(expected, scratch.Sub("merged"),
                          ShardAndArtifactNames(6));
}

TEST(DistributedSweepTest, SurvivesAnInjectedWorkerKill) {
  ScratchDir scratch("coord_kill");
  const SweepSpec spec = DistSweep();
  const std::string expected = SingleProcessRun(spec, scratch.Sub("single"));

  DistributedSweepOptions options;
  options.workers = 2;
  options.threads_per_worker = 1;
  options.shard_size = 2;
  options.kill_first_worker = true;
  // Short steal timeout so the killed worker's claimed item is recycled
  // quickly; a falsely-stolen live item just gets run twice with identical
  // bytes.
  options.straggler_timeout_s = 0.5;
  options.poll_seconds = 0.02;
  const DistributedSweepSummary summary = RunDistributedSweep(
      spec, scratch.Sub("work"), scratch.Sub("merged"), options);

  EXPECT_EQ(summary.workers_killed, 1u);
  EXPECT_EQ(summary.ok_count, 12u);
  EXPECT_EQ(summary.failed_count, 0u);
  ExpectDirsByteIdentical(expected, scratch.Sub("merged"),
                          ShardAndArtifactNames(6));
}

TEST(DistributedSweepTest, ZeroWorkersDrainsInlineWithTreeExecution) {
  // workers=0 exercises queue creation, the inline drain, and the merge
  // without fork/exec — and with tree execution the bytes still match the
  // plain single-process run.
  ScratchDir scratch("coord_inline");
  const SweepSpec spec = DistSweep();
  const std::string expected = SingleProcessRun(spec, scratch.Sub("single"));

  DistributedSweepOptions options;
  options.workers = 0;
  options.tree = true;
  options.shard_size = 2;
  const DistributedSweepSummary summary = RunDistributedSweep(
      spec, scratch.Sub("work"), scratch.Sub("merged"), options);

  EXPECT_EQ(summary.workers_spawned, 0u);
  EXPECT_EQ(summary.items_inline, 6u);
  EXPECT_EQ(summary.ok_count, 12u);
  ExpectDirsByteIdentical(expected, scratch.Sub("merged"),
                          ShardAndArtifactNames(6));
}

TEST(DistributedSweepTest, ParseShardCsvRoundTripsRowScalarsExactly) {
  ScratchDir scratch("parse_shard");
  const SweepSpec spec = DistSweep();

  SweepRunner runner(spec);
  SweepOptions options;
  options.threads = 2;
  options.output_dir = scratch.Sub("out");
  options.shard_size = 12;  // one shard holds the whole grid
  const SweepSummary summary = runner.Run(options);
  ASSERT_EQ(summary.shard_paths.size(), 1u);

  const std::vector<SweepRow> rows =
      ParseShardCsv(summary.shard_paths[0], spec);
  ASSERT_EQ(rows.size(), 12u);

  // Re-folding the parsed rows must land on the exact aggregates JSON the
  // in-process fold produced — this is the merge step's correctness core.
  SweepAggregator aggregator(12);
  for (const SweepRow& row : rows) aggregator.Fold(row);
  EXPECT_EQ(aggregator.Finalize().ToJson().Dump(2),
            summary.aggregates.ToJson().Dump(2));
  for (const SweepRow& row : rows) {
    EXPECT_TRUE(row.ok);
    EXPECT_EQ(row.axis_values.size(), spec.axes.size());
  }
}

/// Rewrites the cell of `column` on the first data row of the shard at
/// `path` (shard cells hold no quoted commas).
void CorruptCell(const std::string& path, const std::string& column,
                 const std::string& cell) {
  std::istringstream in(ReadFile(path));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const auto split = [](const std::string& line) {
    std::vector<std::string> cells;
    std::stringstream ss(line);
    for (std::string c; std::getline(ss, c, ',');) cells.push_back(c);
    if (!line.empty() && line.back() == ',') cells.emplace_back();
    return cells;
  };
  const std::vector<std::string> header = split(lines.at(0));
  std::vector<std::string> row = split(lines.at(1));
  const auto col = std::find(header.begin(), header.end(), column) - header.begin();
  row.at(static_cast<std::size_t>(col)) = cell;
  lines[1].clear();
  for (std::size_t c = 0; c < row.size(); ++c) lines[1] += (c ? "," : "") + row[c];
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const std::string& line : lines) out << line << "\n";
}

/// The message ParseShardCsv throws, or "" when it does not throw.
std::string ParseError(const std::string& path, const SweepSpec& spec) {
  try {
    ParseShardCsv(path, spec);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(DistributedSweepTest, CorruptShardCellsAreRefusedNotMergedAsZero) {
  ScratchDir scratch("corrupt_shard");
  const SweepSpec spec = DistSweep();
  const std::string single = SingleProcessRun(spec, scratch.Sub("single"), 12);
  const std::string shard = single + "/rows-00000.csv";
  const std::string pristine = ReadFile(shard);
  ASSERT_EQ(ParseShardCsv(shard, spec).size(), 12u);

  // One bad cell per case: each names the shard path, the line (the first
  // data row is line 2) and the column.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"avg_wait_s", "12x"},
      {"total_energy_j", ""},
      {"completed", "-1"},
      {"completed", "2.5"},
      {"dismissed", "1e30"},
      {"fingerprint", "abc"},
      {"fingerprint", "0x12345678901234"},
      {"fingerprint", ""},
      {"ok", "yes"},
      {"index", ""}};
  for (const auto& [column, cell] : cases) {
    CorruptCell(shard, column, cell);
    const std::string error = ParseError(shard, spec);
    EXPECT_NE(error.find(shard + ":2"), std::string::npos) << column << ": " << error;
    EXPECT_NE(error.find(column), std::string::npos) << column << ": " << error;
    std::ofstream(shard, std::ios::binary | std::ios::trunc) << pristine;
  }

  // The coordinator merges a corrupt shard into nothing: a worker that
  // corrupts the fingerprint cell of the shard it publishes fails the merge
  // before aggregates.json is written.
  const fs::path real_worker =
      fs::read_symlink("/proc/self/exe").parent_path() / "sraps_sweep_worker";
  ASSERT_TRUE(fs::exists(real_worker)) << real_worker;
  const std::string worker = scratch.Sub("corrupting_worker.sh");
  {
    std::ofstream script(worker);
    script << "#!/bin/sh\n"
           << "\"" << real_worker.string() << "\" \"$@\" || exit $?\n"
           << "sed -i '2s/,[0-9a-f]*$/,oops/' \"$1/shards/rows-00000.csv\"\n";
  }
  fs::permissions(worker, fs::perms::owner_all);
  DistributedSweepOptions options;
  options.workers = 1;
  options.threads_per_worker = 1;
  options.shard_size = 12;
  options.worker_binary = worker;
  try {
    RunDistributedSweep(spec, scratch.Sub("work"), scratch.Sub("merged"), options);
    ADD_FAILURE() << "a corrupt shard was merged";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(fs::exists(scratch.Sub("merged") + "/aggregates.json"));
}

}  // namespace
}  // namespace sraps
