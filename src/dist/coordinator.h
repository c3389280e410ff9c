// Distributed sweep coordinator: expands a SweepSpec into a filesystem work
// queue (dist/work_queue.h), spawns N sraps_sweep_worker processes, steals
// work back from stragglers, and merges the workers' shard CSVs into the
// exact artifact set — rows-*.csv + aggregates.json + manifest.json — a
// single-process SweepRunner::Run would have written, byte for byte.
//
// The byte-identity discipline (shards are complete, index-ordered, and
// %.17g/%016x formatted regardless of producer) is what makes the whole tier
// safe: a worker can crash mid-item and the item is simply re-run; an item
// can be stolen and executed twice and the duplicate shard overwrites equal
// bytes; the merged aggregates are re-folded from the shard rows and land on
// the same JSON the in-process fold produces.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"

namespace sraps {

struct DistributedSweepOptions {
  /// Worker processes to spawn (0 = run everything inline; still exercises
  /// the queue/merge path).
  unsigned workers = 2;
  /// Threads per worker process (SweepOptions::threads).
  unsigned threads_per_worker = 0;
  /// Workers run with the snapshot-tree executor (sweep/tree); output bytes
  /// are identical either way, only wall clock changes.
  bool tree = false;
  /// Scenarios per output shard; one work item covers `shards_per_item`
  /// consecutive shards.
  std::size_t shard_size = 256;
  std::size_t shards_per_item = 1;
  /// Claimed items older than this are returned to todo/ (work stealing on
  /// stragglers).  The coordinator applies it while waiting; workers also
  /// apply it between claims.
  double straggler_timeout_s = 30.0;
  /// Coordinator poll interval while workers run.
  double poll_seconds = 0.05;
  /// Worker binary; empty = "sraps_sweep_worker" next to this executable.
  std::string worker_binary;
  /// Fault injection for tests/nightly: SIGKILL the first worker as soon as
  /// any item has been claimed, then let stealing + the inline drain finish
  /// the sweep.  Output bytes must be unaffected.
  bool kill_first_worker = false;
};

struct DistributedSweepSummary {
  std::size_t total = 0;
  std::size_t ok_count = 0;
  std::size_t failed_count = 0;
  SweepAggregates aggregates;
  /// Merged shard files in `out_dir`, in shard-index order.
  std::vector<std::string> shard_paths;
  std::size_t workers_spawned = 0;
  std::size_t workers_killed = 0;   ///< fault injection only
  std::size_t items_total = 0;
  std::size_t items_reclaimed = 0;  ///< straggler/crash steals observed
  std::size_t items_inline = 0;     ///< drained by the coordinator itself
  double wall_seconds = 0.0;
};

/// Runs `spec` across worker processes coordinated through `work_dir` (a
/// fresh directory; reused contents are rejected) and writes the merged
/// whole-grid artifacts into `out_dir`.  The workload is resolved before the
/// manifest is written, so a calibrating sweep is fitted exactly once and
/// every worker replays the fitted spec.  Throws when the merge finds a
/// missing shard or an inconsistent row set.
DistributedSweepSummary RunDistributedSweep(const SweepSpec& spec,
                                            const std::string& work_dir,
                                            const std::string& out_dir,
                                            const DistributedSweepOptions& options = {});

/// Reconstructs the compact rows of one shard CSV (the worker output /
/// merge input).  Metric and fingerprint cells round-trip bit-exactly
/// (%.17g / %016x); axis values come back as raw cell strings, which is
/// enough for folding — the merge copies shard BYTES, it never re-renders
/// rows.  Any other malformed or empty cell (index, ok, a metric, the
/// fingerprint) throws std::runtime_error naming the path, line and column.
/// Exposed for tests and for external merge tooling.
std::vector<SweepRow> ParseShardCsv(const std::string& path,
                                    const SweepSpec& spec);

}  // namespace sraps
