// The benchmark's four workloads.  Each one generates its inputs from the
// seed before any timing starts, repeats its study until the run's time is
// spent, checks the simulator's outputs, and returns either the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch space, removed by the caller
  std::string data_dir;   ///< m100_cli: the generated dataset
  std::string spans_out;  ///< traced run: where the spans are written
};

/// One measured metric; its unit is the one BENCHMARK.json gives its name.
struct Metric {
  std::string name;
  double value = 0.0;
};

struct WorkloadResult {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;  ///< studies, queries and output checks made
  std::size_t failed = 0;     ///< of those, failed
  std::vector<std::string> failures;  ///< one line per failure
  std::vector<std::string> notes;     ///< sample counts and other context

  void Set(const std::string& name, double value);
  /// Counts one attempted operation; records `what` as a failure unless ok.
  void Check(bool ok, const std::string& what);
};

/// Writes the marconi100 dataset for `seed` into `dir` (generation is kept
/// out of the measuring process, its time and its peak memory).
void GenerateM100Dataset(std::uint64_t seed, const std::string& dir);

/// Runs one workload.  Throws std::invalid_argument on an unknown name.
WorkloadResult RunWorkload(const RunConfig& config);

}  // namespace perfbench
