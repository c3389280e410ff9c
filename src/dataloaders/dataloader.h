// Dataloader abstraction (§3.2.2): a dataloader parses one system's
// telemetry into the engine's job list — submit/start/end times, time limit,
// node counts or exact node sets, and whatever power/utilisation telemetry
// the dataset offers (full traces for Frontier/Marconi100, scalar summaries
// for Fugaku/Lassen/Adastra).  Loaders are registered by system name,
// mirroring the paper's `--system` plugin mechanism.
//
// Offline substitution: the Zenodo parquet files are represented as CSV
// files with the same column semantics; each loader ships a deterministic
// synthetic generator that writes a dataset-shaped file so the full parse →
// replay → reschedule pipeline is exercised end to end (see DESIGN.md).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.h"
#include "config/system_config.h"
#include "workload/job.h"

namespace sraps {

class Dataloader {
 public:
  virtual ~Dataloader() = default;

  /// The `--system` name this loader serves.
  virtual std::string system_name() const = 0;

  /// Parses the dataset rooted at `path` (a jobs.csv file, or a directory
  /// containing jobs.csv and optionally traces.csv).  Throws
  /// std::runtime_error on malformed data.
  virtual std::vector<Job> Load(const std::string& path) const = 0;
};

/// Registry keyed by system name (plugin mechanism), backed by the unified
/// NamedRegistry used for schedulers, policies, and backfill strategies.
class DataloaderRegistry {
 public:
  static DataloaderRegistry& Instance();

  void Register(std::unique_ptr<Dataloader> loader);
  /// Throws std::invalid_argument listing the registered systems.
  const Dataloader& Get(const std::string& system) const;
  bool Has(const std::string& system) const;
  std::vector<std::string> Names() const;

 private:
  NamedRegistry<std::unique_ptr<Dataloader>> loaders_{"dataloader"};
};

/// Registers the five built-in loaders (frontier, marconi100, fugaku,
/// lassen, adastraMI250).  Idempotent.
void RegisterBuiltinDataloaders();

// --- shared column helpers used by the concrete loaders --------------------
namespace loader_detail {

/// Parses a '|'-separated node list ("3|17|42") into node ids; empty tokens
/// are skipped.  Throws std::invalid_argument, naming the cell, when a token
/// is not wholly a decimal int.
std::vector<int> ParseNodeList(const std::string& cell);
/// Joins node ids with '|'.
std::string FormatNodeList(const std::vector<int>& nodes);

}  // namespace loader_detail
}  // namespace sraps
