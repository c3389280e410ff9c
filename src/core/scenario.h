// ScenarioSpec: the declarative description of one digital-twin what-if —
// which system, which workload, which scheduler/policy/backfill, what
// window, and which perturbations (power cap, outages, cooling coupling).
// Specs are plain data: they serialise to/from JSON so scenario files can
// drive the CLI and the ExperimentRunner, and they are cheap to copy so a
// sweep can stamp out N variants from one base.
//
// The two programmatic escape hatches — `jobs_override` (inject a workload
// without a dataset) and `config_override` (inject a custom SystemConfig) —
// intentionally do NOT round-trip through JSON; a scenario file describes
// them by `dataset_path` and `system` instead.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "config/system_config.h"
#include "engine/simulation_engine.h"
#include "workload/job.h"

namespace sraps {

struct ScenarioSpec {
  std::string name = "scenario";  ///< label in experiment tables/outputs

  // --- what to simulate -----------------------------------------------------
  std::string system = "mini";  ///< --system
  std::string dataset_path;     ///< -f; empty = use jobs_override
  /// Machine-class override: when non-empty, replaces the named system's
  /// class list wholesale (node counts, power specs, P-state ladders, C/S
  /// sleep states) — the "machines" JSON block.  Empty = the system factory's
  /// own classes, which is bit-identical to the pre-machines behaviour.
  std::vector<MachineClassSpec> machines;
  /// Programmatic workload (tests/benches).  Consumed at Build: the engine
  /// takes ownership (engine().jobs()); the spec a Simulation retains has
  /// this field emptied.
  std::vector<Job> jobs_override;
  std::optional<SystemConfig> config_override;  ///< e.g. FugakuSliceConfig

  // --- scheduling -----------------------------------------------------------
  std::string scheduler = "default";  ///< SchedulerRegistry name
  std::string policy = "replay";      ///< PolicyRegistry name
  std::string backfill = "none";      ///< BackfillRegistry name

  // --- window ---------------------------------------------------------------
  SimDuration fast_forward = 0;  ///< -ff: skip this far into the dataset
  SimDuration duration = 0;      ///< -t: 0 = run to the dataset's end

  // --- toggles --------------------------------------------------------------
  /// The "cooling" JSON block.  Serialised as an object
  ///   {"enabled": bool, "supply_temp_c": C, "topology": {...}}
  /// (optional keys omitted when unset); a legacy bare bool parses as
  /// `enabled` bit-identically.  `enabled` couples the transient cooling
  /// model (-c); `supply_temp_c`/`topology` override the resolved system's
  /// CoolingSpec, giving sweeps dotted axes ("cooling.supply_temp_c",
  /// "cooling.topology.hr_matrix.coeff", ...).
  bool cooling = false;                    ///< -c: couple the cooling model
  /// Supply-setpoint override onto the resolved system config; unset = the
  /// system factory's value.
  std::optional<double> cooling_supply_temp_c;
  /// Thermal-topology override onto the resolved system config; racks == 0
  /// (the default) = none configured.
  ThermalTopologySpec cooling_topology;
  /// Transient-thermal override ("cooling.transient" block) onto the
  /// resolved system config: rack thermal mass, CRAC supply control, and
  /// thermal-trip throttling.  Unset = the system factory's value (inert by
  /// default).  Sweepable via dotted "cooling.transient.*" axes.
  std::optional<TransientThermalSpec> cooling_transient;
  bool accounts = false;                   ///< --accounts: accumulate account stats
  std::string accounts_json;               ///< --accounts-json: reload a collection run
  bool record_history = true;              ///< fill the telemetry channels (history.csv)
  bool prepopulate = true;                 ///< place jobs already running at sim start
  bool event_triggered_scheduling = true;  ///< skip scheduler on event-free ticks
  /// Event-calendar fast path: hop from event to event instead of iterating
  /// physics-free ticks; results stay bit-identical to tick stepping.
  bool event_calendar = false;
  /// Record the per-tick wall energy so grid cost/CO2 accounting can be
  /// replayed under re-scaled signals (Simulation::ForkWithGrid) — the
  /// sweep tree enables this on runs shared across price/carbon scales, and
  /// the scenario service on its bases.  Costs 8 B/tick.
  bool capture_grid_basis = false;
  SimDuration tick = 0;             ///< 0 = system telemetry interval
  double power_cap_w = 0.0;         ///< facility power cap (0 = uncapped)
  std::vector<NodeOutage> outages;  ///< failure-injection schedule
  /// Time-varying grid context (price/carbon signals, demand-response cap
  /// windows, grid_aware slack) — the "grid" JSON block.
  GridEnvironment grid;
  bool html_report = false;      ///< also write report.html in SaveOutputs

  /// Serialises every file-representable field (not jobs_override /
  /// config_override) with deterministic key order.
  JsonValue ToJson() const;

  /// Inverse of ToJson.  Unknown keys throw std::invalid_argument (catching
  /// scenario-file typos); missing keys keep their defaults.
  static ScenarioSpec FromJson(const JsonValue& v);

  /// File convenience wrappers; Load throws std::runtime_error on I/O or
  /// parse failure, std::invalid_argument on unknown keys.
  static ScenarioSpec LoadFile(const std::string& path);
  void SaveFile(const std::string& path) const;
};

/// Applies one JSON-level field assignment to a spec: `key` is any ToJson
/// key ("power_cap_w", "scheduler", "event_calendar", ...) and `value` its
/// new value.  A dotted key ("grid.price.scale", "grid.slack_s") descends
/// into nested objects, creating intermediate objects as needed.  Reuses the
/// strict FromJson parsing, so an unknown key or a mistyped value throws
/// std::invalid_argument; the programmatic-only jobs_override /
/// config_override fields are preserved across the patch.  This is how
/// sweep axes stamp values onto scenario copies.
void ApplyScenarioKey(ScenarioSpec& spec, const std::string& key,
                      const JsonValue& value);

/// Value-level validation shared by the builder and the facade: rejects
/// negative fast-forward/duration/tick, negative power cap, malformed
/// outages (empty node list, negative node ids), malformed grid blocks
/// (empty DR windows, non-positive DR caps, negative slack), and an empty
/// name, with descriptive std::invalid_argument messages.  Name resolution (system /
/// scheduler / policy / backfill) is validated separately against the
/// registries by SimulationBuilder.
void ValidateScenarioSpec(const ScenarioSpec& spec);

}  // namespace sraps
