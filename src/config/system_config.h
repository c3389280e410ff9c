// System descriptions: everything the power, cooling, and scheduling layers
// need to know about a machine.  One factory per system of Table 1 in the
// paper (Frontier, Marconi100, Fugaku, Lassen, Adastra) plus a small generic
// test system.
//
// A system is a list of named *machine classes* (MachineClassSpec): a block
// of identical nodes with a per-node electrical model, an explicit P-state
// ladder (frequency/power scaling rungs, P0 = full speed), and optional C/S
// idle/sleep states with wake latencies.  Node ids are global across
// classes; legacy single-model systems are one class with an implicit
// single-rung ladder, which behaves bit-identically to the old scalar model.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/time.h"
#include "cooling/transient_thermal.h"

namespace sraps {

/// Per-node electrical model parameters (watts).  Node power is
///   P = idle + cpu_util * cpus_per_node * (cpu_max - cpu_idle)
///           + gpu_util * gpus_per_node * (gpu_max - gpu_idle)
///           + mem/nic static share
/// clamped to [idle, peak].  See power/node_power.h.
struct NodePowerSpec {
  double idle_w = 200.0;        ///< whole-node idle draw
  double cpu_idle_w = 30.0;     ///< per-CPU-socket idle
  double cpu_max_w = 280.0;     ///< per-CPU-socket max
  double gpu_idle_w = 70.0;     ///< per-GPU idle
  double gpu_max_w = 560.0;     ///< per-GPU max
  double mem_w = 50.0;          ///< static memory subsystem draw
  double nic_w = 25.0;          ///< static NIC draw
  int cpus_per_node = 1;        ///< CPU sockets per node
  int gpus_per_node = 0;        ///< GPUs per node

  /// Peak whole-node draw implied by the spec.
  double PeakW() const;
  /// Idle whole-node draw implied by the spec (idle + static shares).
  double IdleW() const;

  JsonValue ToJson() const;
  /// Strict parse: unknown keys throw std::runtime_error.
  static NodePowerSpec FromJson(const JsonValue& v);
};

/// One rung of a P-state ladder.  P0 is always {1.0, 1.0}: full clock, full
/// power.  Deeper rungs trade frequency for power; freq_scale dilates job
/// runtimes exactly the way power-cap throttling does, power_scale shrinks
/// the node's *dynamic* draw (the part above idle).
struct PState {
  double freq_scale = 1.0;   ///< relative clock, in (0, 1]
  double power_scale = 1.0;  ///< relative dynamic power, in (0, 1]
};

/// An idle (C) or sleep (S) state: the node draws `power_w` instead of its
/// idle wall draw, cannot run jobs, and takes `wake_latency_s` of simulated
/// time to come back after WakeNode before it is allocatable again.
struct SleepStateSpec {
  bool enabled = false;
  double power_w = 0.0;           ///< whole-node draw while in this state
  SimDuration wake_latency_s = 0; ///< transition time back to active
};

/// A named block of identical nodes (e.g. Adastra's CPU and GPU partitions,
/// or an x86 vs ARM split).  Node ids are global across classes, assigned in
/// declaration order.
struct MachineClassSpec {
  std::string name;
  int num_nodes = 0;
  int cores_per_node = 1;
  double memory_gb = 0.0;
  NodePowerSpec node_power;
  /// P-state ladder, rung 0 first.  Empty means the implicit single-rung
  /// ladder {1.0, 1.0}; when non-empty, rung 0 must be exactly {1.0, 1.0}
  /// and deeper rungs must be strictly decreasing in both scales.
  std::vector<PState> pstates;
  SleepStateSpec c_state;  ///< shallow idle (fast wake)
  SleepStateSpec s_state;  ///< deep sleep (slow wake, lowest draw)
  /// Per-class thermal-trip override for the transient cooling layer
  /// (cooling.transient): nodes of this class throttle once their rack's
  /// transient inlet exceeds this temperature.  0 (the default) inherits the
  /// global cooling.transient.trip_inlet_c; a class-specific value lets e.g.
  /// a GPU partition trip earlier than its CPU neighbours.
  double thermal_trip_c = 0.0;

  /// Ladder depth; at least 1 (the implicit P0) even when `pstates` is empty.
  int NumPStates() const;
  /// Rung `p` of the ladder; p==0 always returns {1.0, 1.0}.  Throws
  /// std::out_of_range for p outside [0, NumPStates()).
  PState PStateAt(int p) const;
  /// True when the class has anything beyond the implicit always-on model:
  /// a ladder deeper than P0, or an enabled C/S state.
  bool HasPowerStates() const;
  /// Busy node draw at rung `p` given the full-speed busy draw: idle wall
  /// power is unaffected, the dynamic share scales by power_scale.  p==0
  /// returns `busy_w` exactly unchanged (bit-identity with the legacy path).
  double ScaledBusyPowerW(int p, double busy_w) const;
  /// Draw in the C (deep=false) or S (deep=true) state; the state must be
  /// enabled (throws std::logic_error otherwise).
  double SleepPowerW(bool deep) const;
  /// Wake latency of the C (deep=false) or S (deep=true) state.
  SimDuration WakeLatencyS(bool deep) const;

  /// Round-trips through the `"machines"` scenario block.  ToJson omits
  /// `pstates` when empty and `c_state`/`s_state` when disabled; FromJson
  /// treats presence of a sleep block as enabled.  Strict: unknown keys
  /// throw std::invalid_argument.
  JsonValue ToJson() const;
  static MachineClassSpec FromJson(const JsonValue& v);
};

/// Backwards-compatible alias: pre-machine-class code called these
/// "partitions".
using Partition = MachineClassSpec;

/// Validates one machine class; `context` prefixes error messages (e.g. the
/// scenario key or builder call the class came from).  Throws
/// std::invalid_argument with an actionable message on the first problem.
void ValidateMachineClass(const MachineClassSpec& cls,
                          const std::string& context);

/// Power-conversion (rectifier + DC/DC) loss model per Wojda et al.:
/// loss(P) = c0 + c1*P + c2*P^2 at the cabinet level, fit so that peak-load
/// efficiency matches `peak_efficiency`.
struct ConversionSpec {
  double idle_loss_w = 2000.0;     ///< per-cabinet constant loss (c0)
  double linear_coeff = 0.02;      ///< c1, dimensionless
  double quadratic_coeff = 4e-8;   ///< c2, 1/W
  int nodes_per_cabinet = 64;
};

/// How the heat-recirculation matrix D of a thermal topology is specified.
/// D is N×N (N = total nodes); entry D[i][j] is the fraction of node j's heat
/// that recirculates into node i's inlet airstream.  Three kinds:
///   "dense"  — `rows` holds the full matrix explicitly.
///   "banded" — D[i][j] = coeff * decay^(|i-j|-1) for 1 <= |i-j| <= width,
///              0 elsewhere (neighbours along the row ingest each other's
///              exhaust, falling off geometrically).
///   "layout" — generated from the rack layout: nodes in the same rack
///              couple with `intra_rack`, nodes in adjacent racks with
///              `cross_rack`, everything further is 0.
struct HrMatrixSpec {
  std::string kind = "layout";
  std::vector<std::vector<double>> rows;  ///< dense: explicit N×N entries
  double coeff = 0.05;       ///< banded: nearest-neighbour coupling
  double decay = 0.5;        ///< banded: geometric falloff per hop
  int width = 2;             ///< banded: half-bandwidth in node ids
  double intra_rack = 0.04;  ///< layout: same-rack coupling
  double cross_rack = 0.01;  ///< layout: adjacent-rack coupling

  JsonValue ToJson() const;
  /// Strict parse: unknown keys throw std::invalid_argument naming the key.
  static HrMatrixSpec FromJson(const JsonValue& v);
};

/// Spatial thermal structure over the machine's global node ids: a rack/row
/// layout plus a heat-recirculation matrix.  Per-node inlet temperatures are
///   T_in[i] = supply_temp_c + Σ_j D[i][j] · q_j / airflow_w_per_k
/// where q_j is node j's sampled electrical draw (all of it exhausts as
/// heat).  Inlet elevation above the supply setpoint costs
/// `fan_leak_w_per_k` extra watts of fan/leakage draw per node per kelvin.
/// `racks == 0` (the default) means no topology: every legacy behaviour is
/// bit-identical.  Node n lives in rack n / nodes_per_rack.
struct ThermalTopologySpec {
  int racks = 0;             ///< 0 = thermal topology off
  int nodes_per_rack = 0;    ///< racks * nodes_per_rack must equal TotalNodes
  HrMatrixSpec hr_matrix;
  double airflow_w_per_k = 1500.0;  ///< per-node airstream heat capacity
  double fan_leak_w_per_k = 2.0;    ///< extra node draw per K inlet elevation

  bool enabled() const { return racks > 0; }

  JsonValue ToJson() const;
  /// Strict parse: unknown keys throw std::invalid_argument naming the key.
  static ThermalTopologySpec FromJson(const JsonValue& v);
};

/// Cooling design parameters for the lumped transient model (cooling/) and,
/// when `topology` is configured, the thermal-placement layer (per-node
/// inlet temperatures + placement-dependent multi-CDU heat split).
struct CoolingSpec {
  bool has_cooling_model = false;   ///< only Frontier ships a cooling model in the paper
  int num_cdus = 25;                ///< cooling distribution units
  double design_it_load_kw = 30000; ///< heat load the loop is sized for
  double supply_temp_c = 22.0;      ///< facility supply setpoint
  double wetbulb_c = 18.0;          ///< ambient wet-bulb (tower sink)
  double tower_approach_c = 4.0;    ///< tower approach at design load
  double loop_flow_kg_s = 800.0;    ///< facility water mass flow
  double cdu_effectiveness = 0.85;  ///< heat-exchanger effectiveness
  double thermal_mass_j_per_k = 5.0e8;  ///< lumped loop thermal mass
  double pump_rated_kw = 400.0;     ///< facility pumps at design flow
  double fan_rated_kw = 600.0;      ///< tower fans at design load
  ThermalTopologySpec topology;     ///< spatial layer; racks == 0 = absent
  TransientThermalSpec transient;   ///< rack thermal mass / CRAC / trips

  /// Round-trips through the scenario's `cooling` block.  ToJson omits
  /// `topology` when racks == 0 and `transient` when disabled, so legacy
  /// flat cooling blocks serialise unchanged.
  JsonValue ToJson() const;
  /// Strict parse: unknown keys throw std::invalid_argument naming the key.
  /// Scalar fields keep their defaults when absent.
  static CoolingSpec FromJson(const JsonValue& v);
};

/// Validates a cooling spec (parse-time, so a bad block fails before the run
/// starts instead of mid-run inside a model constructor): num_cdus >= 1,
/// positive thermal parameters, and — when a topology is configured — a
/// square non-negative hr_matrix with row sums <= 1 and a rack grid matching
/// `total_nodes` (pass total_nodes < 0 to skip the node-count check when the
/// machine size is not known yet).  `context` prefixes every message.
void ValidateCoolingSpec(const CoolingSpec& spec, int total_nodes,
                         const std::string& context);

/// Everything the engine needs to instantiate a digital twin of one system.
struct SystemConfig {
  std::string name;                ///< CLI `--system` identifier
  std::string architecture;        ///< e.g. "HPE/Cray EX"
  std::string scheduler_name;      ///< production scheduler (Slurm, LSF, TCS)
  std::vector<MachineClassSpec> machines;
  ConversionSpec conversion;
  CoolingSpec cooling;
  SimDuration telemetry_interval = 20;  ///< trace sampling period (s)
  double pue_target = 1.1;         ///< reported average PUE (validation aid)

  int TotalNodes() const;
  /// Peak IT power across all classes, watts (full clock, no sleep).
  double PeakItPowerW() const;
  /// Idle IT power across all classes, watts (active idle, not C/S).
  double IdleItPowerW() const;
  /// The power spec governing a global node id; throws if out of range.
  const NodePowerSpec& NodeSpec(int node_id) const;
  /// Machine-class index owning a global node id; throws if out of range.
  std::size_t ClassOf(int node_id) const;
  /// The machine class owning a global node id; throws if out of range.
  const MachineClassSpec& MachineClassOf(int node_id) const;
  /// The class with the given name, or nullptr when absent.
  const MachineClassSpec* FindClass(const std::string& name) const;
  MachineClassSpec* FindClass(const std::string& name);
  /// Deepest ladder across all classes (>= 1).
  int MaxPStates() const;
  /// True when any class defines power states beyond always-on.
  bool HasPowerStates() const;
};

/// Factory for the systems of Table 1 and a generic small test machine.
/// Throws std::invalid_argument for unknown names.
///
/// Known names: "frontier", "marconi100", "fugaku", "lassen",
/// "adastraMI250", "mini" (16-node test system).
SystemConfig MakeSystemConfig(const std::string& name);

/// Names accepted by MakeSystemConfig, in Table 1 order.
std::vector<std::string> KnownSystems();

}  // namespace sraps
