// Per-CDU cooling extension.  The paper's cooling model "simulates from
// cooling distribution unit (CDU) to cooling towers" (§3.1); the lumped
// CoolingModel collapses all CDUs into one loop, which is exact when heat is
// uniform but hides hot-spot CDUs under skewed placement.  This extension
// tracks one secondary loop per CDU — each with its own thermal state and
// heat share — feeding the shared facility loop/tower model.  The engine
// selects it automatically whenever a thermal topology is configured: the
// placement then determines where heat lands (rack r feeds CDU
// r % num_cdus), so what-if studies observe per-CDU return temperatures
// (e.g. a full-system job concentrated on half the cabinets).  The
// rack-level transient layer (cooling/transient_thermal.h) sits above this
// loop model: it lags the topology's quasi-static inlets, it does not feed
// back into the CDU heat split.
#pragma once

#include <vector>

#include "cooling/cooling_model.h"

namespace sraps {

/// Thermal state of one CDU's secondary (node-side) loop.
struct CduState {
  double return_temp_c = 0.0;  ///< secondary hot-side temperature
  double heat_w = 0.0;         ///< heat currently flowing through this CDU
};

struct MultiCduSample {
  CoolingSample facility;           ///< the shared loop/tower sample
  double hottest_cdu_c = 0.0;
  double coldest_cdu_c = 0.0;
  double spread_c = 0.0;            ///< hottest - coldest (hot-spot indicator)
};

class MultiCduCoolingModel {
 public:
  /// Uses spec.num_cdus secondary loops; each gets spec.cdu_effectiveness
  /// and an equal share of the facility flow.
  explicit MultiCduCoolingModel(const CoolingSpec& spec);

  /// Resets facility and CDU loops to steady state at a uniform load.
  void Reset(double initial_it_heat_w);

  /// Advances one step.  `per_cdu_heat_w` distributes the IT heat across
  /// CDUs (size must equal num_cdus; values >= 0); conversion loss is
  /// spread uniformly.  Throws std::invalid_argument on size mismatch.
  MultiCduSample Step(const std::vector<double>& per_cdu_heat_w, double loss_w,
                      double dt_s);

  int num_cdus() const { return static_cast<int>(cdus_.size()); }
  const CoolingSpec& spec() const { return facility_.spec(); }
  /// The shared facility loop (snapshot fingerprints hash its thermal state).
  const CoolingModel& facility() const { return facility_; }
  /// Current per-CDU secondary-loop states (as of the last Step).
  const std::vector<CduState>& cdu_states() const { return cdus_; }

 private:
  CoolingModel facility_;
  std::vector<CduState> cdus_;
  double per_cdu_flow_kg_s_;
  double secondary_mass_j_per_k_;
};

/// Maps per-partition/per-node heat to CDUs by cabinet: node n belongs to
/// CDU (n / nodes_per_cabinet) % num_cdus.  Returns a num_cdus-sized vector.
std::vector<double> DistributeHeatByCabinet(const std::vector<double>& per_node_heat_w,
                                            int nodes_per_cabinet, int num_cdus);

}  // namespace sraps
