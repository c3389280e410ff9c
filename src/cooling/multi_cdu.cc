#include "cooling/multi_cdu.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sraps {
namespace {

constexpr double kCpWater = 4186.0;

}  // namespace

MultiCduCoolingModel::MultiCduCoolingModel(const CoolingSpec& spec) : facility_(spec) {
  if (spec.num_cdus <= 0) throw std::invalid_argument("MultiCduCoolingModel: no CDUs");
  cdus_.resize(spec.num_cdus);
  per_cdu_flow_kg_s_ = spec.loop_flow_kg_s / spec.num_cdus;
  // Secondary loops are small relative to the facility loop: a fixed 2 %
  // share of the facility thermal mass per CDU gives second-scale response.
  secondary_mass_j_per_k_ = spec.thermal_mass_j_per_k * 0.02;
  Reset(spec.design_it_load_kw * 500.0);  // half load, as the facility model
}

void MultiCduCoolingModel::Reset(double initial_it_heat_w) {
  facility_.Reset(initial_it_heat_w);
  const double per_cdu = std::max(0.0, initial_it_heat_w) / cdus_.size();
  for (auto& cdu : cdus_) {
    cdu.heat_w = per_cdu;
    // Steady state: return = supply + Q/(eps * m cp).
    cdu.return_temp_c = facility_.spec().supply_temp_c +
                        per_cdu / (facility_.spec().cdu_effectiveness *
                                   per_cdu_flow_kg_s_ * kCpWater);
  }
}

MultiCduSample MultiCduCoolingModel::Step(const std::vector<double>& per_cdu_heat_w,
                                          double loss_w, double dt_s) {
  if (per_cdu_heat_w.size() != cdus_.size()) {
    throw std::invalid_argument("MultiCduCoolingModel: expected " +
                                std::to_string(cdus_.size()) + " CDU heat values");
  }
  double total_heat = 0.0;
  for (double h : per_cdu_heat_w) {
    if (h < 0.0) throw std::invalid_argument("MultiCduCoolingModel: negative heat");
    total_heat += h;
  }

  MultiCduSample sample;
  sample.facility = facility_.Step(total_heat, loss_w, dt_s);

  // Each CDU's secondary loop relaxes toward its own steady-state return
  // temperature (supply + Q/(eps m cp)) with a first-order lag.
  const double supply = sample.facility.supply_temp_c;
  const double eps = facility_.spec().cdu_effectiveness;
  double hot = -1e300, cold = 1e300;
  for (std::size_t i = 0; i < cdus_.size(); ++i) {
    CduState& cdu = cdus_[i];
    cdu.heat_w = per_cdu_heat_w[i];
    const double target =
        supply + cdu.heat_w / (eps * per_cdu_flow_kg_s_ * kCpWater);
    // tau = C_secondary / (m cp): the loop's water turnover time constant.
    const double tau = secondary_mass_j_per_k_ / (per_cdu_flow_kg_s_ * kCpWater);
    const double alpha = 1.0 - std::exp(-dt_s / tau);
    cdu.return_temp_c += alpha * (target - cdu.return_temp_c);
    hot = std::max(hot, cdu.return_temp_c);
    cold = std::min(cold, cdu.return_temp_c);
  }
  sample.hottest_cdu_c = hot;
  sample.coldest_cdu_c = cold;
  sample.spread_c = hot - cold;
  return sample;
}

std::vector<double> DistributeHeatByCabinet(const std::vector<double>& per_node_heat_w,
                                            int nodes_per_cabinet, int num_cdus) {
  if (nodes_per_cabinet <= 0 || num_cdus <= 0) {
    throw std::invalid_argument("DistributeHeatByCabinet: bad parameters");
  }
  std::vector<double> per_cdu(num_cdus, 0.0);
  for (std::size_t n = 0; n < per_node_heat_w.size(); ++n) {
    const int cabinet = static_cast<int>(n) / nodes_per_cabinet;
    per_cdu[cabinet % num_cdus] += per_node_heat_w[n];
  }
  return per_cdu;
}

}  // namespace sraps
