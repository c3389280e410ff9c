// Unit tests for src/cooling: steady state, transients, PUE, and stability
// of the lumped thermo-fluid model, and its identity with the one-CDU loop.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "config/system_config.h"
#include "cooling/cooling_model.h"
#include "cooling/multi_cdu.h"

namespace sraps {
namespace {

CoolingSpec FrontierCooling() { return MakeSystemConfig("frontier").cooling; }

TEST(CoolingTest, ConstructionValidation) {
  CoolingSpec s = FrontierCooling();
  s.loop_flow_kg_s = 0;
  EXPECT_THROW(CoolingModel m(s), std::invalid_argument);
  s = FrontierCooling();
  s.thermal_mass_j_per_k = 0;
  EXPECT_THROW(CoolingModel m(s), std::invalid_argument);
}

TEST(CoolingTest, SupplyBelowWetbulbRejected) {
  CoolingSpec s = FrontierCooling();
  s.wetbulb_c = 80.0;  // tower sink hotter than the design hot side
  EXPECT_THROW(CoolingModel m(s), std::invalid_argument);
}

TEST(CoolingTest, SteadyStateAtDesignLoad) {
  const CoolingSpec spec = FrontierCooling();
  CoolingModel m(spec);
  const double design_w = spec.design_it_load_kw * 1000.0;
  m.Reset(design_w);
  CoolingSample s{};
  for (int i = 0; i < 500; ++i) s = m.Step(design_w, 0.0, 60.0);
  // At design load with full fans the loop holds its design hot temperature.
  const double expected_hot =
      spec.supply_temp_c + design_w / (spec.loop_flow_kg_s * 4186.0);
  EXPECT_NEAR(s.tower_return_temp_c, expected_hot, 0.5);
  EXPECT_NEAR(s.heat_rejected_w, design_w, design_w * 0.02);
}

TEST(CoolingTest, ResetReachesSteadyStateImmediately) {
  const CoolingSpec spec = FrontierCooling();
  CoolingModel m(spec);
  const double load = spec.design_it_load_kw * 500.0;  // half load
  m.Reset(load);
  const double t0 = m.loop_temp_c();
  m.Step(load, 0.0, 60.0);
  EXPECT_NEAR(m.loop_temp_c(), t0, 0.05);  // already in equilibrium
}

TEST(CoolingTest, LoadStepRaisesTemperatureWithLag) {
  const CoolingSpec spec = FrontierCooling();
  CoolingModel m(spec);
  const double low = spec.design_it_load_kw * 300.0;
  const double high = spec.design_it_load_kw * 900.0;
  m.Reset(low);
  const double t_before = m.loop_temp_c();
  // One minute after a 3x load step the loop has moved, but not to the new
  // equilibrium (thermal mass lag).
  m.Step(high, 0.0, 60.0);
  const double t_1min = m.loop_temp_c();
  for (int i = 0; i < 2000; ++i) m.Step(high, 0.0, 60.0);
  const double t_final = m.loop_temp_c();
  EXPECT_GT(t_1min, t_before);
  EXPECT_GT(t_final, t_1min + 0.1);
}

TEST(CoolingTest, PueAboveOneAndReasonable) {
  const CoolingSpec spec = FrontierCooling();
  CoolingModel m(spec);
  const double it = spec.design_it_load_kw * 1000.0 * 0.8;
  const double loss = it * 0.05;
  m.Reset(it + loss);
  CoolingSample s{};
  for (int i = 0; i < 100; ++i) s = m.Step(it, loss, 60.0);
  EXPECT_GT(s.pue, 1.0);
  EXPECT_LT(s.pue, 1.3);  // liquid-cooled exascale PUE is ~1.06-1.2
}

TEST(CoolingTest, ZeroItLoadDoesNotDivide) {
  CoolingModel m(FrontierCooling());
  const CoolingSample s = m.Step(0.0, 0.0, 60.0);
  EXPECT_DOUBLE_EQ(s.pue, 1.0);  // undefined PUE reported as 1
}

TEST(CoolingTest, InvalidDtThrows) {
  CoolingModel m(FrontierCooling());
  EXPECT_THROW(m.Step(1e6, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(m.Step(1e6, 0, -1.0), std::invalid_argument);
}

TEST(CoolingTest, TemperatureOrderingSupplyBelowReturn) {
  const CoolingSpec spec = FrontierCooling();
  CoolingModel m(spec);
  const double it = spec.design_it_load_kw * 1000.0 * 0.7;
  m.Reset(it);
  const CoolingSample s = m.Step(it, 0.0, 60.0);
  EXPECT_LT(s.supply_temp_c, s.tower_return_temp_c);
  EXPECT_GT(s.cdu_return_temp_c, s.supply_temp_c);
  EXPECT_GT(s.tower_return_temp_c, spec.wetbulb_c);
}

TEST(CoolingTest, CoolingPowerScalesWithLoad) {
  const CoolingSpec spec = FrontierCooling();
  CoolingModel low_model(spec), high_model(spec);
  const double low = spec.design_it_load_kw * 200.0;
  const double high = spec.design_it_load_kw * 1000.0;
  low_model.Reset(low);
  high_model.Reset(high);
  const double p_low = low_model.Step(low, 0, 60.0).cooling_power_w;
  const double p_high = high_model.Step(high, 0, 60.0).cooling_power_w;
  EXPECT_GT(p_high, p_low);
  // Cube-law fans: 5x load >> 5x power ratio at the top end.
  EXPECT_GT(p_high / p_low, 5.0);
}

TEST(CoolingTest, StableUnderLongTicks) {
  // Explicit Euler with internal sub-stepping must not oscillate/diverge
  // even when the engine tick is much longer than the loop time constant.
  const CoolingSpec spec = MakeSystemConfig("mini").cooling;
  CoolingModel m(spec);
  const double it = spec.design_it_load_kw * 1000.0;
  m.Reset(it * 0.1);
  double prev = m.loop_temp_c();
  bool monotone = true;
  for (int i = 0; i < 50; ++i) {
    m.Step(it, 0.0, 3600.0);  // 1 h ticks
    if (m.loop_temp_c() < prev - 0.5) monotone = false;
    prev = m.loop_temp_c();
  }
  EXPECT_TRUE(monotone) << "temperature oscillated under long ticks";
  EXPECT_LT(m.loop_temp_c(), 100.0) << "diverged";
}

TEST(CoolingTest, LumpedLoopEqualsOneCduFacilityBitwise) {
  // Without a thermal topology the engine couples cooling as the per-CDU
  // model with one CDU fed the whole IT draw; its facility sample must be
  // the lumped model's, bit for bit, at every step.
  constexpr double CoolingSample::*kFields[] = {
      &CoolingSample::tower_return_temp_c, &CoolingSample::supply_temp_c,
      &CoolingSample::cdu_return_temp_c,   &CoolingSample::pump_power_w,
      &CoolingSample::fan_power_w,         &CoolingSample::cooling_power_w,
      &CoolingSample::heat_rejected_w,     &CoolingSample::pue};
  for (const std::string system : {"frontier", "mini"}) {
    for (const double dt : {1.0, 15.0}) {
      const CoolingSpec spec = MakeSystemConfig(system).cooling;
      CoolingSpec one = spec;
      one.num_cdus = 1;
      CoolingModel lumped(spec);
      MultiCduCoolingModel cdu(one);
      const double design_w = spec.design_it_load_kw * 1000.0;
      std::mt19937_64 rng(7);
      std::uniform_real_distribution<double> load(0.0, 1.2);
      for (int i = 0; i < 12000; ++i) {
        // Idle stretches (zero IT load, zero and non-zero loss) between
        // random loads, so both the floor and the transient paths run.
        const bool zero = (i / 500) % 4 == 1;
        const double it = zero ? 0.0 : design_w * load(rng);
        const double loss = i % 3 == 0 ? 0.0 : 0.03 * it + 200.0;
        const CoolingSample a = lumped.Step(it, loss, dt);
        const CoolingSample b = cdu.Step({it}, loss, dt).facility;
        for (const auto field : kFields) {
          ASSERT_EQ(std::memcmp(&(a.*field), &(b.*field), sizeof(double)), 0)
              << system << " dt=" << dt << " step " << i;
        }
        const double ta = lumped.loop_temp_c();
        const double tb = cdu.facility().loop_temp_c();
        ASSERT_EQ(std::memcmp(&ta, &tb, sizeof ta), 0) << system << " step " << i;
      }
    }
  }
}

// Property sweep: steady-state loop temperature rises monotonically in load.
class SteadyStateMonotone : public ::testing::TestWithParam<double> {};

TEST_P(SteadyStateMonotone, HotterUnderMoreLoad) {
  const CoolingSpec spec = FrontierCooling();
  const double frac = GetParam();
  CoolingModel a(spec), b(spec);
  const double design = spec.design_it_load_kw * 1000.0;
  a.Reset(design * frac);
  b.Reset(design * (frac + 0.2));
  EXPECT_LT(a.loop_temp_c(), b.loop_temp_c() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(LoadLevels, SteadyStateMonotone,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7));

}  // namespace
}  // namespace sraps
