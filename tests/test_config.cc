// Unit tests for src/config: the system factory and derived quantities.
#include <gtest/gtest.h>

#include "config/system_config.h"

namespace sraps {
namespace {

TEST(SystemConfigTest, KnownSystemsAllConstruct) {
  for (const auto& name : KnownSystems()) {
    const SystemConfig c = MakeSystemConfig(name);
    EXPECT_EQ(c.name, name);
    EXPECT_GT(c.TotalNodes(), 0);
    EXPECT_GT(c.PeakItPowerW(), c.IdleItPowerW());
    EXPECT_GT(c.telemetry_interval, 0);
  }
}

TEST(SystemConfigTest, UnknownSystemThrows) {
  EXPECT_THROW(MakeSystemConfig("hal9000"), std::invalid_argument);
}

TEST(SystemConfigTest, Table1NodeCounts) {
  EXPECT_EQ(MakeSystemConfig("frontier").TotalNodes(), 9600);
  EXPECT_EQ(MakeSystemConfig("marconi100").TotalNodes(), 980);
  EXPECT_EQ(MakeSystemConfig("fugaku").TotalNodes(), 158976);
  EXPECT_EQ(MakeSystemConfig("lassen").TotalNodes(), 792);
  EXPECT_EQ(MakeSystemConfig("adastraMI250").TotalNodes(), 356);
}

TEST(SystemConfigTest, Table1Schedulers) {
  EXPECT_EQ(MakeSystemConfig("frontier").scheduler_name, "Slurm");
  EXPECT_EQ(MakeSystemConfig("fugaku").scheduler_name, "Fujitsu TCS");
  EXPECT_EQ(MakeSystemConfig("lassen").scheduler_name, "LSF");
}

TEST(SystemConfigTest, FrontierIsTheOnlyCoolingModelSystem) {
  // The paper only ships a cooling model for Frontier (plus our test box).
  EXPECT_TRUE(MakeSystemConfig("frontier").cooling.has_cooling_model);
  EXPECT_FALSE(MakeSystemConfig("marconi100").cooling.has_cooling_model);
  EXPECT_FALSE(MakeSystemConfig("adastraMI250").cooling.has_cooling_model);
}

TEST(SystemConfigTest, FrontierPeakPowerIsExascaleClass) {
  const SystemConfig c = MakeSystemConfig("frontier");
  // ~20-35 MW IT peak: the machine the paper's Fig. 6 plots at 10-25 MW.
  EXPECT_GT(c.PeakItPowerW(), 20e6);
  EXPECT_LT(c.PeakItPowerW(), 35e6);
}

TEST(SystemConfigTest, FugakuIsCpuOnly) {
  const SystemConfig c = MakeSystemConfig("fugaku");
  EXPECT_EQ(c.machines[0].node_power.gpus_per_node, 0);
}

TEST(NodePowerSpecTest, PeakExceedsIdle) {
  NodePowerSpec s;
  s.cpus_per_node = 2;
  s.gpus_per_node = 4;
  EXPECT_GT(s.PeakW(), s.IdleW());
}

TEST(NodePowerSpecTest, IdleIncludesStaticShares) {
  NodePowerSpec s;
  s.idle_w = 100;
  s.mem_w = 20;
  s.nic_w = 10;
  s.cpu_idle_w = 30;
  s.cpus_per_node = 2;
  s.gpus_per_node = 0;
  EXPECT_DOUBLE_EQ(s.IdleW(), 100 + 20 + 10 + 60);
}

TEST(SystemConfigTest, ClassOfMapsGlobalIds) {
  const SystemConfig c = MakeSystemConfig("mini");  // 8 cpu + 8 gpu nodes
  EXPECT_EQ(c.ClassOf(0), 0u);
  EXPECT_EQ(c.ClassOf(7), 0u);
  EXPECT_EQ(c.ClassOf(8), 1u);
  EXPECT_EQ(c.ClassOf(15), 1u);
  EXPECT_THROW(c.ClassOf(16), std::out_of_range);
  EXPECT_THROW(c.ClassOf(-1), std::out_of_range);
}

TEST(SystemConfigTest, NodeSpecFollowsPartition) {
  const SystemConfig c = MakeSystemConfig("mini");
  EXPECT_EQ(c.NodeSpec(0).gpus_per_node, 0);
  EXPECT_EQ(c.NodeSpec(8).gpus_per_node, 4);
}

TEST(SystemConfigTest, MiniHasTwoPartitions) {
  const SystemConfig c = MakeSystemConfig("mini");
  ASSERT_EQ(c.machines.size(), 2u);
  EXPECT_EQ(c.TotalNodes(), 16);
}

// --- machine classes with power states ------------------------------------------

MachineClassSpec LadderClass() {
  MachineClassSpec c;
  c.name = "cpu";
  c.num_nodes = 4;
  c.cores_per_node = 8;
  c.pstates = {{1.0, 1.0}, {0.8, 0.7}, {0.6, 0.45}};
  c.c_state = {true, 40.0, 30};
  c.s_state = {true, 6.0, 300};
  return c;
}

TEST(MachineClassTest, ImplicitSingleRungLadder) {
  MachineClassSpec c;
  c.name = "plain";
  c.num_nodes = 2;
  EXPECT_EQ(c.NumPStates(), 1);
  EXPECT_DOUBLE_EQ(c.PStateAt(0).freq_scale, 1.0);
  EXPECT_DOUBLE_EQ(c.PStateAt(0).power_scale, 1.0);
  EXPECT_FALSE(c.HasPowerStates());
  EXPECT_THROW(c.PStateAt(1), std::out_of_range);
  EXPECT_THROW(c.SleepPowerW(false), std::logic_error);
}

TEST(MachineClassTest, ScaledBusyPowerHandChecked) {
  const MachineClassSpec c = LadderClass();
  const double idle = c.node_power.IdleW();
  const double busy = idle + 100.0;
  // P0 returns the input bit-exactly (legacy-path identity).
  EXPECT_EQ(c.ScaledBusyPowerW(0, busy), busy);
  // Deeper rungs scale only the dynamic share: idle + power_scale * 100.
  EXPECT_DOUBLE_EQ(c.ScaledBusyPowerW(1, busy), idle + 0.7 * 100.0);
  EXPECT_DOUBLE_EQ(c.ScaledBusyPowerW(2, busy), idle + 0.45 * 100.0);
}

TEST(MachineClassTest, SleepStateAccessors) {
  const MachineClassSpec c = LadderClass();
  EXPECT_TRUE(c.HasPowerStates());
  EXPECT_DOUBLE_EQ(c.SleepPowerW(false), 40.0);
  EXPECT_DOUBLE_EQ(c.SleepPowerW(true), 6.0);
  EXPECT_EQ(c.WakeLatencyS(false), 30);
  EXPECT_EQ(c.WakeLatencyS(true), 300);
}

TEST(MachineClassTest, ValidationRejectsBadLadders) {
  MachineClassSpec c = LadderClass();
  c.pstates[0] = {0.9, 1.0};  // rung 0 must be exactly {1.0, 1.0}
  EXPECT_THROW(ValidateMachineClass(c, "test"), std::invalid_argument);
  c = LadderClass();
  c.pstates[2] = {0.6, 0.8};  // power_scale not strictly decreasing
  EXPECT_THROW(ValidateMachineClass(c, "test"), std::invalid_argument);
  c = LadderClass();
  c.pstates[1] = {1.2, 0.7};  // freq_scale outside (0, 1]
  EXPECT_THROW(ValidateMachineClass(c, "test"), std::invalid_argument);
  c = LadderClass();
  c.name = "";
  EXPECT_THROW(ValidateMachineClass(c, "test"), std::invalid_argument);
  c = LadderClass();
  c.num_nodes = -1;
  EXPECT_THROW(ValidateMachineClass(c, "test"), std::invalid_argument);
  EXPECT_NO_THROW(ValidateMachineClass(LadderClass(), "test"));
}

TEST(MachineClassTest, ValidationRejectsInconsistentSleepStates) {
  MachineClassSpec c = LadderClass();
  c.s_state.power_w = 80.0;  // deep sleep must draw <= the C state
  EXPECT_THROW(ValidateMachineClass(c, "test"), std::invalid_argument);
  c = LadderClass();
  c.c_state.power_w = c.node_power.IdleW() + 1.0;  // above active idle
  EXPECT_THROW(ValidateMachineClass(c, "test"), std::invalid_argument);
}

TEST(MachineClassTest, JsonRoundTripPreservesPowerStates) {
  const MachineClassSpec c = LadderClass();
  const MachineClassSpec back = MachineClassSpec::FromJson(c.ToJson());
  EXPECT_EQ(back.ToJson().Dump(2), c.ToJson().Dump(2));
  EXPECT_EQ(back.NumPStates(), 3);
  EXPECT_DOUBLE_EQ(back.PStateAt(2).power_scale, 0.45);
  EXPECT_TRUE(back.c_state.enabled);
  EXPECT_TRUE(back.s_state.enabled);
  EXPECT_EQ(back.WakeLatencyS(true), 300);
}

TEST(MachineClassTest, FactorySystemsWithPowerStatesValidate) {
  // frontier and mini ship P-state ladders and sleep states; they must pass
  // their own validation and report HasPowerStates.
  for (const char* name : {"frontier", "mini"}) {
    const SystemConfig c = MakeSystemConfig(name);
    bool any = false;
    for (const auto& cls : c.machines) {
      ValidateMachineClass(cls, name);
      any |= cls.HasPowerStates();
    }
    EXPECT_TRUE(any) << name;
  }
  // Legacy twins stay purely always-on: nothing to wake, nothing to clock.
  for (const char* name : {"marconi100", "fugaku", "lassen", "adastraMI250"}) {
    for (const auto& cls : MakeSystemConfig(name).machines) {
      EXPECT_FALSE(cls.HasPowerStates()) << name;
    }
  }
}

// Sweep: every system's conversion-loss parameters produce a sane loss
// fraction at peak load (between 1 % and 15 %).
class ConversionSanity : public ::testing::TestWithParam<std::string> {};

TEST_P(ConversionSanity, LossFractionAtPeakIsReasonable) {
  const SystemConfig c = MakeSystemConfig(GetParam());
  const double peak = c.PeakItPowerW();
  const double per_cab = peak / ((c.TotalNodes() + c.conversion.nodes_per_cabinet - 1) /
                                 c.conversion.nodes_per_cabinet);
  const double loss_per_cab = c.conversion.idle_loss_w +
                              c.conversion.linear_coeff * per_cab +
                              c.conversion.quadratic_coeff * per_cab * per_cab;
  const double frac = loss_per_cab / per_cab;
  EXPECT_GT(frac, 0.01) << GetParam();
  EXPECT_LT(frac, 0.15) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ConversionSanity,
                         ::testing::Values("frontier", "marconi100", "fugaku", "lassen",
                                           "adastraMI250", "mini"));

}  // namespace
}  // namespace sraps
