#include "core/design.hpp"

#include <gtest/gtest.h>

namespace quartz::core {
namespace {

TEST(Design, PaperFlagship33Switch) {
  DesignParams params;  // 33 switches x 32 server ports on 64-port ULLs
  const QuartzDesign design = plan_design(params);
  ASSERT_TRUE(design.feasible) << design.infeasible_reason;
  EXPECT_EQ(design.total_server_ports, 1056);  // §3.2's 32 x 33
  EXPECT_EQ(design.transceivers_per_switch, 32);
  EXPECT_EQ(design.physical_rings, 2);  // ~137 channels need two muxes
  EXPECT_EQ(design.muxes_per_switch, 2);
  EXPECT_TRUE(design.amplifiers.feasible);
  EXPECT_NEAR(design.oversubscription(), 1.0, 1e-9);
}

TEST(Design, SmallRingSingleMux) {
  DesignParams params;
  params.switches = 8;
  params.server_ports_per_switch = 32;
  const QuartzDesign design = plan_design(params);
  ASSERT_TRUE(design.feasible);
  EXPECT_EQ(design.physical_rings, 1);
  EXPECT_EQ(design.transceivers_per_switch, 7);
}

TEST(Design, PortBudgetEnforced) {
  DesignParams params;
  params.switches = 33;
  params.server_ports_per_switch = 40;  // 40 + 32 > 64
  const QuartzDesign design = plan_design(params);
  EXPECT_FALSE(design.feasible);
  EXPECT_NE(design.infeasible_reason.find("ports"), std::string::npos);
}

TEST(Design, RedundantRingsAdded) {
  DesignParams params;
  params.switches = 33;
  params.redundant_rings = 2;
  const QuartzDesign design = plan_design(params);
  ASSERT_TRUE(design.feasible);
  EXPECT_EQ(design.physical_rings, 4);
  EXPECT_EQ(design.muxes_per_switch, 4);
}

TEST(Design, RingSizeCapEnforced) {
  DesignParams params;
  params.switches = 65;
  params.server_ports_per_switch = 1;
  params.switch_model.port_count = 128;
  const QuartzDesign design = plan_design(params);
  EXPECT_FALSE(design.feasible);
}

TEST(Design, TinyRingRejected) {
  DesignParams params;
  params.switches = 1;
  EXPECT_FALSE(plan_design(params).feasible);
}

TEST(Design, OversubscriptionDial) {
  // §3: n:k sets the server-to-switch ratio.
  DesignParams params;
  params.switches = 9;       // k = 8
  params.server_ports_per_switch = 48;
  params.switch_model.port_count = 64;
  const QuartzDesign design = plan_design(params);
  ASSERT_TRUE(design.feasible);
  EXPECT_NEAR(design.oversubscription(), 6.0, 1e-9);
}

TEST(Design, ChannelsVerifyAgainstPlan) {
  DesignParams params;
  params.switches = 12;
  params.server_ports_per_switch = 32;
  const QuartzDesign design = plan_design(params);
  ASSERT_TRUE(design.feasible);
  std::string error;
  EXPECT_TRUE(wavelength::verify(design.channels, &error)) << error;
}

TEST(Scalability, PaperNumbers) {
  // §3.2: 64-port switches -> 1056 single-ToR ports.
  EXPECT_EQ(max_single_tor_ports(64), 1056);
  // If cut-through port counts grow, Quartz scales quadratically.
  EXPECT_EQ(max_single_tor_ports(128), 64 * 65);
  EXPECT_THROW(max_single_tor_ports(1), std::invalid_argument);
}

}  // namespace
}  // namespace quartz::core
