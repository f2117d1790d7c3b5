#include "optical/grid.hpp"

#include <gtest/gtest.h>

namespace quartz::optical {
namespace {

TEST(Grid, Dwdm100GHzChannels) {
  const auto grid = WavelengthGrid::dwdm(80);
  EXPECT_EQ(grid.size(), 80u);
  EXPECT_EQ(grid.kind(), GridKind::kDwdm100GHz);
  // Anchor 193.1 THz ~ 1552.52 nm.
  EXPECT_NEAR(grid.channel(0).wavelength_nm, 1552.52, 0.01);
  // Channels ascend in frequency so descend in wavelength.
  EXPECT_GT(grid.channel(0).wavelength_nm, grid.channel(79).wavelength_nm);
}

TEST(Grid, Dwdm50GHzAllows160) {
  const auto grid = WavelengthGrid::dwdm(160, GridKind::kDwdm50GHz);
  EXPECT_EQ(grid.size(), 160u);
  EXPECT_DOUBLE_EQ(grid.channel(5).spacing_ghz, 50.0);
}

TEST(Grid, DwdmCapacityEnforced) {
  EXPECT_THROW(WavelengthGrid::dwdm(81), std::invalid_argument);
  EXPECT_THROW(WavelengthGrid::dwdm(161, GridKind::kDwdm50GHz), std::invalid_argument);
  EXPECT_THROW(WavelengthGrid::dwdm(0), std::invalid_argument);
}

TEST(Grid, CwdmWavelengths) {
  const auto grid = WavelengthGrid::cwdm(18);
  EXPECT_EQ(grid.size(), 18u);
  EXPECT_DOUBLE_EQ(grid.channel(0).wavelength_nm, 1271.0);
  // The prototype's 1470/1490/1510 nm bands are channels 10-12.
  EXPECT_DOUBLE_EQ(grid.channel(10).wavelength_nm, 1471.0);
  EXPECT_DOUBLE_EQ(grid.channel(11).wavelength_nm, 1491.0);
  EXPECT_DOUBLE_EQ(grid.channel(12).wavelength_nm, 1511.0);
}

TEST(Grid, CwdmCapacityEnforced) {
  EXPECT_THROW(WavelengthGrid::cwdm(19), std::invalid_argument);
}

TEST(Grid, ChannelIndexBounds) {
  const auto grid = WavelengthGrid::cwdm(4);
  EXPECT_THROW(grid.channel(4), std::invalid_argument);
}

TEST(Grid, PaperCapacityConstants) {
  // §3.1: 160 channels per fiber, ~80 per commodity mux.
  EXPECT_EQ(kMaxChannelsPerFiber, 160u);
  EXPECT_EQ(kMaxChannelsPerMux, 80u);
}

}  // namespace
}  // namespace quartz::optical
