#include "optical/grid.hpp"

#include "common/check.hpp"

namespace quartz::optical {
namespace {

constexpr double kSpeedOfLightNmGhz = 299'792'458.0;  // c in nm*GHz

}  // namespace

WavelengthGrid WavelengthGrid::dwdm(std::size_t channels, GridKind kind) {
  QUARTZ_REQUIRE(kind == GridKind::kDwdm100GHz || kind == GridKind::kDwdm50GHz,
                 "dwdm() requires a DWDM grid kind");
  const double spacing = kind == GridKind::kDwdm100GHz ? 100.0 : 50.0;
  const std::size_t max = kind == GridKind::kDwdm100GHz ? 80 : 160;
  QUARTZ_REQUIRE(channels >= 1 && channels <= max, "channel count outside grid capacity");

  std::vector<Channel> out;
  out.reserve(channels);
  for (std::size_t i = 0; i < channels; ++i) {
    // ITU anchor 193.1 THz, counting upward in frequency.
    const double freq_ghz = 193'100.0 + spacing * static_cast<double>(i);
    out.push_back(Channel{static_cast<int>(i), kSpeedOfLightNmGhz / freq_ghz, spacing});
  }
  return WavelengthGrid(kind, std::move(out));
}

WavelengthGrid WavelengthGrid::cwdm(std::size_t channels) {
  QUARTZ_REQUIRE(channels >= 1 && channels <= 18, "CWDM supports at most 18 channels");
  std::vector<Channel> out;
  out.reserve(channels);
  for (std::size_t i = 0; i < channels; ++i) {
    out.push_back(Channel{static_cast<int>(i), 1271.0 + 20.0 * static_cast<double>(i), 0.0});
  }
  return WavelengthGrid(GridKind::kCwdm, std::move(out));
}

const Channel& WavelengthGrid::channel(std::size_t i) const {
  QUARTZ_REQUIRE(i < channels_.size(), "channel index out of range");
  return channels_[i];
}

}  // namespace quartz::optical
