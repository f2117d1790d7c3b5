#include "wavelength/multiring.hpp"

#include <algorithm>

namespace quartz::wavelength {

int rings_required(int channels_used, int channels_per_mux) {
  QUARTZ_REQUIRE(channels_used >= 0, "negative channel count");
  QUARTZ_REQUIRE(channels_per_mux >= 1, "mux must carry at least one channel");
  if (channels_used == 0) return 0;
  return (channels_used + channels_per_mux - 1) / channels_per_mux;
}

int ring_for_channel(int channel, int physical_rings) {
  QUARTZ_REQUIRE(channel >= 0, "negative channel");
  QUARTZ_REQUIRE(physical_rings >= 1, "need at least one physical ring");
  return channel % physical_rings;
}

}  // namespace quartz::wavelength
