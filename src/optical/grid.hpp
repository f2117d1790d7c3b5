// Wavelength grids for WDM channel plans.
//
// Quartz rings use either DWDM (dense, 100/50 GHz ITU-T G.694.1 grid in
// the C band; the paper's 80-channel muxes and the 160-channel fiber
// limit) or CWDM (coarse, 20 nm spacing, G.694.2; the 4-channel
// prototype in §6 uses 1470/1490/1510 nm CWDM SFPs).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace quartz::optical {

/// One wavelength channel in a grid.
struct Channel {
  int index = 0;            ///< zero-based index within the grid
  double wavelength_nm = 0; ///< centre wavelength
  double spacing_ghz = 0;   ///< grid spacing

  friend bool operator==(const Channel&, const Channel&) = default;
};

enum class GridKind { kDwdm100GHz, kDwdm50GHz, kCwdm };

/// An ordered set of channels a mux/demux or fiber can carry.
class WavelengthGrid {
 public:
  /// ITU-T C-band DWDM grid anchored at 193.1 THz. `channels` up to 80
  /// for 100 GHz spacing or 160 for 50 GHz.
  static WavelengthGrid dwdm(std::size_t channels, GridKind kind = GridKind::kDwdm100GHz);

  /// CWDM grid from 1271 nm, 20 nm spacing, up to 18 channels.
  static WavelengthGrid cwdm(std::size_t channels);

  GridKind kind() const { return kind_; }
  std::size_t size() const { return channels_.size(); }
  const Channel& channel(std::size_t i) const;
  const std::vector<Channel>& channels() const { return channels_; }

 private:
  WavelengthGrid(GridKind kind, std::vector<Channel> channels)
      : kind_(kind), channels_(std::move(channels)) {}

  GridKind kind_;
  std::vector<Channel> channels_;
};

/// Channels a single fiber can carry at 10 Gb/s per the paper (§3.1):
/// "current technology can only multiplex 160 channels in an optical
/// fiber".
inline constexpr std::size_t kMaxChannelsPerFiber = 160;

/// Channels a commodity mux/demux supports (§3.1): "commodity
/// Wavelength Division Multiplexers can only support about 80 channels".
inline constexpr std::size_t kMaxChannelsPerMux = 80;

}  // namespace quartz::optical
