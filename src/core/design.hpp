// End-to-end Quartz ring design (§3): given switch hardware and a
// target scale, produce a validated design — switch count, channel
// plan, number of physical fiber rings, amplifier plan and port math.
#pragma once

#include <string>

#include "optical/budget.hpp"
#include "optical/grid.hpp"
#include "topo/switch_models.hpp"
#include "wavelength/assign.hpp"

namespace quartz::core {

struct DesignParams {
  /// Switches in the ring (M); each pair gets a dedicated channel.
  int switches = 33;
  /// Server-facing ports per switch (n); k = M-1 transceivers serve the
  /// mesh.
  int server_ports_per_switch = 32;
  topo::SwitchModel switch_model = topo::SwitchModel::ull();
  int channels_per_mux = static_cast<int>(optical::kMaxChannelsPerMux);
  int channels_per_fiber = static_cast<int>(optical::kMaxChannelsPerFiber);
  /// Extra parallel fiber rings beyond the minimum, for fault tolerance
  /// (§3.5).
  int redundant_rings = 0;
  optical::TransceiverSpec transceiver = optical::TransceiverSpec::dwdm_10g();
  optical::MuxDemuxSpec mux = optical::MuxDemuxSpec::dwdm_80ch();
  optical::AmplifierSpec amplifier = optical::AmplifierSpec::edfa_80ch();
  double hop_length_km = 0.1;
};

struct QuartzDesign {
  bool feasible = false;
  std::string infeasible_reason;

  DesignParams params;
  wavelength::Assignment channels;
  int physical_rings = 0;           ///< rings actually deployed
  int transceivers_per_switch = 0;  ///< k = M-1
  int muxes_per_switch = 0;         ///< one per physical ring
  optical::AmplifierPlan amplifiers;  ///< per physical ring
  int total_server_ports = 0;       ///< M * n

  /// Ratio of server ports to mesh ports (the §3 n:k oversubscription
  /// dial).
  double oversubscription() const;
};

/// Plan and validate a design; on infeasibility the reason names the
/// violated constraint (port budget, mesh-size cap, channel capacity).
QuartzDesign plan_design(const DesignParams& params);

// --- §3.2 scalability arithmetic -------------------------------------------

/// Server ports of the largest single-ToR Quartz mesh built from
/// switches with `switch_ports` ports, splitting ports evenly:
/// (p/2) * (p/2 + 1); 1056 for 64-port switches.
int max_single_tor_ports(int switch_ports);

}  // namespace quartz::core
