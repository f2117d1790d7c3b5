#include "core/design.hpp"

#include "common/check.hpp"
#include "wavelength/multiring.hpp"

namespace quartz::core {

double QuartzDesign::oversubscription() const {
  if (transceivers_per_switch == 0) return 0.0;
  return static_cast<double>(params.server_ports_per_switch) /
         static_cast<double>(transceivers_per_switch);
}

QuartzDesign plan_design(const DesignParams& params) {
  QuartzDesign design;
  design.params = params;

  auto reject = [&](std::string reason) {
    design.feasible = false;
    design.infeasible_reason = std::move(reason);
    return design;
  };

  if (params.switches < 2) return reject("a Quartz ring needs at least two switches");
  if (params.switches > wavelength::kMaxRingSize) {
    return reject("ring size exceeds the supported maximum (" +
                  std::to_string(wavelength::kMaxRingSize) + ")");
  }
  if (params.server_ports_per_switch < 1) return reject("no server ports per switch");

  const int k = params.switches - 1;
  const int ports_needed = params.server_ports_per_switch + k;
  if (ports_needed > params.switch_model.port_count) {
    return reject("switch needs " + std::to_string(ports_needed) + " ports but has " +
                  std::to_string(params.switch_model.port_count));
  }

  design.channels = wavelength::greedy_assign(params.switches);
  const int min_rings =
      wavelength::rings_required(design.channels.channels_used, params.channels_per_mux);
  design.physical_rings = min_rings + params.redundant_rings;
  if (design.channels.channels_used > params.channels_per_fiber * design.physical_rings) {
    return reject("channel plan exceeds fiber capacity even across rings");
  }

  design.transceivers_per_switch = k;
  design.muxes_per_switch = design.physical_rings;
  design.total_server_ports = params.switches * params.server_ports_per_switch;

  optical::RingBudgetParams budget;
  budget.ring_size = static_cast<std::size_t>(params.switches);
  budget.transceiver = params.transceiver;
  budget.mux = params.mux;
  budget.amplifier = params.amplifier;
  budget.hop_length_km = params.hop_length_km;
  design.amplifiers = optical::plan_ring_amplifiers(budget);
  if (!design.amplifiers.feasible) {
    return reject("no amplifier placement satisfies the optical power budget");
  }

  design.feasible = true;
  return design;
}

int max_single_tor_ports(int switch_ports) {
  QUARTZ_REQUIRE(switch_ports >= 2, "switch needs at least two ports");
  const int half = switch_ports / 2;
  return half * (half + 1);
}

}  // namespace quartz::core
