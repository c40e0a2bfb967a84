#include "cxl/cxl_switch.h"

namespace polarcxl::cxl {

CxlSwitch::CxlSwitch(std::string name, Options options)
    : name_(std::move(name)),
      opt_(options),
      fabric_channel_(name_ + ".fabric",
                      sim::BandwidthModel{}.cxl_switch_bps) {
  POLAR_CHECK(opt_.lanes_per_port > 0 &&
              opt_.lanes_per_port <= kTotalLanes);
}

Result<uint32_t> CxlSwitch::BindPort(PortKind kind) {
  if (num_ports() >= max_ports()) {
    return Status::OutOfMemory(
        "switch '" + name_ + "' has no free ports: " +
        std::to_string(lanes_in_use()) + "/" +
        std::to_string(kTotalLanes) + " lanes in use (" +
        std::to_string(ports_bound(PortKind::kHost)) + " host + " +
        std::to_string(ports_bound(PortKind::kDevice)) + " device ports x " +
        std::to_string(opt_.lanes_per_port) + " lanes)");
  }
  const uint32_t idx = num_ports();
  Port port;
  port.kind = kind;
  // x16 is the model's host link; narrower ports scale down exactly.
  const uint64_t width_bps =
      sim::BandwidthModel{}.cxl_host_link_bps * opt_.lanes_per_port / 16;
  const uint64_t bps = kind == PortKind::kDevice && opt_.device_port_bps > 0
                           ? opt_.device_port_bps
                           : width_bps;
  port.channel = std::make_unique<sim::BandwidthChannel>(
      name_ + ".port" + std::to_string(idx), bps);
  ports_.push_back(std::move(port));
  return idx;
}

}  // namespace polarcxl::cxl
