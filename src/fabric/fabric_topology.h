// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Multi-switch CXL fabric graph: CxlSwitch vertices joined by
// switch-to-switch uplink BandwidthChannels. Routing is deterministic
// shortest-path (BFS, lowest-switch-index tie-break), fixed at construction.
// A route from a host's home switch to a device's switch charges every
// crossed uplink and every *entered* switch's fabric channel (the home
// switch's own port + fabric channels are the accessor's link/pool pair and
// are charged by MemorySpace as before), and adds per-hop latency: the
// uplink's propagation delay plus the entered switch's traversal latency.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/types.h"
#include "cxl/cxl_switch.h"
#include "sim/bandwidth_channel.h"
#include "sim/route.h"

namespace polarcxl::fabric {

/// Construction-time description of a fabric graph.
struct TopologySpec {
  struct SwitchSpec {
    std::string name;
    cxl::CxlSwitch::Options options;
  };
  /// An x16 CXL 2.0 inter-switch link. Every uplink adds
  /// sim::LatencyModel::kCxlUplinkHop per crossed hop.
  struct UplinkSpec {
    uint32_t a = 0;
    uint32_t b = 0;
    uint64_t bps = sim::BandwidthModel{}.cxl_host_link_bps;
  };

  std::vector<SwitchSpec> switches;
  std::vector<UplinkSpec> uplinks;

  bool empty() const { return switches.empty(); }

  /// n switches in a cycle (sw i <-> sw (i+1)%n); n == 1 has no uplinks,
  /// n == 2 a single one.
  static TopologySpec Ring(
      uint32_t n, cxl::CxlSwitch::Options options = {},
      uint64_t uplink_bps = sim::BandwidthModel{}.cxl_host_link_bps);
  /// n switches in a line (sw i <-> sw i+1).
  static TopologySpec Chain(
      uint32_t n, cxl::CxlSwitch::Options options = {},
      uint64_t uplink_bps = sim::BandwidthModel{}.cxl_host_link_bps);
};

/// The instantiated graph plus the all-pairs route table. Owns the switches
/// and the uplink channels; routes are immutable after construction.
class FabricTopology {
 public:
  explicit FabricTopology(const TopologySpec& spec);
  POLAR_DISALLOW_COPY(FabricTopology);

  uint32_t num_switches() const {
    return static_cast<uint32_t>(switches_.size());
  }
  cxl::CxlSwitch& sw(uint32_t i) {
    POLAR_CHECK(i < switches_.size());
    return *switches_[i];
  }
  const cxl::CxlSwitch& sw(uint32_t i) const {
    POLAR_CHECK(i < switches_.size());
    return *switches_[i];
  }
  size_t num_uplinks() const { return uplinks_.size(); }
  sim::BandwidthChannel* uplink(size_t i) {
    POLAR_CHECK(i < uplinks_.size());
    return uplinks_[i].channel.get();
  }

  /// Shortest-path hop count between switches (0 when src == dst).
  uint32_t hops(uint32_t src, uint32_t dst) const {
    return RouteFor(src, dst).hops;
  }
  /// The switch sequence of the chosen route, src first, dst last
  /// (diagnostics / routing oracles in tests).
  std::vector<uint32_t> Path(uint32_t src, uint32_t dst) const;
  /// Appends the route's channels (crossed uplinks + entered switches'
  /// fabric channels, in path order) and extra latency to `out`.
  void AppendRouteCost(uint32_t src, uint32_t dst,
                       sim::RouteCost* out) const;

 private:
  struct Uplink {
    uint32_t a;
    uint32_t b;
    std::unique_ptr<sim::BandwidthChannel> channel;
  };
  struct Route {
    uint32_t hops = 0;
    Nanos extra_latency = 0;
    std::vector<uint32_t> path;  // switch sequence incl. src and dst
    std::vector<sim::BandwidthChannel*> channels;
  };

  const Route& RouteFor(uint32_t src, uint32_t dst) const {
    POLAR_CHECK(src < switches_.size() && dst < switches_.size());
    return routes_[static_cast<size_t>(src) * switches_.size() + dst];
  }

  std::vector<std::unique_ptr<cxl::CxlSwitch>> switches_;
  std::vector<Uplink> uplinks_;
  std::vector<Route> routes_;  // [src * n + dst]
};

}  // namespace polarcxl::fabric
