// Copyright 2026 The PolarCXLMem Reproduction Authors.
// CXL 2.0 switch model (XConn XC50256-style): port bookkeeping plus the
// shared switching-capacity channel all traffic through the switch rides on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/bandwidth_channel.h"
#include "sim/latency_model.h"

namespace polarcxl::cxl {

/// Port and capacity model of one CXL switch. The XC50256 supports 256
/// lanes; with x16 links that is 16 ports shared between hosts and memory
/// devices, and sim::BandwidthModel::cxl_switch_bps (2 TB/s) of total
/// switching capacity.
class CxlSwitch {
 public:
  static constexpr uint32_t kTotalLanes = 256;

  struct Options {
    /// Port width. A port's usable bandwidth scales with its lanes from the
    /// model's x16 host link (sim::BandwidthModel::cxl_host_link_bps).
    uint32_t lanes_per_port = 16;
    /// Device-port bandwidth when memory devices attach with narrower links
    /// than hosts (x8/x4 expanders, or oversubscribed rack trunks). 0 keeps
    /// device ports at the port width's bandwidth.
    uint64_t device_port_bps = 0;
    /// Extra one-way latency the switch adds to a line access. Table 1:
    /// 549 ns (switch) - 265 ns (direct) = 284 ns.
    Nanos traversal_latency = sim::LineLatency{}.cxl_switch_local -
                              sim::LineLatency{}.cxl_direct_local;
  };

  explicit CxlSwitch(std::string name) : CxlSwitch(std::move(name), Options()) {}
  CxlSwitch(std::string name, Options options);
  POLAR_DISALLOW_COPY(CxlSwitch);

  enum class PortKind { kHost, kDevice };

  /// Binds the next free port. Returns the port index, or an error when all
  /// lanes are in use.
  Result<uint32_t> BindPort(PortKind kind);

  /// Per-port link channel (each port has its own lanes).
  sim::BandwidthChannel* port_channel(uint32_t port) {
    POLAR_CHECK(port < ports_.size());
    return ports_[port].channel.get();
  }
  /// The shared switching fabric channel.
  sim::BandwidthChannel* fabric_channel() { return &fabric_channel_; }

  Nanos traversal_latency() const { return opt_.traversal_latency; }
  uint32_t num_ports() const { return static_cast<uint32_t>(ports_.size()); }
  uint32_t max_ports() const { return kTotalLanes / opt_.lanes_per_port; }
  /// Ports currently bound (all kinds) — topology validation peeks at this
  /// before wiring hosts/devices into a switch.
  uint32_t ports_bound() const { return num_ports(); }
  /// Ports of one kind currently bound.
  uint32_t ports_bound(PortKind kind) const {
    uint32_t n = 0;
    for (const Port& p : ports_) n += p.kind == kind ? 1 : 0;
    return n;
  }
  /// Switch lanes consumed by bound ports / total lanes.
  uint32_t lanes_in_use() const { return num_ports() * opt_.lanes_per_port; }
  const std::string& name() const { return name_; }

 private:
  struct Port {
    PortKind kind;
    std::unique_ptr<sim::BandwidthChannel> channel;
  };

  std::string name_;
  Options opt_;
  std::vector<Port> ports_;
  sim::BandwidthChannel fabric_channel_;
};

}  // namespace polarcxl::cxl
