#include "cxl/cxl_fabric.h"

#include <algorithm>

namespace polarcxl::cxl {

namespace {
fabric::TopologySpec ResolveTopology(const CxlFabric::Options& options) {
  if (!options.topology.empty()) return options.topology;
  fabric::TopologySpec spec;
  spec.switches.push_back({"cxl-switch", options.switch_options});
  return spec;
}
}  // namespace

CxlFabric::CxlFabric(Options options)
    : lat_(options.latency != nullptr ? *options.latency
                                      : sim::LatencyModel{}),
      topo_(ResolveTopology(options)),
      routed_(!options.topology.empty()),
      interleave_(options.interleave) {}

Status CxlFabric::AddDevice(uint64_t capacity, uint32_t switch_idx) {
  POLAR_CHECK_MSG(switch_idx < topo_.num_switches(),
                  "device bound to unknown switch");
  CxlSwitch& sw = topo_.sw(switch_idx);
  auto port = sw.BindPort(CxlSwitch::PortKind::kDevice);
  if (!port.ok()) return port.status();
  devices_.push_back(std::make_unique<CxlMemoryDevice>(capacity));
  device_capacity_.push_back(capacity);
  device_switch_.push_back(switch_idx);
  device_port_.push_back(sw.port_channel(*port));
  RebuildLayout();
  return Status::OK();
}

void CxlFabric::RebuildLayout() {
  decoder_ = fabric::HdmDecoder(device_capacity_, device_switch_, interleave_);
  capacity_ = decoder_.capacity();
  single_device_data_ =
      devices_.size() == 1 ? devices_[0]->data() : nullptr;
  // All-pairs (home switch, device) route costs. Routes themselves are
  // fixed at topology construction; this just flattens them — plus the
  // destination device's port channel — into per-access RouteCost entries.
  routes_.assign(
      static_cast<size_t>(topo_.num_switches()) * devices_.size(),
      sim::RouteCost{});
  for (uint32_t s = 0; s < topo_.num_switches(); s++) {
    for (size_t d = 0; d < devices_.size(); d++) {
      sim::RouteCost& rc = routes_[s * devices_.size() + d];
      topo_.AppendRouteCost(s, device_switch_[d], &rc);
      POLAR_CHECK(rc.num_channels < sim::RouteCost::kMaxChannels);
      rc.channels[rc.num_channels++] = device_port_[d];
    }
  }
}

Result<CxlAccessor*> CxlFabric::AttachHost(NodeId node, bool remote_numa,
                                           uint32_t switch_idx) {
  POLAR_CHECK_MSG(switch_idx < topo_.num_switches(),
                  "host bound to unknown switch");
  CxlSwitch& sw = topo_.sw(switch_idx);
  auto port = sw.BindPort(CxlSwitch::PortKind::kHost);
  if (!port.ok()) return port.status();

  sim::MemorySpace::Options mo;
  mo.name = "cxl.host" + std::to_string(node);
  mo.line_latency =
      remote_numa ? lat_.line.cxl_switch_remote : lat_.line.cxl_switch_local;
  mo.stream_read = lat_.cxl_stream_read;
  mo.stream_write = lat_.cxl_stream_write;
  mo.link = sw.port_channel(*port);
  mo.pool = sw.fabric_channel();
  if (routed_) {
    routers_.push_back(std::make_unique<HostRouter>(this, switch_idx));
    mo.router = routers_.back().get();
  }
  mo.clflush_line = lat_.cxl_clflush_line;
  mo.invalidate_line = lat_.invalidate_line;

  hosts_.push_back(std::make_unique<CxlAccessor>(
      this, node, remote_numa, switch_idx,
      std::make_unique<sim::MemorySpace>(mo)));
  return hosts_.back().get();
}

uint8_t* CxlFabric::TranslateSlow(MemOffset off) {
  const fabric::HdmDecoder::Target t = decoder_.Decode(off);
  return devices_[t.device]->data() + t.offset;
}

uint64_t CxlFabric::ContiguousAtSlow(MemOffset off) const {
  POLAR_CHECK(off < capacity_);
  return decoder_.ContiguousAt(off);
}

void CxlFabric::CopyOutSlow(MemOffset off, void* dst, uint64_t len) {
  uint8_t* out = static_cast<uint8_t*>(dst);
  while (len > 0) {
    const uint64_t chunk = std::min(len, ContiguousAt(off));
    std::memcpy(out, Translate(off), chunk);
    off += chunk;
    out += chunk;
    len -= chunk;
  }
}

void CxlFabric::CopyInSlow(MemOffset off, const void* src, uint64_t len) {
  const uint8_t* in = static_cast<const uint8_t*>(src);
  while (len > 0) {
    const uint64_t chunk = std::min(len, ContiguousAt(off));
    std::memcpy(Translate(off), in, chunk);
    off += chunk;
    in += chunk;
    len -= chunk;
  }
}

void CxlFabric::CaptureDeviceImages() {
  for (auto& d : devices_) d->CaptureImage();
}

void CxlFabric::RestoreDeviceImages() {
  for (auto& d : devices_) d->RestoreImage();
}

uint64_t CxlFabric::host_port_bytes() const {
  uint64_t total = 0;
  for (const auto& h : hosts_) {
    total += h->space()->link()->total_bytes();
  }
  return total;
}

void CxlAccessor::StreamRead(sim::ExecContext& ctx, MemOffset off, void* dst,
                             uint32_t len) {
  if (faults::FaultInjector* f = fabric_->fault_injector()) {
    f->OnCxlTransfer(ctx, node_, len);
  }
  space_->Stream(ctx, PhysAddr(off), len, /*write=*/false);
  fabric_->CopyOut(off, dst, len);
}

void CxlAccessor::StreamWrite(sim::ExecContext& ctx, MemOffset off,
                              const void* src, uint32_t len) {
  if (faults::FaultInjector* f = fabric_->fault_injector()) {
    f->OnCxlTransfer(ctx, node_, len);
  }
  space_->Stream(ctx, PhysAddr(off), len, /*write=*/true);
  fabric_->CopyIn(off, src, len);
}

void CxlAccessor::LoadUncached(sim::ExecContext& ctx, MemOffset off,
                               void* dst, uint32_t len) {
  space_->TouchUncached(ctx, PhysAddr(off), len, /*write=*/false);
  fabric_->CopyOut(off, dst, len);
}

void CxlAccessor::StoreUncached(sim::ExecContext& ctx, MemOffset off,
                                const void* src, uint32_t len) {
  space_->TouchUncached(ctx, PhysAddr(off), len, /*write=*/true);
  fabric_->CopyIn(off, src, len);
}

uint32_t CxlAccessor::Flush(sim::ExecContext& ctx, MemOffset off,
                            uint32_t len) {
  return space_->Flush(ctx, PhysAddr(off), len);
}

void CxlAccessor::InvalidateCache(sim::ExecContext& ctx, MemOffset off,
                                  uint32_t len) {
  space_->Invalidate(ctx, PhysAddr(off), len);
}

void CxlAccessor::StreamTouch(sim::ExecContext& ctx, MemOffset off,
                              uint32_t len, bool write) {
  if (faults::FaultInjector* f = fabric_->fault_injector()) {
    f->OnCxlTransfer(ctx, node_, len);
  }
  space_->Stream(ctx, PhysAddr(off), len, write);
}

}  // namespace polarcxl::cxl
