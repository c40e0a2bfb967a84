// Copyright 2026 The PolarCXLMem Reproduction Authors.
// The assembled CXL-enabled cluster: a fabric of one or more switches, the
// memory devices behind them, and one access port per host. Hosts see a
// flat fabric address space — laid out across devices by an HdmDecoder
// (back-to-back by default, interleaved on request) — and access it through
// a CxlAccessor, which performs the real byte movement *and* charges
// virtual time. With a multi-switch TopologySpec every access additionally
// rides the uplinks/switch fabrics/device port its route crosses (see
// fabric/fabric_topology.h); the single-switch default charges exactly the
// historical link+pool pair.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/types.h"
#include "cxl/cxl_device.h"
#include "cxl/cxl_switch.h"
#include "fabric/fabric_topology.h"
#include "fabric/hdm_decoder.h"
#include "faults/fault_injector.h"
#include "sim/exec_context.h"
#include "sim/latency_model.h"
#include "sim/memory_space.h"
#include "sim/route.h"

namespace polarcxl::cxl {

class CxlFabric;

/// A host's window onto the fabric (the mmap'ed devdax region). Load/Store
/// move real bytes and advance the lane clock through the host's
/// MemorySpace; Raw() exposes the backing bytes for in-place structures
/// (callers must still Touch() what they dereference).
class CxlAccessor {
 public:
  CxlAccessor(CxlFabric* fabric, NodeId node, bool remote_numa,
              uint32_t home_switch, std::unique_ptr<sim::MemorySpace> space)
      : fabric_(fabric),
        node_(node),
        remote_numa_(remote_numa),
        home_switch_(home_switch),
        space_(std::move(space)) {}
  POLAR_DISALLOW_COPY(CxlAccessor);

  /// Cached load of `len` bytes at fabric offset `off` into `dst`.
  /// (Defined inline below the CxlFabric definition: Load/Store/Touch are
  /// on the per-simulated-access hot path — one call per pool metadata or
  /// list-pointer access — and must flatten into MemorySpace::Touch even
  /// in non-LTO builds.)
  void Load(sim::ExecContext& ctx, MemOffset off, void* dst, uint32_t len);
  /// Cached store of `len` bytes from `src` to fabric offset `off`.
  void Store(sim::ExecContext& ctx, MemOffset off, const void* src,
             uint32_t len);

  /// Typed helpers for fixed-layout metadata kept in CXL memory.
  template <typename T>
  T LoadPod(sim::ExecContext& ctx, MemOffset off) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    Load(ctx, off, &v, sizeof(T));
    return v;
  }
  template <typename T>
  void StorePod(sim::ExecContext& ctx, MemOffset off, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Store(ctx, off, &v, sizeof(T));
  }

  /// Streaming (uncached) bulk copy, e.g., loading a page image from disk
  /// into CXL memory.
  void StreamRead(sim::ExecContext& ctx, MemOffset off, void* dst,
                  uint32_t len);
  void StreamWrite(sim::ExecContext& ctx, MemOffset off, const void* src,
                   uint32_t len);

  /// clflush of [off, off+len): dirty lines are written back to the device,
  /// all lines dropped from this host's CPU cache. Returns dirty count.
  uint32_t Flush(sim::ExecContext& ctx, MemOffset off, uint32_t len);

  /// Drops [off, off+len) from this host's CPU cache so the next access
  /// fetches the latest bytes from the device.
  void InvalidateCache(sim::ExecContext& ctx, MemOffset off, uint32_t len);

  /// Charge the cost of touching the range without moving bytes (for
  /// in-place access through Raw()).
  void Touch(sim::ExecContext& ctx, MemOffset off, uint32_t len, bool write);

  /// Charge a streaming transfer without moving bytes (callers that already
  /// copied data in place, e.g., a page image loaded from storage).
  void StreamTouch(sim::ExecContext& ctx, MemOffset off, uint32_t len,
                   bool write);

  /// Uncached (non-temporal) accesses: always hit the device. Coherency
  /// flags are accessed this way because another host may rewrite them
  /// behind this host's CPU cache.
  void LoadUncached(sim::ExecContext& ctx, MemOffset off, void* dst,
                    uint32_t len);
  void StoreUncached(sim::ExecContext& ctx, MemOffset off, const void* src,
                     uint32_t len);
  template <typename T>
  T LoadUncachedPod(sim::ExecContext& ctx, MemOffset off) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    LoadUncached(ctx, off, &v, sizeof(T));
    return v;
  }
  template <typename T>
  void StoreUncachedPod(sim::ExecContext& ctx, MemOffset off, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    StoreUncached(ctx, off, &v, sizeof(T));
  }

  /// Direct pointer to the device bytes backing `off`.
  uint8_t* Raw(MemOffset off);

  sim::MemorySpace* space() { return space_.get(); }
  NodeId node() const { return node_; }
  /// Switch this host's port is bound to.
  uint32_t home_switch() const { return home_switch_; }

  /// True when a fault injector is wired into the fabric (single pointer
  /// compare — callers gate their fault paths on this so the common case
  /// stays branch-only).
  bool HasFaultInjector() const;
  /// Fault hook: asks the fabric's injector whether this host can reach
  /// the devices right now. OK when no injector is set or none applies;
  /// otherwise propagates the injected failure and charges degrade latency.
  Status CheckFault(sim::ExecContext& ctx);

  /// Simulated physical address of fabric offset `off` in this host's
  /// address map (used as CPU-cache key; identical across hosts so that a
  /// page has one cache footprint per host cache).
  uint64_t PhysAddr(MemOffset off) const;

 private:
  CxlFabric* fabric_;
  NodeId node_;
  bool remote_numa_;
  uint32_t home_switch_;
  std::unique_ptr<sim::MemorySpace> space_;
};

/// The cluster: switch fabric + devices + host ports. Owns the devices,
/// whose contents survive host crashes (independent power domain).
class CxlFabric {
 public:
  struct Options {
    /// Single-switch options (the legacy default construction). Ignored
    /// when `topology` names explicit switches.
    CxlSwitch::Options switch_options;
    const sim::LatencyModel* latency = nullptr;  // defaults if null
    /// Explicit multi-switch topology. Leaving it empty builds the
    /// historical one-switch fabric and keeps routing off (bit-identical
    /// cost model); a non-empty spec — even with a single switch — turns
    /// on per-address routing, including destination device port charges.
    fabric::TopologySpec topology;
    /// Address layout across devices (contiguous default = legacy).
    fabric::InterleaveSpec interleave;
  };

  CxlFabric() : CxlFabric(Options()) {}
  explicit CxlFabric(Options options);
  POLAR_DISALLOW_COPY(CxlFabric);

  /// Adds a memory device of `capacity` bytes behind switch `switch_idx`.
  Status AddDevice(uint64_t capacity, uint32_t switch_idx = 0);

  /// Attaches a host to switch `switch_idx` and returns its accessor.
  /// `remote_numa` models a CPU socket not directly wired to the switch
  /// (Table 1's "Remote" column).
  Result<CxlAccessor*> AttachHost(NodeId node, bool remote_numa = false,
                                  uint32_t switch_idx = 0);

  /// Total pooled capacity.
  uint64_t capacity() const { return capacity_; }

  /// Resolve a fabric offset to its backing device bytes. The returned
  /// pointer is only valid up to the end of the backing device (or
  /// interleave stripe); use CopyOut/CopyIn for longer ranges.
  /// (Inline single-device fast path: the common deployment backs the
  /// whole fabric with one device — any interleave of one device is the
  /// identity — and this is called once per simulated load/store, so the
  /// decoder is hoisted out of the hot path.)
  uint8_t* Translate(MemOffset off) {
    POLAR_CHECK_MSG(off < capacity_, "fabric offset out of range");
    if (single_device_data_ != nullptr) return single_device_data_ + off;
    return TranslateSlow(off);
  }

  /// Device-boundary-safe bulk copies.
  void CopyOut(MemOffset off, void* dst, uint64_t len) {
    if (single_device_data_ != nullptr) {
      POLAR_CHECK(off + len <= capacity_);
      std::memcpy(dst, single_device_data_ + off, len);
      return;
    }
    CopyOutSlow(off, dst, len);
  }
  void CopyIn(MemOffset off, const void* src, uint64_t len) {
    if (single_device_data_ != nullptr) {
      POLAR_CHECK(off + len <= capacity_);
      std::memcpy(single_device_data_ + off, src, len);
      return;
    }
    CopyInSlow(off, src, len);
  }

  /// Bytes mapped contiguously on one device starting at `off`.
  uint64_t ContiguousAt(MemOffset off) const {
    if (single_device_data_ != nullptr) {
      POLAR_CHECK(off < capacity_);
      return capacity_ - off;
    }
    return ContiguousAtSlow(off);
  }

  /// The first (legacy single-) switch.
  CxlSwitch& cxl_switch() { return topo_.sw(0); }
  fabric::FabricTopology& topology() { return topo_; }
  const fabric::HdmDecoder& decoder() const { return decoder_; }
  uint32_t num_switches() const { return topo_.num_switches(); }
  /// Whether per-address routing is active (explicit topology spec).
  bool routing_enabled() const { return routed_; }
  const sim::LatencyModel& latency() const { return lat_; }

  /// Route table entry for an access from `home_switch` to the device
  /// backing `off` (null when routing is off). Hot: called per miss by the
  /// hosts' AddressRouters.
  const sim::RouteCost* RouteFor(uint32_t home_switch, MemOffset off) const {
    if (!routed_) return nullptr;
    const uint32_t dev = decoder_.DeviceOf(off);
    return &routes_[static_cast<size_t>(home_switch) * devices_.size() + dev];
  }

  /// Total bytes delivered over every host port (the CXL-side interconnect
  /// probe; equals the single host port's counter on the legacy layout).
  uint64_t host_port_bytes() const;

  /// Device bytes of world snapshots: makes every device's current bytes
  /// its copy-on-write image / rewinds every device to its image (see
  /// CxlMemoryDevice). Whole devices, so interleaved layouts need no
  /// decoder walk; addresses never move, so Translate() pointers stay
  /// valid.
  void CaptureDeviceImages();
  void RestoreDeviceImages();

  /// Fault-injection hook point (nullable; null = zero-cost pass-through).
  void set_fault_injector(faults::FaultInjector* injector) {
    faults_ = injector;
  }
  faults::FaultInjector* fault_injector() { return faults_; }
  size_t num_devices() const { return devices_.size(); }
  CxlAccessor* host(size_t i) { return hosts_[i].get(); }

  /// Simulated physical address base of the fabric window.
  static constexpr uint64_t kPhysBase = 1ULL << 40;

 private:
  /// Resolves fabric offsets of one host through the fabric's route table.
  class HostRouter final : public sim::AddressRouter {
   public:
    HostRouter(const CxlFabric* fabric, uint32_t home_switch)
        : fabric_(fabric), home_switch_(home_switch) {}
    const sim::RouteCost* Resolve(uint64_t addr) const override {
      return fabric_->RouteFor(home_switch_, addr - kPhysBase);
    }

   private:
    const CxlFabric* fabric_;
    uint32_t home_switch_;
  };

  uint8_t* TranslateSlow(MemOffset off);
  uint64_t ContiguousAtSlow(MemOffset off) const;
  void CopyOutSlow(MemOffset off, void* dst, uint64_t len);
  void CopyInSlow(MemOffset off, const void* src, uint64_t len);
  /// Rebuilds the decoder + per-(switch, device) route table after a
  /// device is added (construction-time only).
  void RebuildLayout();

  sim::LatencyModel lat_;
  fabric::FabricTopology topo_;
  bool routed_ = false;
  fabric::InterleaveSpec interleave_;
  fabric::HdmDecoder decoder_;
  std::vector<std::unique_ptr<CxlMemoryDevice>> devices_;
  std::vector<uint64_t> device_capacity_;
  std::vector<uint32_t> device_switch_;
  std::vector<sim::BandwidthChannel*> device_port_;  // per-device port chan
  std::vector<sim::RouteCost> routes_;  // [home_switch * num_devices + dev]
  uint64_t capacity_ = 0;
  /// Backing bytes when exactly one device serves the fabric (else null).
  uint8_t* single_device_data_ = nullptr;
  std::vector<std::unique_ptr<CxlAccessor>> hosts_;
  std::vector<std::unique_ptr<HostRouter>> routers_;
  faults::FaultInjector* faults_ = nullptr;
};

// ---- CxlAccessor hot-path definitions (need the CxlFabric body) ----

inline uint64_t CxlAccessor::PhysAddr(MemOffset off) const {
  return CxlFabric::kPhysBase + off;
}

inline uint8_t* CxlAccessor::Raw(MemOffset off) {
  return fabric_->Translate(off);
}

inline void CxlAccessor::Load(sim::ExecContext& ctx, MemOffset off, void* dst,
                              uint32_t len) {
  space_->Touch(ctx, PhysAddr(off), len, /*write=*/false);
  fabric_->CopyOut(off, dst, len);
}

inline void CxlAccessor::Store(sim::ExecContext& ctx, MemOffset off,
                               const void* src, uint32_t len) {
  space_->Touch(ctx, PhysAddr(off), len, /*write=*/true);
  fabric_->CopyIn(off, src, len);
}

inline void CxlAccessor::Touch(sim::ExecContext& ctx, MemOffset off,
                               uint32_t len, bool write) {
  space_->Touch(ctx, PhysAddr(off), len, write);
}

inline bool CxlAccessor::HasFaultInjector() const {
  return fabric_->fault_injector() != nullptr;
}

inline Status CxlAccessor::CheckFault(sim::ExecContext& ctx) {
  faults::FaultInjector* f = fabric_->fault_injector();
  if (f == nullptr) return Status::OK();
  return f->OnCxlAccess(ctx, node_);
}

}  // namespace polarcxl::cxl
