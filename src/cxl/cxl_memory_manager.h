// Copyright 2026 The PolarCXLMem Reproduction Authors.
// The CXL memory manager from Section 3.1: a service that carves the pooled
// fabric address space into per-tenant regions so that no two nodes ever
// access overlapping CXL memory. Nodes talk to it via RPC (the paper uses an
// RPC since the CXL 2.0 pooling driver is not upstreamed); allocation
// happens once at instance startup, so the RPC cost is off the hot path.
//
// Allocation is first-fit over an explicit free-span list (offset order;
// adjacent free neighbors coalesce on Release, so churn cannot shatter the
// address space into unusable slivers). With a multi-switch fabric the
// space is partitioned into placement groups — one contiguous range per
// switch, the HdmDecoder's group ranges — and a fabric::PlacementPolicy
// picks the group visit order per tenant; the single-group default is
// byte-identical to the historical whole-space first fit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/types.h"
#include "fabric/placement_policy.h"
#include "sim/exec_context.h"
#include "sim/latency_model.h"

namespace polarcxl::fabric {
class FabricTopology;
}  // namespace polarcxl::fabric

namespace polarcxl::cxl {

/// First-fit region allocator over the fabric address space with tenant
/// isolation bookkeeping ({client_id, addr, size} metadata, as in Figure 4).
class CxlMemoryManager {
 public:
  struct Region {
    NodeId client_id;
    MemOffset offset;
    uint64_t size;
  };

  /// One contiguous fabric address range served by the devices of one
  /// switch (group ranges come from the HdmDecoder's layout).
  struct PlacementGroup {
    MemOffset base = 0;
    uint64_t size = 0;
    uint32_t switch_id = 0;
  };

  /// Every Allocate/Release call is charged sim::LatencyModel's
  /// cxl_rpc_round_trip.
  explicit CxlMemoryManager(uint64_t capacity);
  POLAR_DISALLOW_COPY(CxlMemoryManager);

  /// Partitions the space into placement groups consulted in policy order
  /// on every allocation. Groups must be ascending, non-overlapping, and
  /// within capacity; free spans never merge across group boundaries (a
  /// region must stay within one switch's devices). `topo` supplies hop
  /// distances for local-first ordering (nullable: all hops 0). Must be
  /// called before the first allocation.
  void ConfigurePlacement(std::vector<PlacementGroup> groups,
                          fabric::PlacementMode mode,
                          const fabric::FabricTopology* topo = nullptr);

  /// Registers which switch `client`'s host port hangs off (local-first
  /// placement anchor). Unregistered tenants default to group 0.
  void SetTenantHome(NodeId client, uint32_t switch_id);

  /// Allocates `size` bytes (rounded up to page alignment) for `client`.
  /// Returns the region's starting fabric offset.
  Result<MemOffset> Allocate(sim::ExecContext& ctx, NodeId client,
                             uint64_t size);

  /// Releases one region previously allocated at `offset`.
  Status Release(sim::ExecContext& ctx, NodeId client, MemOffset offset);

  /// Releases every region of `client` (instance teardown).
  void ReleaseAll(sim::ExecContext& ctx, NodeId client);

  /// True if [offset, offset+len) lies entirely inside a region owned by
  /// `client` — the isolation invariant.
  bool Owns(NodeId client, MemOffset offset, uint64_t len) const;

  uint64_t capacity() const { return capacity_; }
  uint64_t allocated() const { return allocated_; }
  uint64_t free_bytes() const { return capacity_ - allocated_; }
  std::vector<Region> RegionsOf(NodeId client) const;
  size_t num_free_spans() const { return free_.size(); }
  size_t num_groups() const { return groups_.size(); }

  /// External fragmentation of the free space: 1 - largest_free_span /
  /// total_free. 0 when all free bytes are one span (or none are free).
  double fragmentation() const;

 private:
  /// Group index owning `offset` (0 when unpartitioned).
  uint32_t GroupIndexOf(MemOffset offset) const;
  /// Returns the span back to the free list, coalescing with adjacent free
  /// neighbors inside the same group.
  void FreeSpan(MemOffset offset, uint64_t size);

  uint64_t capacity_;
  uint64_t allocated_ = 0;
  // Keyed by offset; non-overlapping by construction.
  std::map<MemOffset, Region> regions_;
  // Free spans keyed by offset (maximal: no two adjacent spans share a
  // group). Initially one span per group.
  std::map<MemOffset, uint64_t> free_;
  std::vector<PlacementGroup> groups_;
  std::vector<uint64_t> group_free_;
  fabric::PlacementPolicy policy_{fabric::PlacementMode::kLocalFirst};
  const fabric::FabricTopology* topo_ = nullptr;
  std::map<NodeId, uint32_t> tenant_home_;
};

}  // namespace polarcxl::cxl
