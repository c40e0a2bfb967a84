#include "cxl/cxl_memory_manager.h"

#include <algorithm>

#include "fabric/fabric_topology.h"

namespace polarcxl::cxl {

namespace {
uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }
constexpr Nanos kRpcRoundTrip = sim::LatencyModel{}.cxl_rpc_round_trip;
}  // namespace

CxlMemoryManager::CxlMemoryManager(uint64_t capacity) : capacity_(capacity) {
  // Unpartitioned default: one group spanning the whole space. First fit
  // over its single free span reproduces the historical gap scan exactly.
  groups_.push_back({0, capacity_, 0});
  group_free_.push_back(capacity_);
  if (capacity_ > 0) free_[0] = capacity_;
}

void CxlMemoryManager::ConfigurePlacement(std::vector<PlacementGroup> groups,
                                          fabric::PlacementMode mode,
                                          const fabric::FabricTopology* topo) {
  POLAR_CHECK_MSG(allocated_ == 0 && regions_.empty(),
                  "placement must be configured before any allocation");
  POLAR_CHECK(!groups.empty() && groups.size() <= 64);
  free_.clear();
  group_free_.clear();
  MemOffset cursor = 0;
  for (const PlacementGroup& g : groups) {
    POLAR_CHECK_MSG(g.base >= cursor && g.base + g.size <= capacity_,
                    "placement groups must be ascending, non-overlapping, "
                    "and within capacity");
    cursor = g.base + g.size;
    if (g.size > 0) free_[g.base] = g.size;
    group_free_.push_back(g.size);
  }
  groups_ = std::move(groups);
  policy_ = fabric::PlacementPolicy(mode);
  topo_ = topo;
}

void CxlMemoryManager::SetTenantHome(NodeId client, uint32_t switch_id) {
  tenant_home_[client] = switch_id;
}

uint32_t CxlMemoryManager::GroupIndexOf(MemOffset offset) const {
  uint32_t idx = 0;
  for (uint32_t g = 0; g < groups_.size(); g++) {
    if (offset >= groups_[g].base) idx = g;
  }
  return idx;
}

Result<MemOffset> CxlMemoryManager::Allocate(sim::ExecContext& ctx,
                                             NodeId client, uint64_t size) {
  ctx.Advance(kRpcRoundTrip);
  if (size == 0) return Status::InvalidArgument("zero-size allocation");
  size = AlignUp(size, kPageSize);

  // Resolve the tenant's home switch to a group and ask the policy for the
  // visit order; the first group with a fitting span (offset-order first
  // fit within the group) wins.
  const uint32_t n = static_cast<uint32_t>(groups_.size());
  const auto home_it = tenant_home_.find(client);
  const uint32_t home_switch =
      home_it != tenant_home_.end() ? home_it->second : groups_[0].switch_id;
  uint32_t home_group = 0;
  fabric::PlacementPolicy::GroupView views[64];
  for (uint32_t g = 0; g < n; g++) {
    if (groups_[g].switch_id == home_switch && groups_[home_group].switch_id
        != home_switch) {
      home_group = g;
    }
    views[g].free_bytes = group_free_[g];
    views[g].hops_from_home =
        topo_ != nullptr
            ? topo_->hops(home_switch, groups_[g].switch_id)
            : (groups_[g].switch_id == home_switch ? 0 : 1);
  }
  uint32_t order[64];
  policy_.Order(home_group, client, views, n, order);

  for (uint32_t i = 0; i < n; i++) {
    const PlacementGroup& grp = groups_[order[i]];
    const MemOffset grp_end = grp.base + grp.size;
    for (auto it = free_.lower_bound(grp.base);
         it != free_.end() && it->first < grp_end; ++it) {
      if (it->second < size) continue;
      const MemOffset offset = it->first;
      const uint64_t remainder = it->second - size;
      free_.erase(it);
      if (remainder > 0) free_[offset + size] = remainder;
      regions_[offset] = Region{client, offset, size};
      allocated_ += size;
      group_free_[order[i]] -= size;
      return offset;
    }
  }
  return Status::OutOfMemory("CXL pool exhausted");
}

void CxlMemoryManager::FreeSpan(MemOffset offset, uint64_t size) {
  group_free_[GroupIndexOf(offset)] += size;
  // Coalesce with the previous/next free span when adjacent and in the
  // same group (regions never straddle groups, so only an exact-boundary
  // neighbor from another group could otherwise merge).
  auto next = free_.lower_bound(offset);
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == offset &&
        GroupIndexOf(prev->first) == GroupIndexOf(offset)) {
      offset = prev->first;
      size += prev->second;
      free_.erase(prev);
    }
  }
  if (next != free_.end() && offset + size == next->first &&
      GroupIndexOf(next->first) == GroupIndexOf(offset)) {
    size += next->second;
    free_.erase(next);
  }
  free_[offset] = size;
}

Status CxlMemoryManager::Release(sim::ExecContext& ctx, NodeId client,
                                 MemOffset offset) {
  ctx.Advance(kRpcRoundTrip);
  auto it = regions_.find(offset);
  if (it == regions_.end()) return Status::NotFound("no region at offset");
  if (it->second.client_id != client) {
    return Status::InvalidArgument("region owned by another tenant");
  }
  allocated_ -= it->second.size;
  FreeSpan(it->second.offset, it->second.size);
  regions_.erase(it);
  return Status::OK();
}

void CxlMemoryManager::ReleaseAll(sim::ExecContext& ctx, NodeId client) {
  ctx.Advance(kRpcRoundTrip);
  for (auto it = regions_.begin(); it != regions_.end();) {
    if (it->second.client_id == client) {
      allocated_ -= it->second.size;
      FreeSpan(it->second.offset, it->second.size);
      it = regions_.erase(it);
    } else {
      ++it;
    }
  }
}

double CxlMemoryManager::fragmentation() const {
  uint64_t total = 0;
  uint64_t largest = 0;
  for (const auto& [off, size] : free_) {
    total += size;
    largest = std::max(largest, size);
  }
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(largest) / static_cast<double>(total);
}

bool CxlMemoryManager::Owns(NodeId client, MemOffset offset,
                            uint64_t len) const {
  auto it = regions_.upper_bound(offset);
  if (it == regions_.begin()) return false;
  --it;
  const Region& r = it->second;
  return r.client_id == client && offset >= r.offset &&
         offset + len <= r.offset + r.size;
}

std::vector<CxlMemoryManager::Region> CxlMemoryManager::RegionsOf(
    NodeId client) const {
  std::vector<Region> out;
  for (const auto& [off, region] : regions_) {
    if (region.client_id == client) out.push_back(region);
  }
  return out;
}

}  // namespace polarcxl::cxl
