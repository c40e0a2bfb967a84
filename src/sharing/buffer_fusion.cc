#include "sharing/buffer_fusion.h"

#include <algorithm>

namespace polarcxl::sharing {

BufferFusionServer::BufferFusionServer(Options options,
                                       cxl::CxlAccessor* acc,
                                       storage::PageStore* store,
                                       DistLockManager* locks)
    : opt_(options), acc_(acc), store_(store), locks_(locks) {}

Result<std::unique_ptr<BufferFusionServer>> BufferFusionServer::Create(
    sim::ExecContext& ctx, Options options, cxl::CxlAccessor* server_acc,
    cxl::CxlMemoryManager* manager, storage::PageStore* store,
    DistLockManager* locks) {
  if (options.max_nodes > kMaxNodes) {
    return Status::InvalidArgument("active masks hold at most 64 nodes");
  }
  std::unique_ptr<BufferFusionServer> server(
      new BufferFusionServer(options, server_acc, store, locks));
  const uint64_t flag_bytes =
      CoherencyFlagTable::RegionBytes(options.dbp_pages, options.max_nodes);
  const uint64_t total =
      flag_bytes + static_cast<uint64_t>(options.dbp_pages) * kPageSize;
  auto region = manager->Allocate(ctx, kServerTenant, total);
  if (!region.ok()) return region.status();
  server->region_ = *region;
  // Flag lines first, then frames (frames stay page-aligned because the
  // flag area is a multiple of 64 and the region is page-aligned; align up
  // anyway for clarity).
  const uint64_t frames_base =
      (*region + flag_bytes + kPageSize - 1) / kPageSize * kPageSize;
  server->frames_base_ = frames_base;
  server->flags_ = std::make_unique<CoherencyFlagTable>(
      *region, options.dbp_pages, options.max_nodes);
  server->slots_.resize(options.dbp_pages);
  server->free_.reserve(options.dbp_pages);
  for (uint32_t s = options.dbp_pages; s > 0; s--) {
    server->free_.push_back(s - 1);
  }
  return server;
}

Result<BufferFusionServer::Grant> BufferFusionServer::GetPage(
    sim::ExecContext& ctx, NodeId node, PageId page_id) {
  POLAR_CHECK(node < opt_.max_nodes);
  ctx.Advance(sim::LatencyModel{}.cxl_rpc_round_trip);  // CXL mailbox RPC
  rpc_count_++;
  tick_++;

  const auto it = dir_.find(page_id);
  if (it != dir_.end()) {
    Slot& slot = slots_[it->second];
    slot.active_mask |= 1ULL << node;
    slot.last_use = tick_;
    flags_->Clear(ctx, acc_, it->second, node, slot.generation);
    return Grant{it->second, DataOff(it->second), slot.generation, false};
  }

  if (free_.empty()) {
    if (RecycleLru(ctx, 1) == 0) {
      return Status::OutOfMemory("DBP exhausted and nothing recyclable");
    }
  }
  const uint32_t s = free_.back();
  free_.pop_back();
  Slot& slot = slots_[s];
  slot.page_id = page_id;
  slot.active_mask = 1ULL << node;
  slot.last_use = tick_;
  slot.in_use = true;
  dir_[page_id] = s;
  flags_->Clear(ctx, acc_, s, node, slot.generation);
  return Grant{s, DataOff(s), slot.generation, true};
}

void BufferFusionServer::WriteUnlockNotify(sim::ExecContext& ctx,
                                           NodeId writer, PageId page_id) {
  const auto it = dir_.find(page_id);
  if (it == dir_.end()) return;
  Slot& slot = slots_[it->second];
  for (uint32_t n = 0; n < opt_.max_nodes; n++) {
    if (n == writer) continue;
    if ((slot.active_mask & (1ULL << n)) != 0) {
      flags_->SetInvalid(ctx, acc_, it->second, n);
    }
  }
}

uint32_t BufferFusionServer::RecycleLru(sim::ExecContext& ctx,
                                        uint32_t count) {
  // Collect in-use slots ordered by last_use (linear scan: the recycler is
  // a background task and slot counts are modest).
  std::vector<uint32_t> candidates;
  for (uint32_t s = 0; s < slots_.size(); s++) {
    if (slots_[s].in_use) candidates.push_back(s);
  }
  std::sort(candidates.begin(), candidates.end(),
            [this](uint32_t a, uint32_t b) {
              return slots_[a].last_use < slots_[b].last_use;
            });

  uint32_t recycled = 0;
  for (uint32_t s : candidates) {
    if (recycled >= count) break;
    Slot& slot = slots_[s];
    // Exclusive lock guarantees no node is mid-access.
    locks_->AcquireExclusive(ctx, opt_.max_nodes - 1, slot.page_id);
    // The CXL frame holds the latest bytes (writers clflush on unlock);
    // persist before reuse.
    acc_->StreamTouch(ctx, DataOff(s), kPageSize, /*write=*/false);
    store_->WritePage(ctx, slot.page_id, acc_->Raw(DataOff(s)));
    for (uint32_t n = 0; n < opt_.max_nodes; n++) {
      if ((slot.active_mask & (1ULL << n)) != 0) {
        flags_->SetRemoval(ctx, acc_, s, n);
      }
    }
    locks_->ReleaseExclusive(ctx, opt_.max_nodes - 1, slot.page_id);
    dir_.erase(slot.page_id);
    const uint64_t next_generation = slot.generation + 1;
    slot = Slot{};
    slot.generation = next_generation;
    free_.push_back(s);
    recycled++;
  }
  return recycled;
}

void BufferFusionServer::RegisterNodeCache(NodeId node,
                                           sim::CpuCacheSim* cache) {
  node_caches_[node] = cache;
}

void BufferFusionServer::HardwareBackInvalidate(NodeId writer,
                                                PageId page_id) {
  const auto it = dir_.find(page_id);
  if (it == dir_.end()) return;
  const Slot& slot = slots_[it->second];
  for (auto& [node, cache] : node_caches_) {
    if (node == writer || cache == nullptr) continue;
    if ((slot.active_mask & (1ULL << node)) == 0) continue;
    uint32_t dirty = 0;
    uint32_t clean = 0;
    cache->FlushRange(cxl::CxlFabric::kPhysBase + DataOff(it->second),
                      kPageSize, &dirty, &clean);
  }
}

uint64_t BufferFusionServer::ActiveMask(PageId page_id) const {
  const auto it = dir_.find(page_id);
  return it == dir_.end() ? 0 : slots_[it->second].active_mask;
}

}  // namespace polarcxl::sharing
