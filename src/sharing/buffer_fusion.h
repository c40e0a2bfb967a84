// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Buffer fusion server (Figure 6): manages the metadata of the distributed
// buffer pool (DBP) whose page frames live in PolarCXLMem. Nodes request
// page addresses via RPC; the server tracks active nodes per page, signals
// invalidations/removals through the coherency flag table, and recycles
// least-recently-used pages in the background.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/types.h"
#include "cxl/cxl_fabric.h"
#include "cxl/cxl_memory_manager.h"
#include "sharing/coherency.h"
#include "sharing/dist_lock_manager.h"
#include "storage/page_store.h"

namespace polarcxl::sharing {

class BufferFusionServer {
 public:
  /// Nodes are bits of a slot's 64-bit active mask.
  static constexpr uint32_t kMaxNodes = 64;
  /// The server's tenant id at the CXL memory manager.
  static constexpr NodeId kServerTenant = 0xFFFF;

  struct Options {
    uint32_t dbp_pages = 4096;  // shared frame slots in CXL
    uint32_t max_nodes = kMaxNodes;
  };

  /// Allocates the DBP region (flag table + frames) from the fabric.
  /// InvalidArgument if `max_nodes` exceeds kMaxNodes.
  static Result<std::unique_ptr<BufferFusionServer>> Create(
      sim::ExecContext& ctx, Options options, cxl::CxlAccessor* server_acc,
      cxl::CxlMemoryManager* manager, storage::PageStore* store,
      DistLockManager* locks);

  /// RPC: resolve `page_id` to a CXL frame, allocating a slot on first use.
  /// `fresh` tells the caller the frame has no content yet (it must load
  /// the page image from storage into the frame).
  struct Grant {
    uint32_t slot = 0;
    MemOffset data_off = 0;
    uint64_t generation = 0;  // slot incarnation (see CoherencyFlagTable)
    bool fresh = false;
  };
  Result<Grant> GetPage(sim::ExecContext& ctx, NodeId node, PageId page_id);

  /// Called by a writer after flushing its modified cache lines: sets the
  /// invalid flag for every other active node of the page (one CXL store
  /// per node, a few hundred ns each).
  void WriteUnlockNotify(sim::ExecContext& ctx, NodeId writer,
                         PageId page_id);

  /// Background recycler: moves up to `count` least-recently-used, unlocked
  /// pages from the in-use list to the free list, persisting their frames
  /// and raising removal flags for active nodes. Returns pages recycled.
  uint32_t RecycleLru(sim::ExecContext& ctx, uint32_t count);

  /// CXL 3.0 mode support: registers a node's CPU cache so hardware
  /// back-invalidation can drop peers' lines when a writer commits.
  void RegisterNodeCache(NodeId node, sim::CpuCacheSim* cache);
  /// Drops the page's lines from every registered cache except the
  /// writer's (what the CXL 3.0 coherence hardware does).
  void HardwareBackInvalidate(NodeId writer, PageId page_id);

  // ---- introspection ----
  bool HasPage(PageId page_id) const { return dir_.count(page_id) > 0; }
  uint64_t ActiveMask(PageId page_id) const;
  uint32_t free_slots() const { return static_cast<uint32_t>(free_.size()); }
  uint32_t used_slots() const { return opt_.dbp_pages - free_slots(); }
  const CoherencyFlagTable& flags() const { return *flags_; }
  MemOffset DataOff(uint32_t slot) const {
    return frames_base_ + static_cast<MemOffset>(slot) * kPageSize;
  }
  uint64_t rpc_count() const { return rpc_count_; }

 private:
  BufferFusionServer(Options options, cxl::CxlAccessor* acc,
                     storage::PageStore* store, DistLockManager* locks);

  struct Slot {
    PageId page_id = kInvalidPageId;
    uint64_t active_mask = 0;  // bit per node
    uint64_t last_use = 0;
    uint64_t generation = 0;   // bumped on every recycle
    bool in_use = false;
  };

  Options opt_;
  cxl::CxlAccessor* acc_;
  storage::PageStore* store_;
  DistLockManager* locks_;
  MemOffset region_ = 0;
  MemOffset frames_base_ = 0;
  std::unique_ptr<CoherencyFlagTable> flags_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  std::unordered_map<PageId, uint32_t> dir_;
  std::unordered_map<NodeId, sim::CpuCacheSim*> node_caches_;
  uint64_t tick_ = 0;
  uint64_t rpc_count_ = 0;
};

}  // namespace polarcxl::sharing
