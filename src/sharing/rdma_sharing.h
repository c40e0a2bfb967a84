// Copyright 2026 The PolarCXLMem Reproduction Authors.
// RDMA-based data sharing baseline (native PolarDB-MP): each node keeps a
// local buffer pool; the authoritative distributed buffer pool (DBP) lives
// in RDMA-attached remote memory. Releasing a write lock flushes the WHOLE
// 16 KB page to the DBP (write amplification) and sends invalidation
// messages over RDMA to every node caching the page.
//
// A node's frames are a bufferpool::TieredRdmaBufferPool (the LBP) tiered
// over the group's DBP: its miss path reads the DBP (or storage on first
// touch, populating the DBP), and its write-back ships the page. Page
// images move by reference, as in the tiered pool: a frame aliases the DBP
// image it read, a write unlock hands the DBP the frame's image, and a
// write fix clones the image first if anyone else still holds it. This
// class adds only the protocol: page locks around every fix, the ship plus
// invalidation at a dirty write unlock, and dropping invalidated pages.
// The sharing driver steps every node on one thread, so the clone's
// reference-count test never races.
#pragma once

#include <cstdint>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/tiered_rdma_buffer_pool.h"
#include "rdma/remote_memory_pool.h"
#include "sharing/dist_lock_manager.h"
#include "sim/memory_space.h"
#include "storage/page_store.h"

namespace polarcxl::sharing {

class RdmaSharedBufferPool;

/// Cluster-wide shared state of the RDMA sharing baseline.
class RdmaSharingGroup {
 public:
  RdmaSharingGroup(rdma::RdmaNetwork* net, NodeId server_node,
                   uint64_t dbp_pages, storage::PageStore* store);
  POLAR_DISALLOW_COPY(RdmaSharingGroup);

  static constexpr NodeId kSharedTenant = 0xFFFE;

  rdma::RemoteMemoryPool& dbp() { return dbp_; }
  DistLockManager& locks() { return locks_; }
  rdma::RdmaNetwork* net() { return net_; }
  storage::PageStore* store() { return store_; }
  NodeId server_node() const { return server_node_; }

  void Register(RdmaSharedBufferPool* member) { members_.push_back(member); }

  /// Writer-side invalidation: one RDMA message per other member that
  /// caches the page (charged to the writer, in registration order), which
  /// drops the page from that member's local pool.
  void InvalidateOthers(sim::ExecContext& ctx, NodeId writer, PageId page);

 private:
  rdma::RdmaNetwork* net_;
  NodeId server_node_;
  rdma::RemoteMemoryPool dbp_;
  DistLockManager locks_;
  storage::PageStore* store_;
  std::vector<RdmaSharedBufferPool*> members_;
};

class RdmaSharedBufferPool final : public bufferpool::BufferPool {
 public:
  struct Options {
    NodeId node = 0;
    uint64_t lbp_capacity_pages = 512;
    uint64_t phys_base = 1ULL << 46;
  };

  RdmaSharedBufferPool(Options options, sim::MemorySpace* dram,
                       RdmaSharingGroup* group);
  POLAR_DISALLOW_COPY(RdmaSharedBufferPool);

  Result<bufferpool::PageRef> Fetch(sim::ExecContext& ctx, PageId page_id,
                                    bool for_write) override;
  void Unfix(sim::ExecContext& ctx, const bufferpool::PageRef& ref,
             PageId page_id, bool dirty, Lsn new_lsn) override;
  Status UpgradeToWrite(sim::ExecContext& ctx, bufferpool::PageRef& ref,
                        PageId page_id) override;
  /// Local copies are clean outside write fixes (a dirty write unlock
  /// ships the page), so there is nothing to flush; the DBP persists.
  bool FlushDirtyPages(sim::ExecContext& ctx) override {
    (void)ctx;
    return true;
  }
  bool Cached(PageId page_id) const override { return lbp_.Cached(page_id); }
  uint64_t capacity_pages() const override { return lbp_.capacity_pages(); }
  const bufferpool::BufferPoolStats& stats() const override {
    return lbp_.stats();
  }
  void ResetStats() override { lbp_.ResetStats(); }
  uint64_t local_dram_bytes() const override {
    return lbp_.local_dram_bytes();
  }

  /// Called by the group when another node invalidated `page_id`.
  void DropInvalidated(PageId page_id);

  uint64_t invalidations_received() const { return invalidations_received_; }
  NodeId node() const { return node_; }

 private:
  NodeId node_;
  RdmaSharingGroup* group_;
  bufferpool::TieredRdmaBufferPool lbp_;
  /// Write fixes held per LBP block: an unfix releases the exclusive page
  /// lock while any are held, else the shared one.
  std::vector<uint32_t> write_fixes_;
  uint64_t invalidations_received_ = 0;
};

}  // namespace polarcxl::sharing
