// Copyright 2026 The PolarCXLMem Reproduction Authors.
// RDMA-based data sharing baseline (native PolarDB-MP): each node keeps a
// local buffer pool; the authoritative distributed buffer pool lives in
// RDMA-attached remote memory. Releasing a write lock flushes the WHOLE
// 16 KB page to the DBP (write amplification) and sends invalidation
// messages over RDMA to every node caching the page.
//
// As in the tiered pool, transfers are charged in full but move page
// images by reference: a node's frame aliases the DBP image it read, a
// write unlock hands the DBP the frame's image, and a write fix clones the
// image first if anyone else still holds it (bufferpool::WritableImage).
// The sharing driver steps every node on one thread, so the clone's
// reference-count test never races.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bufferpool/buffer_pool.h"
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

  /// Directory of which nodes cache each page (maintained by the lock
  /// service, piggybacked on lock messages).
  void AddCacher(PageId page, NodeId node) {
    cachers_[page] |= 1ULL << node;
  }
  void RemoveCacher(PageId page, NodeId node) {
    const auto it = cachers_.find(page);
    if (it != cachers_.end()) it->second &= ~(1ULL << node);
  }
  uint64_t CachersOf(PageId page) const {
    const auto it = cachers_.find(page);
    return it == cachers_.end() ? 0 : it->second;
  }

  /// Writer-side invalidation: one RDMA message per caching node (charged
  /// to the writer), which drops the page from that node's local pool.
  void InvalidateOthers(sim::ExecContext& ctx, NodeId writer, PageId page);

 private:
  rdma::RdmaNetwork* net_;
  NodeId server_node_;
  rdma::RemoteMemoryPool dbp_;
  DistLockManager locks_;
  storage::PageStore* store_;
  std::unordered_map<PageId, uint64_t> cachers_;
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
  void TouchRange(sim::ExecContext& ctx, const bufferpool::PageRef& ref,
                  uint32_t off, uint32_t len, bool write) override;
  void FlushDirtyPages(sim::ExecContext& ctx) override;
  bool Cached(PageId page_id) const override {
    return page_table_.count(page_id) > 0;
  }
  uint64_t capacity_pages() const override {
    return opt_.lbp_capacity_pages;
  }
  const bufferpool::BufferPoolStats& stats() const override { return stats_; }
  void ResetStats() override { stats_ = {}; }
  uint64_t local_dram_bytes() const override {
    return opt_.lbp_capacity_pages * kPageSize;
  }

  /// Called by the group when another node invalidated `page_id`.
  void DropInvalidated(PageId page_id);

  uint64_t invalidations_received() const { return invalidations_received_; }
  NodeId node() const { return opt_.node; }

 private:
  struct BlockMeta {
    PageId page_id = kInvalidPageId;
    bool in_use = false;
    bool dirty = false;
    uint32_t read_fixes = 0;
    uint32_t write_fixes = 0;
  };

  /// The frame's bytes; writable only through a write fix.
  uint8_t* FrameData(uint32_t block) {
    return const_cast<uint8_t*>(images_[block]->data());
  }
  uint64_t FrameAddr(uint32_t block) const {
    return opt_.phys_base + static_cast<uint64_t>(block) * kPageSize;
  }
  uint32_t AllocBlock(sim::ExecContext& ctx);

  Options opt_;
  sim::MemorySpace* dram_;
  RdmaSharingGroup* group_;
  std::vector<PageImageRef> images_;  // per block; null while free
  std::vector<BlockMeta> meta_;
  std::vector<uint32_t> free_list_;
  bufferpool::LruList lru_;
  std::unordered_map<PageId, uint32_t> page_table_;
  bufferpool::BufferPoolStats stats_;
  uint64_t invalidations_received_ = 0;
};

}  // namespace polarcxl::sharing
