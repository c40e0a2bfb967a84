// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Node-side buffer pool for multi-primary data sharing on PolarCXLMem
// (Section 3.3). The node keeps only a *page metadata buffer* (page id ->
// CXL address + flag location) in local DRAM; page frames live in the
// shared DBP in CXL memory. Distributed page locks gate every access; a
// write unlock clflushes only the dirty cache lines (cache-line-granularity
// synchronization — the headline advantage over the RDMA baseline's
// full-page flush).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "bufferpool/buffer_pool.h"
#include "sharing/buffer_fusion.h"
#include "sharing/dist_lock_manager.h"

namespace polarcxl::sharing {

class CxlSharedBufferPool final : public bufferpool::BufferPool {
 public:
  struct Options {
    NodeId node = 0;
    /// Ablation: synchronize whole pages on write unlock instead of only
    /// the dirty cache lines (what an RDMA-style protocol must do).
    bool full_page_sync = false;
    /// Forward-looking mode (paper Section 2.1/6): CXL 3.0 switches provide
    /// hardware cache coherency, removing the software protocol entirely —
    /// no clflush on unlock, no invalid-flag checks, no software
    /// invalidation; the hardware back-invalidates peers' lines at a small
    /// per-line snoop cost.
    bool hardware_coherency = false;
  };

  CxlSharedBufferPool(Options options, cxl::CxlAccessor* acc,
                      BufferFusionServer* server, DistLockManager* locks,
                      storage::PageStore* store)
      : opt_(options),
        acc_(acc),
        server_(server),
        locks_(locks),
        store_(store) {}
  POLAR_DISALLOW_COPY(CxlSharedBufferPool);

  Result<bufferpool::PageRef> Fetch(sim::ExecContext& ctx, PageId page_id,
                                    bool for_write) override;
  void Unfix(sim::ExecContext& ctx, const bufferpool::PageRef& ref,
             PageId page_id, bool dirty, Lsn new_lsn) override;
  Status UpgradeToWrite(sim::ExecContext& ctx, bufferpool::PageRef& ref,
                        PageId page_id) override;
  /// The DBP in CXL is authoritative (writers clflush on unlock); the
  /// server persists frames on recycle, so there is nothing to flush here.
  bool FlushDirtyPages(sim::ExecContext& ctx) override {
    (void)ctx;
    return true;
  }
  bool Cached(PageId page_id) const override {
    return local_.count(page_id) > 0;
  }
  uint64_t capacity_pages() const override { return server_->flags().slots(); }
  const bufferpool::BufferPoolStats& stats() const override { return stats_; }
  void ResetStats() override { stats_ = {}; }
  /// Only the page metadata buffer lives in DRAM.
  uint64_t local_dram_bytes() const override {
    return local_.size() * sizeof(LocalMeta);
  }

  // Diagnostics for tests/benches.
  uint64_t invalidations_observed() const { return invalidations_observed_; }
  uint64_t removals_observed() const { return removals_observed_; }
  uint64_t dirty_lines_flushed() const { return dirty_lines_flushed_; }

 private:
  struct LocalMeta {
    uint32_t slot = 0;
    MemOffset data_off = 0;
    uint64_t generation = 0;
    uint32_t read_fixes = 0;
    uint32_t write_fixes = 0;
  };

  /// Resolves page -> local meta, consulting removal/invalid flags and the
  /// buffer fusion server as needed.
  LocalMeta* Resolve(sim::ExecContext& ctx, PageId page_id);

  Options opt_;
  cxl::CxlAccessor* acc_;
  BufferFusionServer* server_;
  DistLockManager* locks_;
  storage::PageStore* store_;
  std::unordered_map<PageId, LocalMeta> local_;
  bufferpool::BufferPoolStats stats_;
  uint64_t invalidations_observed_ = 0;
  uint64_t removals_observed_ = 0;
  uint64_t dirty_lines_flushed_ = 0;
};

}  // namespace polarcxl::sharing
