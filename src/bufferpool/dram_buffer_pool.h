// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Conventional buffer pool with frames in local DRAM (the DRAM-BP
// configuration of Figure 3). Everything is lost on a crash.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "common/flat_map.h"
#include "sim/memory_space.h"
#include "storage/page_store.h"

namespace polarcxl::bufferpool {

class DramBufferPool final : public StaticDispatchPool<DramBufferPool> {
 public:
  struct Options {
    uint64_t capacity_pages = 1024;
    /// Simulated physical address base of the frame area (must not collide
    /// with other spaces sharing the same CPU cache).
    uint64_t phys_base = 1ULL << 44;
  };

  /// `dram` models the host's local memory; `store` is the durable backing.
  DramBufferPool(Options options, sim::MemorySpace* dram,
                 storage::PageStore* store);
  POLAR_DISALLOW_COPY(DramBufferPool);

  // Hot trio as *Impl: reachable virtually via StaticDispatchPool's final
  // forwards and directly via the engine's PoolKind::kDram dispatch.
  Result<PageRef> FetchImpl(sim::ExecContext& ctx, PageId page_id,
                            bool for_write);
  void UnfixImpl(sim::ExecContext& ctx, const PageRef& ref, PageId page_id,
                 bool dirty, Lsn new_lsn);
  void TouchRangeImpl(sim::ExecContext& ctx, const PageRef& ref, uint32_t off,
                      uint32_t len, bool write);
  Status UpgradeToWriteImpl(sim::ExecContext& ctx, PageRef& ref,
                            PageId page_id) {
    (void)ctx;
    (void)ref;
    (void)page_id;
    return Status::OK();
  }
  void FlushDirtyPages(sim::ExecContext& ctx) override;
  bool Cached(PageId page_id) const override;
  uint64_t capacity_pages() const override { return opt_.capacity_pages; }
  const BufferPoolStats& stats() const override { return stats_; }
  void ResetStats() override { stats_ = {}; }
  uint64_t local_dram_bytes() const override {
    return opt_.capacity_pages * kPageSize;
  }

  std::unique_ptr<PoolSnapshot> CaptureState() const override;
  void RestoreState(const PoolSnapshot& s) override;

 private:
  friend struct DramPoolSnapshot;
  struct BlockMeta {
    PageId page_id = kInvalidPageId;
    bool in_use = false;
    bool dirty = false;
    uint32_t fix_count = 0;
    Lsn lsn = 0;
  };

  uint8_t* FrameData(uint32_t block) {
    return frames_.data() + static_cast<size_t>(block) * kPageSize;
  }
  uint64_t FrameAddr(uint32_t block) const {
    return opt_.phys_base + static_cast<uint64_t>(block) * kPageSize;
  }
  /// Finds a victim frame (free list first, then LRU tail), writing back a
  /// dirty victim. Returns kInvalidBlock when all frames are fixed.
  uint32_t AllocBlock(sim::ExecContext& ctx);

  Options opt_;
  sim::MemorySpace* dram_;
  storage::PageStore* store_;
  std::vector<uint8_t> frames_;
  std::vector<BlockMeta> meta_;
  std::vector<uint32_t> free_list_;
  LruList lru_;
  PageMap page_table_;
  BufferPoolStats stats_;
};

}  // namespace polarcxl::bufferpool
