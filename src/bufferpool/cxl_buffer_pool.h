// Copyright 2026 The PolarCXLMem Reproduction Authors.
// PolarCXLMem: the paper's core contribution (Section 3.1). The entire
// buffer pool — page frames AND their metadata blocks {id, lock_state,
// prev, next, lsn} — lives in switch-attached CXL memory with no local
// tier. Because the CXL memory box has its own power supply, everything in
// this pool survives a host crash, enabling PolarRecv (Section 3.2).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "common/flat_map.h"
#include "cxl/cxl_fabric.h"
#include "cxl/cxl_memory_manager.h"
#include "storage/page_store.h"

namespace polarcxl::bufferpool {

/// Pool header, one cache line at the start of the tenant's CXL region.
/// `lru_mutex` mirrors the in-DRAM LRU mutex state into CXL (Section 3.2):
/// if a crash interrupts a list manipulation, recovery sees it set and
/// rebuilds the lists instead of trusting them.
struct CxlPoolHeader {
  uint64_t magic = 0;
  uint32_t num_blocks = 0;
  uint32_t lru_mutex = 0;
  uint32_t free_head = kInvalidBlock;
  uint32_t inuse_head = kInvalidBlock;
  uint32_t inuse_tail = kInvalidBlock;
  uint32_t initialized = 0;
  uint8_t pad[32] = {};
};
static_assert(sizeof(CxlPoolHeader) == 64);

/// Per-block metadata, one cache line, stored in CXL (Figure 4's block:
/// id | lock_state | prev | next | lsn | data).
struct CxlBlockMeta {
  PageId id = kInvalidPageId;
  uint32_t lock_state = 0;  // 1 while the page is fixed for write
  uint32_t prev = kInvalidBlock;
  uint32_t next = kInvalidBlock;
  Lsn lsn = 0;              // newest LSN applied to the page
  uint32_t in_use = 0;
  uint8_t pad[36] = {};
};
static_assert(sizeof(CxlBlockMeta) == 64);

class CxlBufferPool final : public BufferPool {
 public:
  static constexpr uint64_t kMagic = 0x504F4C41524358ULL;  // "POLARCX"

  struct Options {
    uint64_t capacity_pages = 1024;
    NodeId tenant = 0;
  };

  /// Region size needed for `capacity_pages`.
  static uint64_t RegionBytes(uint64_t capacity_pages);

  /// Creates a fresh pool: allocates a region from the memory manager and
  /// formats header, metadata and free list in CXL memory.
  static Result<std::unique_ptr<CxlBufferPool>> Create(
      sim::ExecContext& ctx, Options options, cxl::CxlAccessor* accessor,
      cxl::CxlMemoryManager* manager, storage::PageStore* store);

  /// Attaches to a region that survived a crash. Performs no formatting;
  /// the DRAM page table starts empty — run recovery::PolarRecv to rebuild
  /// it from the CXL-resident metadata before serving traffic.
  static Result<std::unique_ptr<CxlBufferPool>> Attach(
      sim::ExecContext& ctx, Options options, MemOffset region,
      cxl::CxlAccessor* accessor, storage::PageStore* store);

  // ---- BufferPool interface ----
  Result<PageRef> Fetch(sim::ExecContext& ctx, PageId page_id,
                        bool for_write) override;
  void Unfix(sim::ExecContext& ctx, const PageRef& ref, PageId page_id,
             bool dirty, Lsn new_lsn) override;
  Status UpgradeToWrite(sim::ExecContext& ctx, PageRef& ref,
                        PageId page_id) override;
  bool FlushDirtyPages(sim::ExecContext& ctx) override;
  bool Cached(PageId page_id) const override;
  uint64_t capacity_pages() const override { return opt_.capacity_pages; }
  const BufferPoolStats& stats() const override { return st_.stats; }
  void ResetStats() override { st_.stats = {}; }
  /// The headline cost win: no local DRAM frames at all.
  uint64_t local_dram_bytes() const override { return 0; }

  // ---- PolarRecv introspection / recovery surface ----
  CxlPoolHeader LoadHeader(sim::ExecContext& ctx);
  void StoreHeader(sim::ExecContext& ctx, const CxlPoolHeader& h);
  CxlBlockMeta LoadMeta(sim::ExecContext& ctx, uint32_t block);
  void StoreMeta(sim::ExecContext& ctx, uint32_t block,
                 const CxlBlockMeta& m);
  uint8_t* FrameRaw(uint32_t block);
  /// Charge a full-frame streaming access (page rebuild during recovery).
  void ChargeFrameStream(sim::ExecContext& ctx, uint32_t block, bool write);
  /// Charge a partial-frame cached access (recovery scanning page headers).
  void ChargeFrameTouch(sim::ExecContext& ctx, uint32_t block, uint32_t off,
                        uint32_t len, bool write);

  /// After PolarRecv has validated/repaired blocks: rebuild the DRAM page
  /// table from the block metadata the caller already scanned (`metas`;
  /// PolarRecv reads every block meta exactly once); when `rebuild_lists`
  /// is set, also rewrite the free/in-use lists (LRU recency order is lost
  /// in a crash — the paper accepts this), the only step that incurs
  /// further CXL stores. All in-use pages are conservatively marked dirty
  /// so the next checkpoint persists them.
  void FinishRecoveryScanned(
      sim::ExecContext& ctx,
      const std::vector<std::pair<uint32_t, CxlBlockMeta>>& metas,
      bool rebuild_lists);

  MemOffset region() const { return region_; }
  uint32_t num_blocks() const {
    return static_cast<uint32_t>(opt_.capacity_pages);
  }
  cxl::CxlAccessor* accessor() { return acc_; }
  storage::PageStore* store() { return store_; }
  NodeId tenant() const { return opt_.tenant; }

  /// Number of local scratch frames used to keep serving clean reads from
  /// storage while the CXL device is unreachable (graceful degradation).
  static constexpr uint32_t kEmergencyFrames = 8;

  /// DRAM-side state only: the CXL-resident header/meta/frames live in
  /// fabric device memory, which the world snapshot captures wholesale.
  std::unique_ptr<PoolSnapshot> CaptureState() const override;
  void RestoreState(const PoolSnapshot& s) override;

 private:
  friend struct CxlPoolSnapshot;

  CxlBufferPool(Options options, MemOffset region, cxl::CxlAccessor* accessor,
                storage::PageStore* store);

  /// A transient DRAM frame serving one degraded read. Lives outside the
  /// block index space (ref.block >= num_blocks() marks a fallback fix).
  struct EmergencyFrame {
    PageId page_id = kInvalidPageId;
    uint32_t fix_count = 0;
    std::vector<uint8_t> data;  // kPageSize bytes once first used
  };

  /// Everything a snapshot captures, all of it DRAM and lost on a crash.
  struct State {
    PageMap page_table;
    std::vector<uint32_t> fix_count;
    std::vector<uint8_t> dirty;
    std::vector<EmergencyFrame> emergency;  // lazily sized, degraded mode only
    BufferPoolStats stats;
  };

  /// Fallback taken when CheckFault rejects a fetch: writes and dirty
  /// cached pages propagate the fault Status; clean reads are re-read from
  /// storage into an emergency frame.
  Result<PageRef> FetchDegraded(sim::ExecContext& ctx, PageId page_id,
                                bool for_write, Status cause);

  MemOffset HeaderOff() const { return region_; }
  MemOffset MetaOff(uint32_t block) const {
    return region_ + 64 + static_cast<MemOffset>(block) * 64;
  }
  MemOffset FrameOff(uint32_t block) const {
    return frames_off_ + static_cast<MemOffset>(block) * kPageSize;
  }

  /// In-place views of the CXL-resident header/meta lines, for the hot list
  /// helpers: field updates go straight to device memory instead of
  /// load-struct / modify / store-struct round trips (~1.3 KB of 64-byte
  /// copies per Fetch). Every use still issues the same charged Touches in
  /// the same order as the LoadPod/StorePod pairs it replaces — only the
  /// host-side copying is gone. Legal in-place: both structs are trivially
  /// copyable aggregates and the constructor checks the region's alignment.
  CxlPoolHeader* HeaderRaw() {
    return reinterpret_cast<CxlPoolHeader*>(acc_->Raw(HeaderOff()));
  }
  CxlBlockMeta* MetaRaw(uint32_t block) {
    return reinterpret_cast<CxlBlockMeta*>(acc_->Raw(MetaOff(block)));
  }
  /// Deferred-charge log for the fused Fetch/Unfix metadata path. While a
  /// log is armed (charge_log_ != nullptr), ChargeHeader/ChargeMeta append
  /// (offset, write) pairs instead of charging immediately; FlushCharges
  /// then issues the whole sequence as one MemorySpace::TouchSeqMasked call
  /// — same lines, flags and order as the immediate charges, one kernel
  /// call instead of ~15. All entries are single 64-byte lines.
  struct ChargeLog {
    static constexpr uint32_t kMax = 24;
    uint32_t offs[kMax];  // relative to region_
    uint32_t n = 0;
    uint64_t write_mask = 0;
  };

  /// Charge one header/meta line access (what LoadPod/StorePod charged).
  void ChargeHeader(sim::ExecContext& ctx, bool write) {
    if (charge_log_ != nullptr) {
      AppendCharge(0, write);
      return;
    }
    acc_->Touch(ctx, HeaderOff(), sizeof(CxlPoolHeader), write);
  }
  void ChargeMeta(sim::ExecContext& ctx, uint32_t block, bool write) {
    if (charge_log_ != nullptr) {
      AppendCharge(static_cast<uint32_t>(MetaOff(block) - region_), write);
      return;
    }
    acc_->Touch(ctx, MetaOff(block), sizeof(CxlBlockMeta), write);
  }
  void AppendCharge(uint32_t rel_off, bool write) {
    ChargeLog* log = charge_log_;
    POLAR_CHECK(log->n < ChargeLog::kMax);
    log->write_mask |= static_cast<uint64_t>(write) << log->n;
    log->offs[log->n++] = rel_off;
  }
  void FlushCharges(sim::ExecContext& ctx, const ChargeLog& log) {
    charge_log_ = nullptr;
    acc_->space()->TouchSeqMasked(ctx, acc_->PhysAddr(region_), log.offs,
                                  /*lens=*/nullptr, log.n,
                                  sizeof(CxlBlockMeta), log.write_mask);
  }

  void FormatFresh(sim::ExecContext& ctx);

  // List helpers; every pointer update is a charged CXL access. The mutex
  // mirror write would be a ntstore/clwb pair in a real implementation.
  void SetLruMutex(sim::ExecContext& ctx, uint32_t v);
  uint32_t PopFree(sim::ExecContext& ctx);
  void PushFree(sim::ExecContext& ctx, uint32_t block);
  void InUseUnlink(sim::ExecContext& ctx, const CxlBlockMeta& m);
  void InUsePushFront(sim::ExecContext& ctx, uint32_t block,
                      CxlBlockMeta* m);
  uint32_t EvictTail(sim::ExecContext& ctx);

  Options opt_;
  MemOffset region_;
  MemOffset frames_off_;
  cxl::CxlAccessor* acc_;
  storage::PageStore* store_;
  State st_;
  ChargeLog* charge_log_ = nullptr;  // armed only inside the fused hot paths
};

}  // namespace polarcxl::bufferpool
