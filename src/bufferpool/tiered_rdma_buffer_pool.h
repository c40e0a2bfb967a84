// Copyright 2026 The PolarCXLMem Reproduction Authors.
// The local buffer pool (LBP): page frames in local DRAM under an LRU and a
// page table, optionally tiered over an RDMA-attached remote memory pool.
// It is the one DRAM-frame store of the code base:
//  - with a remote tier it is the RDMA baseline (LegoBase / PolarDB
//    Serverless style, Section 2.2). Data moves between tiers at whole-page
//    granularity — the source of the read/write amplification the paper
//    measures — and everything local is lost on a crash, while the remote
//    pool survives;
//  - with a null remote tier it is the DRAM-BP of Figure 3: a miss reads
//    storage, and dirty evictions and checkpoints write storage;
//  - the RDMA multi-primary sharing pool (sharing/rdma_sharing.h) owns one
//    as its frame store, tiered over the group's distributed buffer pool,
//    and adds its page-lock and invalidation protocol on top.
//
// Every transfer is charged in full (NIC verbs op, DRAM stream), but the
// host moves no bytes: an LBP frame holds a handle to an immutable page
// image, which it shares with the remote tier after a remote hit, a
// populate or a write-back, and with a world snapshot after a capture. A
// frame clones its image only when it is fixed for write while someone
// else still holds the image (WritableImage), so the one copy left costs
// once per write fix, never per access. The clone's `use_count() > 1` test
// is race-free: images are keyed by tenant, and under epoch-parallel
// execution only the shard thread that owns this instance takes or drops
// references to them (snapshots capture and restore between epochs).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "common/flat_map.h"
#include "rdma/remote_memory_pool.h"
#include "sim/memory_space.h"
#include "storage/page_store.h"

namespace polarcxl::bufferpool {

class TieredRdmaBufferPool final : public BufferPool {
 public:
  struct Options {
    /// Local buffer pool capacity (the paper sweeps 10%..100% of the
    /// disaggregated memory size; a DRAM-BP holds the whole dataset).
    uint64_t lbp_capacity_pages = 512;
    NodeId node = 0;    // this host's NIC identity
    NodeId tenant = 0;  // tenant key in the remote pool
    uint64_t phys_base = 1ULL << 45;
    /// Total verbs retry budget in virtual time (0 = unlimited, the legacy
    /// behavior). Each backoff wait consumes budget; a successful remote op
    /// refills it. Once spent, verbs ops fail fast with
    /// Status::Unavailable (stats().retries_exhausted counts them) instead
    /// of burning more backoff — overload protection for open-loop serving,
    /// where every microsecond of retry wait grows the admission queue.
    Nanos retry_budget = 0;
  };

  /// `dram` models the host's local memory, `remote` the far tier (null:
  /// none, the DRAM-BP) and `store` the durable backing.
  TieredRdmaBufferPool(Options options, sim::MemorySpace* dram,
                       rdma::RemoteMemoryPool* remote,
                       storage::PageStore* store);
  POLAR_DISALLOW_COPY(TieredRdmaBufferPool);

  Result<PageRef> Fetch(sim::ExecContext& ctx, PageId page_id,
                        bool for_write) override;
  void Unfix(sim::ExecContext& ctx, const PageRef& ref, PageId page_id,
             bool dirty, Lsn new_lsn) override;
  /// Moves the frame to a private image if it is shared (see the class
  /// comment) and points `ref` at it.
  Status UpgradeToWrite(sim::ExecContext& ctx, PageRef& ref,
                        PageId page_id) override {
    (void)ctx;
    (void)page_id;
    ref.data = WritableImage(st_.images[ref.block]);
    return Status::OK();
  }
  bool FlushDirtyPages(sim::ExecContext& ctx) override;
  bool Cached(PageId page_id) const override;
  uint64_t capacity_pages() const override { return opt_.lbp_capacity_pages; }
  const BufferPoolStats& stats() const override { return st_.stats; }
  void ResetStats() override { st_.stats = {}; }
  uint64_t local_dram_bytes() const override {
    return opt_.lbp_capacity_pages * kPageSize;
  }

  /// Remote-tier hit statistics (misses that avoided storage I/O).
  uint64_t remote_hits() const { return st_.remote_hits; }
  rdma::RemoteMemoryPool* remote() { return remote_; }

  /// Writes a dirty frame back and marks it clean: the frame streams out
  /// of DRAM, the WAL rule holds, and the page goes to the remote tier as a
  /// full-page RDMA WRITE, or to storage without a remote tier or when the
  /// remote write fails. Eviction calls it on a dirty victim.
  void WriteBack(sim::ExecContext& ctx, uint32_t block);
  /// Drops an unfixed page's frame without writing it back (its copy is
  /// stale elsewhere). Returns whether the page was cached.
  bool Drop(PageId page_id);

  std::unique_ptr<PoolSnapshot> CaptureState() const override;
  void RestoreState(const PoolSnapshot& s) override;

  // Transient verbs failures (injected NIC faults) are retried with capped
  // exponential backoff in virtual time before falling back to storage.
  static constexpr int kVerbsAttempts = 4;
  static constexpr Nanos kVerbsBackoffBase = 2'000;  // 2 us, doubling
  static constexpr Nanos kVerbsBackoffCap = 16'000;

 private:
  friend struct TieredPoolSnapshot;

  /// remote_->ReadPage/WritePage with the retry/backoff policy. Only
  /// IOError (a faulted NIC / dropped verbs op) is retried; NotFound and
  /// OutOfMemory are semantic outcomes and return immediately. With a
  /// finite Options::retry_budget, a backoff that would overdraw the
  /// remaining budget is skipped and the op returns Status::Unavailable.
  Result<PageImageRef> RemoteReadRetry(sim::ExecContext& ctx, PageId page_id);
  Status RemoteWriteRetry(sim::ExecContext& ctx, PageId page_id,
                          const PageImageRef& image);
  /// True (and budget consumed) if the retry loop may back off another
  /// `backoff` ns; false once the budget is spent.
  bool ConsumeRetryBudget(Nanos backoff);
  struct BlockMeta {
    PageId page_id = kInvalidPageId;
    bool in_use = false;
    bool dirty = false;
    uint32_t fix_count = 0;
    Lsn lsn = 0;
  };

  /// Everything mutable but the remote tier, which snapshots itself via
  /// RemoteMemoryPool::Capture. Frames are image handles, not bytes: a
  /// frame written after a capture clones first, so a captured State's
  /// images never change.
  struct State {
    std::vector<PageImageRef> images;  // per block; null while free
    std::vector<BlockMeta> meta;
    std::vector<uint32_t> free_list;
    LruList lru{0};
    PageMap page_table;
    BufferPoolStats stats;
    uint64_t remote_hits = 0;
    /// Remaining verbs backoff budget (meaningful only when
    /// opt_.retry_budget > 0; refilled by any successful remote op).
    Nanos retry_budget_left = 0;
  };

  /// The frame's bytes. Writable only through a write fix, which made the
  /// frame the image's sole holder.
  uint8_t* FrameData(uint32_t block) {
    return const_cast<uint8_t*>(st_.images[block]->data());
  }
  uint64_t FrameAddr(uint32_t block) const {
    return opt_.phys_base + static_cast<uint64_t>(block) * kPageSize;
  }
  uint32_t AllocBlock(sim::ExecContext& ctx);
  /// The miss path's image: the remote tier's own (the frame aliases it),
  /// else a fresh one read from storage, which populates the remote tier.
  PageImageRef LoadImage(sim::ExecContext& ctx, PageId page_id);

  Options opt_;
  sim::MemorySpace* dram_;
  rdma::RemoteMemoryPool* remote_;  // null: no far tier (the DRAM-BP)
  storage::PageStore* store_;
  State st_;
};

}  // namespace polarcxl::bufferpool
