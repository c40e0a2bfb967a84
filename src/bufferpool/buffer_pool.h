// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Buffer pool abstraction the transaction engine runs on. The engine asks
// for a page, charges its accesses to the returned frame through the
// PageRef, and releases it — without knowing whether the frame lives in
// local DRAM, CXL memory, or a tiered local/remote hierarchy (Section 2.2:
// "the buffer pool operates transparently").
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/exec_context.h"
#include "sim/memory_space.h"
#include "storage/redo_log.h"

namespace polarcxl::bufferpool {

constexpr uint32_t kInvalidBlock = UINT32_MAX;

/// A fixed (pinned + latched) page frame.
///
/// `space`/`phys` are the frame's charge target, resolved once at Fetch
/// time; every access to the frame's bytes is charged through Touch. A null
/// `space` marks a frame outside every simulated memory tier (the CXL
/// pool's degraded-mode scratch frame), whose accesses are uncharged.
struct PageRef {
  uint32_t block = kInvalidBlock;
  uint8_t* data = nullptr;  // 16 KB frame
  sim::MemorySpace* space = nullptr;  // charge target (null: uncharged)
  uint64_t phys = 0;                  // simulated phys addr of frame byte 0

  bool valid() const { return block != kInvalidBlock; }

  /// Charges the cost of accessing [off, off+len) of the frame. Callers
  /// read/write the bytes through `data` directly.
  void Touch(sim::ExecContext& ctx, uint32_t off, uint32_t len,
             bool write) const {
    if (space != nullptr) space->Touch(ctx, phys + off, len, write);
  }
};

struct BufferPoolStats {
  uint64_t fetches = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  // ---- fault-injection / graceful-degradation accounting ----
  uint64_t degraded_fetches = 0;   // served from a fallback tier mid-fault
  uint64_t fault_rejections = 0;   // fetches refused with a fault Status
  uint64_t fault_retries = 0;      // verbs ops retried after a fault error
  uint64_t retries_exhausted = 0;  // ops failed fast: retry budget spent

  double HitRate() const {
    return fetches == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(fetches);
  }
};

/// Opaque pool-private state blob for world snapshot/restore (each pool
/// subclass derives its own).
struct PoolSnapshot {
  virtual ~PoolSnapshot() = default;
};

/// Concrete-type tag for the engine's devirtualized fast path. The two
/// built-in single-node pools are final classes that advertise their kind;
/// the mtr layer switches on it and calls through the concrete type, so
/// Fetch/Unfix/UpgradeToWrite are direct calls that inline under LTO.
/// kTieredRdma is the local buffer pool, with or without a remote tier (the
/// DRAM-BP has none). The multi-primary sharing pools stay kOther and take
/// the virtual path; behavior is identical either way.
enum class PoolKind : uint8_t {
  kOther = 0,
  kCxl,
  kTieredRdma,
};

class BufferPool {
 public:
  virtual ~BufferPool() = default;

  /// Concrete-type tag for static dispatch (see PoolKind). Stored, not
  /// virtual: the whole point is reading it without an indirect call.
  PoolKind kind() const { return kind_; }

  /// Fixes the frame for `page_id`, loading it from the backing tier(s) on
  /// a miss. `for_write` marks the page write-locked for the duration of
  /// the fix (recorded durably by pools that support instant recovery).
  virtual Result<PageRef> Fetch(sim::ExecContext& ctx, PageId page_id,
                                bool for_write) = 0;

  /// Releases a fix. `dirty` reports that the frame bytes were modified up
  /// to `new_lsn` (ignored when !dirty).
  virtual void Unfix(sim::ExecContext& ctx, const PageRef& ref,
                     PageId page_id, bool dirty, Lsn new_lsn) = 0;

  /// Upgrades an existing fix from read to write mode (re-latching).
  /// Fails when the fix cannot be promoted — e.g. a degraded-mode fallback
  /// frame held while the pool's memory tier is faulted out. A pool whose
  /// frames share page images (the local buffer pool) may move the frame
  /// to a private copy, so `ref` is updated in place: callers must refetch
  /// `ref.data` afterwards.
  virtual Status UpgradeToWrite(sim::ExecContext& ctx, PageRef& ref,
                                PageId page_id) = 0;

  /// Writes every dirty page back to the page store (checkpoint path).
  /// Returns whether every dirty page reached storage; a pool that had to
  /// defer the flush returns false, and the checkpoint must not advance.
  virtual bool FlushDirtyPages(sim::ExecContext& ctx) = 0;

  /// Whether the pool currently holds the page (uncharged introspection).
  virtual bool Cached(PageId page_id) const = 0;

  virtual uint64_t capacity_pages() const = 0;
  virtual const BufferPoolStats& stats() const = 0;
  virtual void ResetStats() = 0;

  /// Local DRAM consumed by page frames (0 for PolarCXLMem — the paper's
  /// cost argument).
  virtual uint64_t local_dram_bytes() const = 0;

  /// Wires the write-ahead log so page write-backs can honor the WAL rule
  /// (flush redo up to the page's LSN before externalizing the page).
  void SetWal(storage::RedoLog* wal) { wal_ = wal; }

  /// World snapshot/restore of the pool's mutable state (frames, page
  /// table, replacement order, stats). Pools used by the snapshotting
  /// drivers override both; the default refuses, so a pool that silently
  /// lacks support can never produce a divergent fork.
  virtual std::unique_ptr<PoolSnapshot> CaptureState() const {
    POLAR_CHECK_MSG(false, "buffer pool does not support snapshots");
    return nullptr;
  }
  virtual void RestoreState(const PoolSnapshot& s) {
    (void)s;
    POLAR_CHECK_MSG(false, "buffer pool does not support snapshots");
  }

 protected:
  /// Page-LSN convention: bytes [8,16) of every frame hold the page LSN.
  static Lsn PeekPageLsn(const uint8_t* frame) {
    Lsn lsn;
    std::memcpy(&lsn, frame + 8, sizeof(lsn));
    return lsn;
  }

  /// WAL rule enforcement before a page image leaves the pool.
  void EnsureWalDurable(sim::ExecContext& ctx, const uint8_t* frame) {
    if (wal_ != nullptr && PeekPageLsn(frame) > wal_->flushed_lsn()) {
      wal_->Flush(ctx);
    }
  }

  BufferPool() = default;
  explicit BufferPool(PoolKind kind) : kind_(kind) {}

  storage::RedoLog* wal_ = nullptr;

 private:
  PoolKind kind_ = PoolKind::kOther;
};

/// Copy-on-write for frames that alias shared page images (the local
/// buffer pool): a frame's bytes may be written only while the frame holds
/// the sole reference to its image. Clones the image if anyone else (the
/// remote tier, a world snapshot) still holds it, and returns its bytes.
uint8_t* WritableImage(PageImageRef& image);

/// Intrusive doubly-linked LRU over block indices, array-backed. Used by
/// the local buffer pool; the CXL pool keeps its links in CXL memory
/// instead so they survive crashes.
class LruList {
 public:
  explicit LruList(uint32_t capacity)
      : prev_(capacity, kInvalidBlock), next_(capacity, kInvalidBlock) {}

  void PushFront(uint32_t b);
  void Remove(uint32_t b);
  void MoveToFront(uint32_t b) {
    Remove(b);
    PushFront(b);
  }
  uint32_t head() const { return head_; }
  uint32_t tail() const { return tail_; }
  bool empty() const { return head_ == kInvalidBlock; }
  uint32_t next(uint32_t b) const { return next_[b]; }
  uint32_t prev(uint32_t b) const { return prev_[b]; }

 private:
  std::vector<uint32_t> prev_;
  std::vector<uint32_t> next_;
  uint32_t head_ = kInvalidBlock;
  uint32_t tail_ = kInvalidBlock;
};

}  // namespace polarcxl::bufferpool
