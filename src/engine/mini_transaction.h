// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Mini-transactions (InnoDB-style mtr): the unit of page-level atomicity.
// An mtr write-fixes every page it modifies (two-phase: locks held until
// commit — which is what lets PolarRecv identify pages torn by a crash
// mid-SMO), accumulates redo records, and on commit appends them to the log
// atomically, stamps page LSNs, and releases the fixes.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/cxl_buffer_pool.h"
#include "bufferpool/tiered_rdma_buffer_pool.h"
#include "common/arena.h"
#include "common/status.h"
#include "engine/page.h"
#include "sim/exec_context.h"
#include "sim/memory_space.h"
#include "storage/redo_log.h"

namespace polarcxl::engine {

class MiniTransaction {
 public:
  struct Handle {
    PageId id = kInvalidPageId;
    bufferpool::PageRef ref;
    bool write_fixed = false;
    bool dirty = false;
    Lsn last_lsn = 0;  // end LSN of the newest record touching this page
  };

  MiniTransaction(sim::ExecContext& ctx, bufferpool::BufferPool* pool,
                  storage::RedoLog* log);
  ~MiniTransaction();
  POLAR_DISALLOW_COPY(MiniTransaction);

  /// Fixes a page in this mtr (idempotent per page; a later for_write
  /// upgrades the fix mode for accounting purposes).
  Result<Handle*> GetPage(PageId page_id, bool for_write);

  PageView View(Handle* h) { return PageView(h->ref.data); }

  /// Charges a read of [off, off+len) of the page.
  ///
  /// Defined inline: this is the single most-called engine entry point
  /// (one call per B-tree probe), and the PageRef charge target lets it
  /// reach MemorySpace::Touch with no virtual call.
  void ChargeRead(Handle* h, uint32_t off, uint32_t len) {
    h->ref.Touch(ctx_, off, len, /*write=*/false);
  }

  /// Charges a whole probe list (uniform `len` bytes per offset) in one
  /// fused MemorySpace::TouchSeqMasked call — simulated state and time are
  /// identical to calling ChargeRead() per probe in order, but one lane
  /// step pays the per-call overhead once instead of per slot.
  void ChargeReadSeq(Handle* h, const ProbeList& probes, uint32_t len) {
    ChargeReadBatch(h, probes.offs, nullptr, probes.count, len);
  }

  /// General fused read charge: element i reads `lens ? lens[i] : len`
  /// bytes at page offset offs[i]. Used to fuse a point lookup's probe
  /// charges with its payload charge into a single kernel call.
  void ChargeReadBatch(Handle* h, const uint32_t* offs, const uint32_t* lens,
                       uint32_t n, uint32_t len) {
    const bufferpool::PageRef& r = h->ref;
    if (r.space != nullptr) {
      r.space->TouchSeqMasked(ctx_, r.phys, offs, lens, n, len,
                              /*write_mask=*/0);
    }
  }

  /// Latch crabbing: releases a clean read fix before commit (interior
  /// nodes during a descent). The handle must not be used afterwards.
  void ReleaseEarly(Handle* h);

  // --- logged mutations (mutate the frame AND emit redo) ---
  void WriteRaw(Handle* h, uint32_t off, const void* src, uint32_t len);
  void FormatPage(Handle* h, uint8_t level, uint16_t value_size);
  void InsertEntry(Handle* h, uint64_t key, const uint8_t* value);
  /// Returns false if the key was absent (nothing logged).
  bool EraseEntry(Handle* h, uint64_t key);

  /// Appends the redo batch, stamps page LSNs, unfixes everything.
  /// Returns the mtr's end LSN (0 if the mtr made no writes).
  Lsn Commit();

  sim::ExecContext& ctx() { return ctx_; }
  size_t num_records() const;
  bool committed() const { return committed_; }

 private:
  /// Per-thread recycled scratch backing one in-flight mtr: the redo batch
  /// under construction, the record -> handle back-pointers, and the arena
  /// feeding handle-overflow chunks. Acquire/Release keep a thread-local
  /// free stack, so after warm-up constructing and committing an mtr
  /// performs no heap allocation (the appended records' payload vectors
  /// are the one exception — they move into the log and must outlive us).
  struct Scratch;

  /// Stable-pointer handle store. The common mtr (one B-tree operation)
  /// fixes at most tree-height pages, so handles live in an inline array
  /// and constructing an mtr allocates nothing; rare deep mtrs (long leaf
  /// scans) overflow into fixed-size chunks bump-allocated from the
  /// scratch arena. Pointers returned by Add() stay valid until clear()
  /// in both regimes.
  class HandleList {
   public:
    size_t size() const { return size_; }
    Handle* Add(Arena* arena, const Handle& h) {
      if (size_ < kInline) {
        inline_[size_] = h;
        return &inline_[size_++];
      }
      const size_t oi = size_ - kInline;
      if (oi % kChunk == 0) {
        Chunk* c = arena->New<Chunk>();
        c->next = nullptr;
        if (tail_ != nullptr) tail_->next = c;
        else head_ = c;
        tail_ = c;
      }
      size_++;
      tail_->items[oi % kChunk] = h;
      return &tail_->items[oi % kChunk];
    }
    /// Visits every handle in insertion order (the order Unfix must run).
    template <typename Fn>
    void ForEach(Fn&& fn) {
      const size_t n_inline = size_ < kInline ? size_ : kInline;
      for (size_t i = 0; i < n_inline; i++) fn(inline_[i]);
      size_t rem = size_ - n_inline;
      for (Chunk* c = head_; rem > 0; c = c->next) {
        const size_t n = rem < kChunk ? rem : kChunk;
        for (size_t i = 0; i < n; i++) fn(c->items[i]);
        rem -= n;
      }
    }
    void clear() {
      for (size_t i = 0; i < size_ && i < kInline; i++) inline_[i] = Handle{};
      head_ = tail_ = nullptr;  // chunk memory is reclaimed by arena reset
      size_ = 0;
    }

   private:
    static constexpr size_t kInline = 8;
    static constexpr size_t kChunk = 16;
    struct Chunk {
      Handle items[kChunk];
      Chunk* next;
    };
    std::array<Handle, kInline> inline_{};
    size_t size_ = 0;
    Chunk* head_ = nullptr;
    Chunk* tail_ = nullptr;
  };

  static std::vector<Scratch*>& FreeScratchList();
  static Scratch* AcquireScratch();
  static void ReleaseScratch(Scratch* s);

  // --- pool dispatch ---
  //
  // The mtr layer is the engine's only pool call site (BTree/Table never
  // touch the pool directly), so the static dispatch lives here: switch on
  // the pool's PoolKind tag and call `fn` with the concrete pool. Both
  // built-in pools are final classes, so their calls are direct and inline
  // under LTO; kOther (the sharing pools) takes the virtual call with
  // identical behavior.
  template <typename Fn>
  decltype(auto) WithPool(Fn&& fn) {
    switch (pool_->kind()) {
      case bufferpool::PoolKind::kCxl:
        return fn(*static_cast<bufferpool::CxlBufferPool*>(pool_));
      case bufferpool::PoolKind::kTieredRdma:
        return fn(*static_cast<bufferpool::TieredRdmaBufferPool*>(pool_));
      case bufferpool::PoolKind::kOther:
        break;
    }
    return fn(*pool_);
  }

  storage::RedoRecord& NewRecord(Handle* h, storage::RedoKind kind);

  sim::ExecContext& ctx_;
  bufferpool::BufferPool* pool_;
  storage::RedoLog* log_;
  HandleList handles_;
  Scratch* scratch_;
  bool committed_ = false;
};

}  // namespace polarcxl::engine
