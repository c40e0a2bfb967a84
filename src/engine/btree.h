// Copyright 2026 The PolarCXLMem Reproduction Authors.
// B+tree over fixed-size (8-byte key, fixed value) entries, running on any
// BufferPool. Structure modification operations (splits, root growth) are
// protected by mini-transactions holding write fixes until commit — the 2PL
// property PolarRecv relies on to repair crashes mid-SMO.
//
// Simplifications vs a production tree, documented in DESIGN.md: deletes
// never merge/shrink nodes (empty leaves stay linked; many engines defer
// merges the same way), and keys are fixed 8-byte integers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "common/slice.h"
#include "common/status.h"
#include "engine/mini_transaction.h"
#include "engine/page.h"
#include "sim/latency_model.h"
#include "storage/redo_log.h"

namespace polarcxl::engine {

/// Page id allocation service (implemented by Database over the superblock).
class PageAllocator {
 public:
  virtual ~PageAllocator() = default;
  virtual Result<PageId> AllocPage(MiniTransaction& mtr) = 0;
};

class BTree {
 public:
  /// Called (within the SMO's mtr) when the root page id changes, so the
  /// owner can persist it in the superblock.
  using RootChangeFn = std::function<void(MiniTransaction&, PageId)>;

  /// Reads the authoritative root page id (from the superblock) at the
  /// start of each descent. Required in multi-primary deployments, where
  /// another node may have grown the tree.
  using RootProviderFn = std::function<PageId(MiniTransaction&)>;

  BTree(bufferpool::BufferPool* pool, storage::RedoLog* log,
        PageAllocator* alloc, uint16_t value_size, PageId root,
        RootChangeFn on_root_change);

  /// Creates an empty tree: allocates + formats the root leaf.
  static Result<PageId> CreateRoot(sim::ExecContext& ctx,
                                   bufferpool::BufferPool* pool,
                                   storage::RedoLog* log, PageAllocator* alloc,
                                   uint16_t value_size);

  /// Inserts a new key. InvalidArgument if the key exists or the value size
  /// mismatches.
  Status Insert(sim::ExecContext& ctx, uint64_t key, Slice value);

  /// Overwrites the full value. NotFound if absent.
  Status Update(sim::ExecContext& ctx, uint64_t key, Slice value);

  /// Overwrites value bytes [off, off+part.size()). NotFound if absent.
  Status UpdatePartial(sim::ExecContext& ctx, uint64_t key, uint32_t off,
                       Slice part);

  /// Reads the value. NotFound if absent.
  Result<std::string> Get(sim::ExecContext& ctx, uint64_t key);

  /// Reads the value into `*out`, reusing its capacity. The hot-path form
  /// of Get(): a point select that recycles the caller's scratch string
  /// performs no heap allocation. Identical charging and result.
  Status GetTo(sim::ExecContext& ctx, uint64_t key, std::string* out);

  /// Removes the key. NotFound if absent.
  Status Delete(sim::ExecContext& ctx, uint64_t key);

  /// Reads up to `count` consecutive entries with key >= start_key.
  /// Returns the number read; values are appended to `out` when non-null.
  Result<size_t> Scan(sim::ExecContext& ctx, uint64_t start_key, size_t count,
                      std::vector<std::pair<uint64_t, std::string>>* out);

  /// Full-tree entry count (test/verification helper; charged like a scan).
  Result<uint64_t> CountAll(sim::ExecContext& ctx);

  PageId root() const { return root_; }
  uint16_t value_size() const { return value_size_; }
  /// Restores the cached root page id (world snapshot/restore; the
  /// superblock copy is restored separately through the page state).
  void set_root(PageId root) { root_ = root; }

  /// Installs a root provider (see RootProviderFn).
  void set_root_provider(RootProviderFn fn) { root_provider_ = std::move(fn); }
  /// Tree height (levels above leaves + 1), from a charged root read.
  Result<uint32_t> Height(sim::ExecContext& ctx);

 private:
  /// Refreshes root_ through the provider, if any.
  PageId RootForDescent(MiniTransaction& mtr);

  /// Body of Scan: walks the leaf chain from `start_key` and calls
  /// `emit(key, row_bytes)` per row (row_bytes spans value_size()).
  template <typename Emit>
  Result<size_t> ScanCore(sim::ExecContext& ctx, uint64_t start_key,
                          size_t count, Emit&& emit);

  /// Descends read-only to the leaf covering `key`, fixing pages in `mtr`
  /// (leaf fixed `for_write` when requested). Charges probe reads and
  /// per-level CPU.
  Result<MiniTransaction::Handle*> DescendToLeaf(MiniTransaction& mtr,
                                                 uint64_t key,
                                                 bool leaf_for_write);

  /// Splits `child` (write-fixed, full) under `parent` (write-fixed, not
  /// full). Returns the separator key routed to the new right sibling.
  Result<uint64_t> SplitChild(MiniTransaction& mtr,
                              MiniTransaction::Handle* parent,
                              MiniTransaction::Handle* child);

  /// Write-mode descent that splits every full node on the path to `key`'s
  /// leaf (preemptive splitting), growing the root if needed.
  Status SplitPathTo(sim::ExecContext& ctx, uint64_t key);

  bufferpool::BufferPool* pool_;
  storage::RedoLog* log_;
  PageAllocator* alloc_;
  uint16_t value_size_;
  PageId root_;
  RootChangeFn on_root_change_;
  RootProviderFn root_provider_;
};

}  // namespace polarcxl::engine
