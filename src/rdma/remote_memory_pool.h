// Copyright 2026 The PolarCXLMem Reproduction Authors.
// RDMA-attached remote memory pool: the page server used by the tiered
// (LegoBase / PolarDB Serverless-style) baseline. Pages are transferred at
// whole-page granularity — the source of the paper's read/write
// amplification. The pool's contents survive a database host crash.
//
// The transfer is simulated, not performed: every ReadPage/WritePage
// charges a full 16 KB verbs op on the NICs, but the bytes move by
// reference. The pool stores immutable page images (PageImageRef); a read
// hands the caller the stored handle and a write stores the caller's, so
// the client's buffer-pool frame and the pool alias one image until the
// client clones it to write (see TieredRdmaBufferPool).
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/types.h"
#include "rdma/rdma_network.h"

namespace polarcxl::rdma {

/// Key of a page in the pool: pages of different tenants never alias.
struct PoolPageKey {
  NodeId tenant;
  PageId page_id;
  bool operator==(const PoolPageKey& o) const {
    return tenant == o.tenant && page_id == o.page_id;
  }
};

struct PoolPageKeyHash {
  size_t operator()(const PoolPageKey& k) const {
    return (static_cast<uint64_t>(k.tenant) << 32) ^ k.page_id;
  }
};

/// Memory-server process holding page images reachable via one-sided RDMA.
class RemoteMemoryPool {
 public:
  /// `server_node` is this pool's NIC identity on `network`.
  RemoteMemoryPool(RdmaNetwork* network, NodeId server_node,
                   uint64_t capacity_pages);
  POLAR_DISALLOW_COPY(RemoteMemoryPool);

  /// RDMA-writes a full page image from `client`'s DRAM into the pool,
  /// which keeps `image` itself: the caller must not modify it afterwards.
  /// IOError if the verbs op cannot be posted, OutOfMemory if the page is
  /// new and the pool is full.
  Status WritePage(sim::ExecContext& ctx, NodeId client, NodeId tenant,
                   PageId page_id, PageImageRef image);

  /// RDMA-reads a full page image: returns the stored image itself.
  /// IOError if the verbs op cannot be posted, NotFound if absent.
  Result<PageImageRef> ReadPage(sim::ExecContext& ctx, NodeId client,
                                NodeId tenant, PageId page_id);

  /// The stored image, or null if absent. Uncharged (checks and tests).
  PageImageRef Peek(NodeId tenant, PageId page_id) const;

  /// Drops a page (tenant shrink / invalidation). No network charge.
  void Drop(NodeId tenant, PageId page_id);
  /// Drops all pages of a tenant.
  void DropTenant(NodeId tenant);

  bool Contains(NodeId tenant, PageId page_id) const;
  uint64_t pages_stored() const {
    std::lock_guard<std::mutex> lk(mu_);
    return pages_.size();
  }
  uint64_t capacity_pages() const { return capacity_pages_; }
  NodeId server_node() const { return server_node_; }
  RdmaNetwork* network() { return network_; }

  /// Snapshot of the stored pages: Capture copies the map of image
  /// handles. Stored images are never modified, so the snapshot shares
  /// them with the live pool and with client frames.
  struct State {
    std::unordered_map<PoolPageKey, PageImageRef, PoolPageKeyHash> pages;
  };
  State Capture() const {
    std::lock_guard<std::mutex> lk(mu_);
    return State{pages_};
  }
  void Restore(const State& s) {
    std::lock_guard<std::mutex> lk(mu_);
    pages_ = s.pages;
  }

 private:
  RdmaNetwork* network_;
  NodeId server_node_;
  uint64_t capacity_pages_;
  // Guards the page table: under epoch-parallel execution instance shards
  // fetch/evict pool pages concurrently. Page *timing* stays deterministic
  // (it flows through the deferred NIC channels); the lock only keeps the
  // hash map itself coherent. Images are keyed by tenant, and a tenant is
  // one instance stepped by one shard thread, so only that thread ever
  // takes or drops a reference to one of its images between barriers.
  mutable std::mutex mu_;
  std::unordered_map<PoolPageKey, PageImageRef, PoolPageKeyHash> pages_;
};

}  // namespace polarcxl::rdma
