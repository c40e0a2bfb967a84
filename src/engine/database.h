// Copyright 2026 The PolarCXLMem Reproduction Authors.
// One database instance: buffer pool + redo log + page store + tables, with
// superblock-backed catalog and page allocation. Durable state (page store,
// redo log, CXL region, remote memory pool) is owned by the caller and
// survives the instance — destroying a Database *is* the crash model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/cxl_buffer_pool.h"
#include "bufferpool/tiered_rdma_buffer_pool.h"
#include "common/status.h"
#include "cxl/cxl_fabric.h"
#include "cxl/cxl_memory_manager.h"
#include "engine/btree.h"
#include "engine/table.h"
#include "rdma/remote_memory_pool.h"
#include "sim/cpu_cache.h"
#include "sim/latency_model.h"
#include "sim/memory_space.h"
#include "storage/page_store.h"
#include "storage/redo_log.h"

namespace polarcxl::engine {

enum class BufferPoolKind {
  kDram,       // conventional local buffer pool (the LBP, no remote tier)
  kCxl,        // PolarCXLMem: everything on switch-attached CXL memory
  kTieredRdma  // LBP + RDMA remote memory (the baseline)
};

/// Short name of a pool kind ("dram", "cxl", "tiered_rdma") for bench
/// output keys, table rows and kernel names.
const char* PoolKindName(BufferPoolKind kind);

/// Durable/shared infrastructure the instance runs on.
struct DatabaseEnv {
  storage::PageStore* store = nullptr;
  storage::RedoLog* log = nullptr;
  cxl::CxlAccessor* cxl = nullptr;            // kCxl only
  cxl::CxlMemoryManager* cxl_manager = nullptr;  // kCxl only
  rdma::RemoteMemoryPool* remote = nullptr;   // kTieredRdma only
};

struct DatabaseOptions {
  NodeId node = 0;
  BufferPoolKind pool_kind = BufferPoolKind::kDram;
  uint64_t pool_pages = 1024;
  /// NIC identity of the physical host (instances co-located on one host
  /// share its NIC). Defaults to `node`.
  NodeId rdma_host_node = kInvalidNodeId;
  /// Group-commit window: commits within one window share a WAL flush
  /// (0 = flush per commit). Relieves the WAL-persistency bottleneck the
  /// paper observes at high instance counts.
  Nanos group_commit_window = 0;
  /// This instance's share of the host LLC.
  uint64_t cpu_cache_bytes = 28ULL << 20;
  /// Total verbs retry budget in virtual time for the tiered-RDMA pool
  /// (0 = unlimited; see TieredRdmaBufferPool::Options::retry_budget).
  Nanos verbs_retry_budget = 0;
};

/// Superblock layout (page 0): [64,72) next_page_id, [72,76) num_trees,
/// [76 + 8*i) per-tree {root u32, value_size u16, pad u16}.
class Database : public PageAllocator {
 public:
  static constexpr PageId kSuperblockPage = 0;
  static constexpr uint32_t kMaxTrees = 512;

  /// Fresh instance: builds the pool and formats the superblock.
  static Result<std::unique_ptr<Database>> Create(sim::ExecContext& ctx,
                                                  DatabaseEnv env,
                                                  DatabaseOptions options);

  /// Fresh instance over an externally built pool (multi-primary nodes
  /// share pools built by the sharing layer).
  static Result<std::unique_ptr<Database>> CreateWithPool(
      sim::ExecContext& ctx, DatabaseEnv env, DatabaseOptions options,
      std::unique_ptr<bufferpool::BufferPool> pool);

  /// Restart path: adopts an already-constructed (possibly recovered)
  /// buffer pool and loads the catalog from the superblock.
  static Result<std::unique_ptr<Database>> OpenWithPool(
      sim::ExecContext& ctx, DatabaseEnv env, DatabaseOptions options,
      std::unique_ptr<bufferpool::BufferPool> pool);

  ~Database() override = default;
  POLAR_DISALLOW_COPY(Database);

  // ---- catalog ----
  Result<Table*> CreateTable(sim::ExecContext& ctx, const std::string& name,
                             uint16_t row_size);
  Table* table(const std::string& name);
  Table* table(size_t idx) { return tables_[idx].get(); }
  size_t num_tables() const { return tables_.size(); }

  // ---- PageAllocator ----
  /// Page ids are handed out from a node-local batch; the superblock's
  /// next_page_id is bumped by kAllocBatch at a time so SMOs rarely take an
  /// exclusive latch on page 0 (ids skipped at a crash are simply leaked,
  /// as in production systems).
  static constexpr uint64_t kAllocBatch = 256;
  Result<PageId> AllocPage(MiniTransaction& mtr) override;

  /// Flushes dirty pages and the log, then advances the checkpoint so
  /// recovery scans only the tail (which lets the log release the redo
  /// behind it). If the pool deferred its page flush, the log still flushes
  /// but the checkpoint stays put.
  void Checkpoint(sim::ExecContext& ctx);

  /// Durably flush the redo log (transaction commit), honoring the
  /// group-commit policy. (GroupCommit/Flush attribute their own time.)
  void CommitTransaction(sim::ExecContext& ctx) {
    env_.log->GroupCommit(ctx, opt_.group_commit_window);
    ctx.Advance(sim::kCpuCosts.txn_overhead);
  }
  /// End a read-only transaction (no log flush).
  void FinishReadOnly(sim::ExecContext& ctx) {
    ctx.Advance(sim::kCpuCosts.txn_overhead / 2);
  }

  bufferpool::BufferPool* pool() { return pool_.get(); }
  storage::RedoLog* log() { return env_.log; }
  storage::PageStore* store() { return env_.store; }
  sim::CpuCacheSim* cache() { return cache_.get(); }
  const DatabaseOptions& options() const { return opt_; }
  NodeId node() const { return opt_.node; }

  /// The CXL region backing the pool (kCxl only) — callers persist this to
  /// re-Attach after a crash.
  MemOffset cxl_region() const;

  /// The instance-private DRAM channel, exposed for world snapshotting
  /// (its ledger must round-trip too).
  sim::BandwidthChannel* dram_channel() { return dram_channel_.get(); }

  /// Engine-level mutable state beyond the pool: the page-id allocation
  /// batch and each tree's cached root. The catalog structure (table names,
  /// value sizes) is fixed after load, so only the roots are captured.
  struct EngineState {
    uint64_t alloc_next = 0;
    uint64_t alloc_end = 0;
    std::vector<PageId> roots;
  };
  EngineState CaptureEngineState() const {
    EngineState s;
    s.alloc_next = alloc_cache_next_;
    s.alloc_end = alloc_cache_end_;
    s.roots.reserve(tables_.size());
    for (const auto& t : tables_) s.roots.push_back(t->tree()->root());
    return s;
  }
  void RestoreEngineState(const EngineState& s) {
    POLAR_CHECK(s.roots.size() == tables_.size());
    alloc_cache_next_ = s.alloc_next;
    alloc_cache_end_ = s.alloc_end;
    for (size_t i = 0; i < tables_.size(); i++) {
      tables_[i]->tree()->set_root(s.roots[i]);
    }
  }

 private:
  Database(DatabaseEnv env, DatabaseOptions options);

  Status FormatSuperblock(sim::ExecContext& ctx);
  void PrewarmAllocator(sim::ExecContext& ctx);
  Status LoadCatalog(sim::ExecContext& ctx);
  Result<std::unique_ptr<bufferpool::BufferPool>> BuildFreshPool(
      sim::ExecContext& ctx);
  std::unique_ptr<BTree> MakeTree(uint32_t tree_idx, uint16_t value_size,
                                  PageId root);

  DatabaseEnv env_;
  DatabaseOptions opt_;
  std::unique_ptr<sim::BandwidthChannel> dram_channel_;
  std::unique_ptr<sim::MemorySpace> dram_space_;
  std::unique_ptr<sim::CpuCacheSim> cache_;
  std::unique_ptr<bufferpool::BufferPool> pool_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, size_t> table_index_;
  uint64_t alloc_cache_next_ = 0;
  uint64_t alloc_cache_end_ = 0;
};

}  // namespace polarcxl::engine
