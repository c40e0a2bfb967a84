#include "engine/database.h"

namespace polarcxl::engine {

namespace {
constexpr uint32_t kNextPageIdOff = 64;
constexpr uint32_t kNumTreesOff = 72;
constexpr uint32_t kTreeArrayOff = 76;
constexpr uint32_t kTreeEntrySize = 8;

uint32_t TreeEntryOff(uint32_t idx) {
  return kTreeArrayOff + idx * kTreeEntrySize;
}
}  // namespace

const char* PoolKindName(BufferPoolKind kind) {
  switch (kind) {
    case BufferPoolKind::kDram:
      return "dram";
    case BufferPoolKind::kCxl:
      return "cxl";
    case BufferPoolKind::kTieredRdma:
      return "tiered_rdma";
  }
  return "?";
}

Database::Database(DatabaseEnv env, DatabaseOptions options)
    : env_(env), opt_(std::move(options)) {
  dram_channel_ = std::make_unique<sim::BandwidthChannel>(
      "dram" + std::to_string(opt_.node),
      sim::BandwidthModel{}.dram_bps);
  sim::MemorySpace::Options mo;  // the local DRAM profile
  mo.name = "dram" + std::to_string(opt_.node);
  mo.link = dram_channel_.get();
  dram_space_ = std::make_unique<sim::MemorySpace>(mo);
  cache_ = std::make_unique<sim::CpuCacheSim>(opt_.cpu_cache_bytes);
}

Result<std::unique_ptr<bufferpool::BufferPool>> Database::BuildFreshPool(
    sim::ExecContext& ctx) {
  switch (opt_.pool_kind) {
    case BufferPoolKind::kCxl: {
      POLAR_CHECK_MSG(env_.cxl != nullptr && env_.cxl_manager != nullptr,
                      "kCxl needs a fabric accessor and memory manager");
      bufferpool::CxlBufferPool::Options o;
      o.capacity_pages = opt_.pool_pages;
      o.tenant = opt_.node;
      auto pool = bufferpool::CxlBufferPool::Create(
          ctx, o, env_.cxl, env_.cxl_manager, env_.store);
      if (!pool.ok()) return pool.status();
      return {std::unique_ptr<bufferpool::BufferPool>(std::move(*pool))};
    }
    case BufferPoolKind::kDram:
    case BufferPoolKind::kTieredRdma: {
      // The local buffer pool; the DRAM-BP is the one with no remote tier.
      const bool tiered = opt_.pool_kind == BufferPoolKind::kTieredRdma;
      POLAR_CHECK_MSG(!tiered || env_.remote != nullptr,
                      "kTieredRdma needs a remote memory pool");
      bufferpool::TieredRdmaBufferPool::Options o;
      o.lbp_capacity_pages = opt_.pool_pages;
      o.node = opt_.rdma_host_node != kInvalidNodeId ? opt_.rdma_host_node
                                                     : opt_.node;
      o.tenant = opt_.node;
      o.phys_base = (tiered ? 1ULL << 45 : 1ULL << 44) +
                    (static_cast<uint64_t>(opt_.node) << 38);
      o.retry_budget = opt_.verbs_retry_budget;
      return {std::make_unique<bufferpool::TieredRdmaBufferPool>(
          o, dram_space_.get(), tiered ? env_.remote : nullptr, env_.store)};
    }
  }
  return Status::InvalidArgument("unknown pool kind");
}

Result<std::unique_ptr<Database>> Database::Create(sim::ExecContext& ctx,
                                                   DatabaseEnv env,
                                                   DatabaseOptions options) {
  std::unique_ptr<Database> db(new Database(env, std::move(options)));
  auto pool = db->BuildFreshPool(ctx);
  if (!pool.ok()) return pool.status();
  db->pool_ = std::move(*pool);
  db->pool_->SetWal(env.log);
  POLAR_RETURN_IF_ERROR(db->FormatSuperblock(ctx));
  db->PrewarmAllocator(ctx);
  return db;
}

Result<std::unique_ptr<Database>> Database::CreateWithPool(
    sim::ExecContext& ctx, DatabaseEnv env, DatabaseOptions options,
    std::unique_ptr<bufferpool::BufferPool> pool) {
  std::unique_ptr<Database> db(new Database(env, std::move(options)));
  db->pool_ = std::move(pool);
  db->pool_->SetWal(env.log);
  POLAR_RETURN_IF_ERROR(db->FormatSuperblock(ctx));
  db->PrewarmAllocator(ctx);
  return db;
}

Result<std::unique_ptr<Database>> Database::OpenWithPool(
    sim::ExecContext& ctx, DatabaseEnv env, DatabaseOptions options,
    std::unique_ptr<bufferpool::BufferPool> pool) {
  std::unique_ptr<Database> db(new Database(env, std::move(options)));
  db->pool_ = std::move(pool);
  db->pool_->SetWal(env.log);
  POLAR_RETURN_IF_ERROR(db->LoadCatalog(ctx));
  db->PrewarmAllocator(ctx);
  return db;
}

Status Database::FormatSuperblock(sim::ExecContext& ctx) {
  MiniTransaction mtr(ctx, pool_.get(), env_.log);
  auto h = mtr.GetPage(kSuperblockPage, /*for_write=*/true);
  if (!h.ok()) {
    mtr.Commit();
    return h.status();
  }
  mtr.FormatPage(*h, /*level=*/0, /*value_size=*/0);
  const uint64_t next_page = 1;
  mtr.WriteRaw(*h, kNextPageIdOff, &next_page, sizeof(next_page));
  const uint32_t num_trees = 0;
  mtr.WriteRaw(*h, kNumTreesOff, &num_trees, sizeof(num_trees));
  mtr.Commit();
  env_.log->Flush(ctx);
  return Status::OK();
}

Status Database::LoadCatalog(sim::ExecContext& ctx) {
  MiniTransaction mtr(ctx, pool_.get(), env_.log);
  auto h = mtr.GetPage(kSuperblockPage, /*for_write=*/false);
  if (!h.ok()) {
    mtr.Commit();
    return h.status();
  }
  PageView page = mtr.View(*h);
  if (!page.IsFormatted()) {
    mtr.Commit();
    return Status::Corruption("superblock not formatted");
  }
  uint32_t num_trees;
  std::memcpy(&num_trees, page.raw() + kNumTreesOff, sizeof(num_trees));
  mtr.ChargeRead(*h, kNumTreesOff, sizeof(num_trees));
  if (num_trees > kMaxTrees) {
    mtr.Commit();
    return Status::Corruption("superblock tree count out of range");
  }
  for (uint32_t i = 0; i < num_trees; i++) {
    uint32_t root;
    uint16_t value_size;
    std::memcpy(&root, page.raw() + TreeEntryOff(i), sizeof(root));
    std::memcpy(&value_size, page.raw() + TreeEntryOff(i) + 4,
                sizeof(value_size));
    mtr.ChargeRead(*h, TreeEntryOff(i), kTreeEntrySize);
    // Table names are not durable; recovered tables are addressed by index.
    const std::string name = "table" + std::to_string(i);
    tables_.push_back(std::make_unique<Table>(
        name, MakeTree(i, value_size, root)));
    table_index_[name] = tables_.size() - 1;
  }
  mtr.Commit();
  return Status::OK();
}

std::unique_ptr<BTree> Database::MakeTree(uint32_t tree_idx,
                                          uint16_t value_size, PageId root) {
  auto tree = std::make_unique<BTree>(
      pool_.get(), env_.log, this, value_size, root,
      [this, tree_idx](MiniTransaction& mtr, PageId new_root) {
        auto h = mtr.GetPage(kSuperblockPage, /*for_write=*/true);
        POLAR_CHECK(h.ok());
        const uint32_t root32 = new_root;
        mtr.WriteRaw(*h, TreeEntryOff(tree_idx), &root32, sizeof(root32));
      });
  // Every descent re-reads the authoritative root from the superblock so
  // multi-primary nodes observe each other's root growth.
  tree->set_root_provider([tree_idx](MiniTransaction& mtr) -> PageId {
    auto h = mtr.GetPage(kSuperblockPage, /*for_write=*/false);
    POLAR_CHECK(h.ok());
    uint32_t root32;
    std::memcpy(&root32, (*h)->ref.data + TreeEntryOff(tree_idx),
                sizeof(root32));
    mtr.ChargeRead(*h, TreeEntryOff(tree_idx), sizeof(root32));
    mtr.ReleaseEarly(*h);  // crab: the catalog latch is not held further
    return root32;
  });
  return tree;
}

Result<Table*> Database::CreateTable(sim::ExecContext& ctx,
                                     const std::string& name,
                                     uint16_t row_size) {
  if (table_index_.count(name) > 0) {
    return Status::InvalidArgument("table exists: " + name);
  }
  if (tables_.size() >= kMaxTrees) {
    return Status::OutOfMemory("catalog full");
  }
  auto root = BTree::CreateRoot(ctx, pool_.get(), env_.log, this, row_size);
  if (!root.ok()) return root.status();

  const uint32_t idx = static_cast<uint32_t>(tables_.size());
  {
    MiniTransaction mtr(ctx, pool_.get(), env_.log);
    auto h = mtr.GetPage(kSuperblockPage, /*for_write=*/true);
    if (!h.ok()) {
      mtr.Commit();
      return h.status();
    }
    const uint32_t root32 = *root;
    const uint16_t vs = row_size;
    mtr.WriteRaw(*h, TreeEntryOff(idx), &root32, sizeof(root32));
    mtr.WriteRaw(*h, TreeEntryOff(idx) + 4, &vs, sizeof(vs));
    const uint32_t num_trees = idx + 1;
    mtr.WriteRaw(*h, kNumTreesOff, &num_trees, sizeof(num_trees));
    mtr.Commit();
  }
  env_.log->Flush(ctx);

  tables_.push_back(
      std::make_unique<Table>(name, MakeTree(idx, row_size, *root)));
  table_index_[name] = tables_.size() - 1;
  return tables_.back().get();
}

Table* Database::table(const std::string& name) {
  const auto it = table_index_.find(name);
  return it == table_index_.end() ? nullptr : tables_[it->second].get();
}

void Database::PrewarmAllocator(sim::ExecContext& ctx) {
  // Grab the first id batch at startup so steady-state SMOs never take an
  // exclusive latch on the superblock (important in multi-primary mode,
  // where every descent holds it shared).
  MiniTransaction mtr(ctx, pool_.get(), env_.log);
  auto h = mtr.GetPage(kSuperblockPage, /*for_write=*/true);
  POLAR_CHECK(h.ok());
  PageView page = mtr.View(*h);
  uint64_t next;
  std::memcpy(&next, page.raw() + kNextPageIdOff, sizeof(next));
  mtr.ChargeRead(*h, kNextPageIdOff, sizeof(next));
  const uint64_t bumped = next + kAllocBatch;
  mtr.WriteRaw(*h, kNextPageIdOff, &bumped, sizeof(bumped));
  mtr.Commit();
  alloc_cache_next_ = next;
  alloc_cache_end_ = bumped;
}

Result<PageId> Database::AllocPage(MiniTransaction& mtr) {
  if (alloc_cache_next_ == alloc_cache_end_) {
    auto h = mtr.GetPage(kSuperblockPage, /*for_write=*/true);
    if (!h.ok()) return h.status();
    PageView page = mtr.View(*h);
    uint64_t next;
    std::memcpy(&next, page.raw() + kNextPageIdOff, sizeof(next));
    mtr.ChargeRead(*h, kNextPageIdOff, sizeof(next));
    const uint64_t bumped = next + kAllocBatch;
    mtr.WriteRaw(*h, kNextPageIdOff, &bumped, sizeof(bumped));
    alloc_cache_next_ = next;
    alloc_cache_end_ = bumped;
  }
  return static_cast<PageId>(alloc_cache_next_++);
}

void Database::Checkpoint(sim::ExecContext& ctx) {
  const bool flushed = pool_->FlushDirtyPages(ctx);
  env_.log->Flush(ctx);
  // Nothing runs concurrently within a lane step, so once every dirty page
  // reached storage every durable record is reflected in the page store. A
  // deferred page flush leaves the checkpoint where it was: recovery must
  // still replay the redo of the pages storage never received.
  if (flushed) env_.log->Checkpoint(env_.log->flushed_lsn());
}

MemOffset Database::cxl_region() const {
  POLAR_CHECK(opt_.pool_kind == BufferPoolKind::kCxl);
  return static_cast<bufferpool::CxlBufferPool*>(pool_.get())->region();
}

}  // namespace polarcxl::engine
