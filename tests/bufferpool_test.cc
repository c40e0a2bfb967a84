// Tests for the three buffer pool implementations, including a
// parameterized suite over the common BufferPool contract and
// implementation-specific behaviours (CXL metadata survival, tiered RDMA
// amplification and page-image aliasing).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bufferpool/cxl_buffer_pool.h"
#include "bufferpool/tiered_rdma_buffer_pool.h"
#include "cxl/cxl_fabric.h"
#include "cxl/cxl_memory_manager.h"
#include "engine/mini_transaction.h"
#include "faults/fault_injector.h"
#include "sim/cpu_cache.h"

namespace polarcxl::bufferpool {
namespace {

using sim::ExecContext;

constexpr uint64_t kPoolPages = 16;
constexpr uint64_t kDramPhysBase = 1ULL << 44;

/// Shared infrastructure for any pool kind.
class PoolEnv {
 public:
  PoolEnv() : disk_("disk"), store_(&disk_), remote_(&net_, 99, 1 << 12) {
    POLAR_CHECK(fabric_.AddDevice(32 << 20).ok());
    auto host = fabric_.AttachHost(0);
    POLAR_CHECK(host.ok());
    acc_ = *host;
    manager_ = std::make_unique<cxl::CxlMemoryManager>(fabric_.capacity());
    net_.RegisterHost(0);
    sim::MemorySpace::Options mo;
    mo.name = "dram";
    dram_ = std::make_unique<sim::MemorySpace>(mo);
  }

  std::unique_ptr<BufferPool> MakePool(const std::string& kind,
                                       uint64_t capacity_pages = kPoolPages) {
    ExecContext ctx;
    if (kind == "dram") {
      // The DRAM-BP: the local buffer pool with no remote tier.
      TieredRdmaBufferPool::Options o;
      o.lbp_capacity_pages = capacity_pages;
      o.phys_base = kDramPhysBase;
      return std::make_unique<TieredRdmaBufferPool>(o, dram_.get(),
                                                    /*remote=*/nullptr,
                                                    &store_);
    }
    if (kind == "cxl") {
      CxlBufferPool::Options o;
      o.capacity_pages = capacity_pages;
      o.tenant = 1;
      auto pool =
          CxlBufferPool::Create(ctx, o, acc_, manager_.get(), &store_);
      POLAR_CHECK(pool.ok());
      return std::move(*pool);
    }
    if (kind == "tiered") {
      TieredRdmaBufferPool::Options o;
      o.lbp_capacity_pages = capacity_pages;
      o.node = 0;
      o.tenant = 1;
      return std::make_unique<TieredRdmaBufferPool>(o, dram_.get(), &remote_,
                                                    &store_);
    }
    POLAR_CHECK_MSG(false, "unknown pool kind");
    return nullptr;
  }

  /// Checks that `ref`, fixed by a MakePool(kind) pool, charges the memory
  /// that holds its frame: the CXL pool's frame address maps back to the
  /// frame's own device bytes, and a local pool's frame `b` sits at
  /// phys_base + b pages of host DRAM.
  void ExpectChargeTarget(const std::string& kind, const PageRef& ref) {
    if (kind == "cxl") {
      ASSERT_EQ(ref.space, acc_->space());
      EXPECT_EQ(acc_->Raw(ref.phys - cxl::CxlFabric::kPhysBase), ref.data);
      return;
    }
    const uint64_t base = kind == "dram"
                              ? kDramPhysBase
                              : TieredRdmaBufferPool::Options{}.phys_base;
    ASSERT_EQ(ref.space, dram_.get());
    EXPECT_EQ(ref.phys, base + uint64_t{ref.block} * kPageSize);
  }

  storage::SimDisk disk_;
  storage::PageStore store_;
  rdma::RdmaNetwork net_;
  rdma::RemoteMemoryPool remote_;
  cxl::CxlFabric fabric_;
  cxl::CxlAccessor* acc_ = nullptr;
  std::unique_ptr<cxl::CxlMemoryManager> manager_;
  std::unique_ptr<sim::MemorySpace> dram_;
};

/// Writes a recognizable page image through the pool.
void WritePagePattern(BufferPool* pool, ExecContext& ctx, PageId id,
                      uint8_t fill, Lsn lsn) {
  auto ref = pool->Fetch(ctx, id, /*for_write=*/true);
  ASSERT_TRUE(ref.ok());
  std::memset(ref->data, fill, kPageSize);
  // Keep the page-LSN convention: bytes [8,16) hold the LSN.
  std::memcpy(ref->data + 8, &lsn, sizeof(lsn));
  ref->Touch(ctx, 0, 256, /*write=*/true);
  pool->Unfix(ctx, *ref, id, /*dirty=*/true, lsn);
}

uint8_t ReadPageFirstByte(BufferPool* pool, ExecContext& ctx, PageId id) {
  auto ref = pool->Fetch(ctx, id, /*for_write=*/false);
  POLAR_CHECK(ref.ok());
  ref->Touch(ctx, 0, 64, /*write=*/false);
  const uint8_t v = ref->data[0];
  pool->Unfix(ctx, *ref, id, /*dirty=*/false, 0);
  return v;
}

class BufferPoolContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  PoolEnv env_;
};

TEST_P(BufferPoolContractTest, MissLoadsFromStoreHitServesFromPool) {
  auto pool = env_.MakePool(GetParam());
  // Seed the store directly.
  std::array<uint8_t, kPageSize> img;
  img.fill(0x5A);
  ExecContext ctx;
  env_.store_.WritePage(ctx, 5, img.data());

  EXPECT_EQ(ReadPageFirstByte(pool.get(), ctx, 5), 0x5A);
  EXPECT_EQ(pool->stats().misses, 1u);
  EXPECT_EQ(ReadPageFirstByte(pool.get(), ctx, 5), 0x5A);
  EXPECT_EQ(pool->stats().hits, 1u);
  EXPECT_TRUE(pool->Cached(5));
}

TEST_P(BufferPoolContractTest, DirtyPageSurvivesEvictionCycle) {
  auto pool = env_.MakePool(GetParam());
  ExecContext ctx;
  WritePagePattern(pool.get(), ctx, 1, 0xAA, /*lsn=*/100);
  // Thrash with enough other pages to evict page 1.
  for (PageId p = 10; p < 10 + 2 * kPoolPages; p++) {
    ReadPageFirstByte(pool.get(), ctx, p);
  }
  EXPECT_FALSE(pool->Cached(1));
  EXPECT_EQ(ReadPageFirstByte(pool.get(), ctx, 1), 0xAA);
}

TEST_P(BufferPoolContractTest, CapacityNeverExceeded) {
  auto pool = env_.MakePool(GetParam());
  ExecContext ctx;
  for (PageId p = 0; p < 3 * kPoolPages; p++) {
    ReadPageFirstByte(pool.get(), ctx, p);
  }
  uint32_t cached = 0;
  for (PageId p = 0; p < 3 * kPoolPages; p++) {
    cached += pool->Cached(p) ? 1 : 0;
  }
  EXPECT_LE(cached, kPoolPages);
  EXPECT_GT(pool->stats().evictions, 0u);
}

TEST_P(BufferPoolContractTest, LruKeepsHotPageResident) {
  auto pool = env_.MakePool(GetParam());
  ExecContext ctx;
  ReadPageFirstByte(pool.get(), ctx, 0);  // hot page
  for (PageId p = 1; p < 2 * kPoolPages; p++) {
    ReadPageFirstByte(pool.get(), ctx, p);
    ReadPageFirstByte(pool.get(), ctx, 0);  // keep touching
  }
  EXPECT_TRUE(pool->Cached(0));
}

TEST_P(BufferPoolContractTest, FlushDirtyPagesPersistsToStore) {
  auto pool = env_.MakePool(GetParam());
  ExecContext ctx;
  WritePagePattern(pool.get(), ctx, 3, 0xCC, /*lsn=*/7);
  EXPECT_FALSE(env_.store_.Contains(3));
  pool->FlushDirtyPages(ctx);
  ASSERT_TRUE(env_.store_.Contains(3));
  EXPECT_EQ(env_.store_.RawPage(3)[0], 0xCC);
}

TEST_P(BufferPoolContractTest, FixedPagesAreNotEvicted) {
  auto pool = env_.MakePool(GetParam());
  ExecContext ctx;
  auto pinned = pool->Fetch(ctx, 0, false);
  ASSERT_TRUE(pinned.ok());
  for (PageId p = 1; p <= 3 * kPoolPages; p++) {
    ReadPageFirstByte(pool.get(), ctx, p);
  }
  EXPECT_TRUE(pool->Cached(0));
  pool->Unfix(ctx, *pinned, 0, false, 0);
}

TEST_P(BufferPoolContractTest, StatsHitRate) {
  auto pool = env_.MakePool(GetParam());
  ExecContext ctx;
  ReadPageFirstByte(pool.get(), ctx, 1);
  ReadPageFirstByte(pool.get(), ctx, 1);
  ReadPageFirstByte(pool.get(), ctx, 1);
  ReadPageFirstByte(pool.get(), ctx, 2);
  EXPECT_DOUBLE_EQ(pool->stats().HitRate(), 0.5);
  pool->ResetStats();
  EXPECT_EQ(pool->stats().fetches, 0u);
}

TEST_P(BufferPoolContractTest, FetchedFrameCarriesItsChargeTarget) {
  auto pool = env_.MakePool(GetParam());
  ExecContext ctx;
  // Misses, a hit and a write fix all hand out the frame's charge target.
  for (PageId id : {PageId{3}, PageId{4}, PageId{3}}) {
    for (bool for_write : {false, true}) {
      auto ref = pool->Fetch(ctx, id, for_write);
      ASSERT_TRUE(ref.ok());
      env_.ExpectChargeTarget(GetParam(), *ref);
      // Touch charges the frame's memory.
      const Nanos t_mem = ctx.t_mem;
      ref->Touch(ctx, 0, 64, /*write=*/false);
      EXPECT_GT(ctx.t_mem, t_mem);
      pool->Unfix(ctx, *ref, id, /*dirty=*/false, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPools, BufferPoolContractTest,
                         ::testing::Values("dram", "cxl", "tiered"),
                         [](const auto& info) { return info.param; });

// ---------- pool-specific behaviour ----------

TEST(DramPoolTest, LocalDramFootprintIsFullCapacity) {
  PoolEnv env;
  auto pool = env.MakePool("dram");
  EXPECT_EQ(pool->local_dram_bytes(), kPoolPages * kPageSize);
}

TEST(CxlPoolTest, NoLocalDramFootprint) {
  PoolEnv env;
  auto pool = env.MakePool("cxl");
  EXPECT_EQ(pool->local_dram_bytes(), 0u);
}

TEST(CxlPoolTest, MetadataAndPagesSurviveCrashAndReattach) {
  PoolEnv env;
  ExecContext ctx;
  CxlBufferPool::Options o;
  o.capacity_pages = kPoolPages;
  o.tenant = 1;
  auto created =
      CxlBufferPool::Create(ctx, o, env.acc_, env.manager_.get(), &env.store_);
  ASSERT_TRUE(created.ok());
  auto& pool = *created;
  const MemOffset region = pool->region();

  WritePagePattern(pool.get(), ctx, 11, 0xEE, /*lsn=*/55);
  WritePagePattern(pool.get(), ctx, 12, 0xDD, /*lsn=*/66);

  // Crash: the pool object (DRAM state) dies; the region survives.
  pool.reset();
  ExecContext ctx2;
  auto attached =
      CxlBufferPool::Attach(ctx2, o, region, env.acc_, &env.store_);
  ASSERT_TRUE(attached.ok());
  auto& repool = *attached;
  // PolarRecv's finish step, over every block's metadata.
  std::vector<std::pair<uint32_t, CxlBlockMeta>> metas;
  for (uint32_t b = 0; b < repool->num_blocks(); b++) {
    metas.emplace_back(b, repool->LoadMeta(ctx2, b));
  }
  repool->FinishRecoveryScanned(ctx2, metas, /*rebuild_lists=*/true);

  EXPECT_TRUE(repool->Cached(11));
  EXPECT_TRUE(repool->Cached(12));
  EXPECT_EQ(ReadPageFirstByte(repool.get(), ctx2, 11), 0xEE);
  EXPECT_EQ(ReadPageFirstByte(repool.get(), ctx2, 12), 0xDD);
  // Metadata survived: block LSNs are intact.
  bool found = false;
  for (uint32_t b = 0; b < repool->num_blocks(); b++) {
    const CxlBlockMeta m = repool->LoadMeta(ctx2, b);
    if (m.in_use != 0 && m.id == 11) {
      EXPECT_EQ(m.lsn, 55u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CxlPoolTest, AttachRejectsUnformattedRegion) {
  PoolEnv env;
  ExecContext ctx;
  CxlBufferPool::Options o;
  o.capacity_pages = kPoolPages;
  auto r = CxlBufferPool::Attach(ctx, o, /*region=*/4 << 20, env.acc_,
                                 &env.store_);
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(CxlPoolTest, WriteFixSetsDurableLockState) {
  PoolEnv env;
  ExecContext ctx;
  CxlBufferPool::Options o;
  o.capacity_pages = kPoolPages;
  o.tenant = 1;
  auto created =
      CxlBufferPool::Create(ctx, o, env.acc_, env.manager_.get(), &env.store_);
  ASSERT_TRUE(created.ok());
  auto& pool = *created;

  auto ref = pool->Fetch(ctx, 8, /*for_write=*/true);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(pool->LoadMeta(ctx, ref->block).lock_state, 1u);
  pool->Unfix(ctx, *ref, 8, true, 10);
  EXPECT_EQ(pool->LoadMeta(ctx, ref->block).lock_state, 0u);
}

TEST(CxlPoolTest, LruMutexClearAfterOperations) {
  PoolEnv env;
  ExecContext ctx;
  CxlBufferPool::Options o;
  o.capacity_pages = kPoolPages;
  o.tenant = 1;
  auto created =
      CxlBufferPool::Create(ctx, o, env.acc_, env.manager_.get(), &env.store_);
  ASSERT_TRUE(created.ok());
  auto& pool = *created;
  for (PageId p = 0; p < 2 * kPoolPages; p++) {
    ReadPageFirstByte(pool.get(), ctx, p);
  }
  EXPECT_EQ(pool->LoadHeader(ctx).lru_mutex, 0u);
}

TEST(CxlPoolTest, FrameAdoptsPageLsnFromStoreImage) {
  PoolEnv env;
  ExecContext ctx;
  // Store a page whose header bytes [8,16) carry LSN 777.
  std::array<uint8_t, kPageSize> img{};
  const Lsn lsn = 777;
  std::memcpy(img.data() + 8, &lsn, sizeof(lsn));
  env.store_.WritePage(ctx, 20, img.data());

  CxlBufferPool::Options o;
  o.capacity_pages = kPoolPages;
  o.tenant = 1;
  auto created =
      CxlBufferPool::Create(ctx, o, env.acc_, env.manager_.get(), &env.store_);
  ASSERT_TRUE(created.ok());
  auto& pool = *created;
  auto ref = pool->Fetch(ctx, 20, false);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(pool->LoadMeta(ctx, ref->block).lsn, 777u);
  pool->Unfix(ctx, *ref, 20, false, 0);
}

TEST(CxlPoolTest, DegradedReadFrameIsUncharged) {
  PoolEnv env;
  faults::FaultInjector injector;
  env.fabric_.set_fault_injector(&injector);
  auto pool = env.MakePool("cxl");
  ExecContext ctx;
  std::array<uint8_t, kPageSize> img;
  img.fill(0x3C);
  env.store_.WritePage(ctx, 5, img.data());

  faults::FaultPlan plan;
  plan.Add({faults::FaultKind::kCxlDown, ctx.now, ctx.now + Millis(1)});
  ASSERT_TRUE(injector.Arm(plan).ok());
  // A clean read inside the outage is served from storage into a local
  // scratch frame, which lies outside every simulated memory tier.
  engine::MiniTransaction mtr(ctx, pool.get(), /*log=*/nullptr);
  auto h = mtr.GetPage(5, /*for_write=*/false);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(pool->stats().degraded_fetches, 1u);
  EXPECT_EQ((*h)->ref.space, nullptr);
  EXPECT_EQ((*h)->ref.data[0], 0x3C);

  const Nanos now = ctx.now;
  const Nanos t_mem = ctx.t_mem;
  mtr.ChargeRead(*h, 0, 256);
  const uint32_t offs[] = {0, 512, 4096};
  mtr.ChargeReadBatch(*h, offs, /*lens=*/nullptr, 3, 64);
  EXPECT_EQ(ctx.t_mem, t_mem);
  EXPECT_EQ(ctx.now, now);
  mtr.Commit();
}

/// Stores a page image filled with `fill` in the remote tier under the
/// tiered pool's tenant, so the pool's next miss on `id` is a remote hit.
void SeedRemote(PoolEnv& env, ExecContext& ctx, PageId id, uint8_t fill) {
  auto image = std::make_shared<PageImage>();
  image->fill(fill);
  ASSERT_TRUE(env.remote_.WritePage(ctx, 0, /*tenant=*/1, id, image).ok());
}

/// Reads enough other pages through `pool` to evict every unfixed frame.
void Thrash(BufferPool* pool, ExecContext& ctx) {
  for (PageId p = 10; p < 10 + 2 * kPoolPages; p++) {
    ReadPageFirstByte(pool, ctx, p);
  }
}

TEST(TieredPoolTest, MissTransfersFullPageOverRdma) {
  PoolEnv env;
  auto pool = env.MakePool("tiered");
  ExecContext ctx;
  // Seed remote pool with the page so the miss is a remote hit.
  SeedRemote(env, ctx, 9, 0x42);
  env.net_.ResetStats();

  EXPECT_EQ(ReadPageFirstByte(pool.get(), ctx, 9), 0x42);
  // One full-page RDMA READ despite touching only 64 bytes: the read
  // amplification the paper measures.
  EXPECT_EQ(env.net_.total_bytes(), static_cast<uint64_t>(kPageSize));
}

TEST(TieredPoolTest, DirtyEvictionWritesFullPageToRemote) {
  PoolEnv env;
  auto pool = env.MakePool("tiered");
  ExecContext ctx;
  WritePagePattern(pool.get(), ctx, 1, 0xAB, 5);
  env.net_.ResetStats();
  for (PageId p = 10; p < 10 + 2 * kPoolPages; p++) {
    ReadPageFirstByte(pool.get(), ctx, p);
  }
  EXPECT_FALSE(pool->Cached(1));
  EXPECT_TRUE(env.remote_.Contains(1, 1));
  // The page went back over RDMA at full size.
  auto* tiered = static_cast<TieredRdmaBufferPool*>(pool.get());
  EXPECT_GT(tiered->stats().dirty_writebacks, 0u);
}

TEST(TieredPoolTest, RemoteTierSurvivesInstanceLoss) {
  PoolEnv env;
  ExecContext ctx;
  {
    auto pool = env.MakePool("tiered");
    WritePagePattern(pool.get(), ctx, 2, 0x77, 9);
    // Evict it so it reaches the remote pool.
    for (PageId p = 10; p < 10 + 2 * kPoolPages; p++) {
      ReadPageFirstByte(pool.get(), ctx, p);
    }
  }  // instance dies; remote pool object remains

  auto pool2 = env.MakePool("tiered");
  EXPECT_EQ(ReadPageFirstByte(pool2.get(), ctx, 2), 0x77);
  auto* tiered = static_cast<TieredRdmaBufferPool*>(pool2.get());
  EXPECT_EQ(tiered->remote_hits(), 1u);
}

// ---------- page-image aliasing (copy on write) ----------

TEST(TieredPoolTest, RemoteHitAliasesRemoteImage) {
  PoolEnv env;
  auto pool = env.MakePool("tiered");
  ExecContext ctx;
  SeedRemote(env, ctx, 9, 0x42);
  auto ref = pool->Fetch(ctx, 9, /*for_write=*/false);
  ASSERT_TRUE(ref.ok());
  // The frame is the remote tier's image itself: no bytes were copied.
  EXPECT_EQ(ref->data, env.remote_.Peek(1, 9)->data());
  pool->Unfix(ctx, *ref, 9, /*dirty=*/false, 0);
}

TEST(TieredPoolTest, WriteFixGetsPrivateClone) {
  PoolEnv env;
  auto pool = env.MakePool("tiered");
  ExecContext ctx;
  SeedRemote(env, ctx, 9, 0x42);
  const PageImageRef remote_image = env.remote_.Peek(1, 9);
  auto ref = pool->Fetch(ctx, 9, /*for_write=*/true);
  ASSERT_TRUE(ref.ok());
  EXPECT_NE(ref->data, remote_image->data());
  EXPECT_EQ(ref->data[kPageSize - 1], 0x42);  // the clone carries the bytes
  std::memset(ref->data, 0x77, 64);
  pool->Unfix(ctx, *ref, 9, /*dirty=*/true, 1);
  // The remote tier serves the old bytes until the write-back.
  EXPECT_EQ(env.remote_.Peek(1, 9), remote_image);
  EXPECT_EQ((*remote_image)[0], 0x42);
  Thrash(pool.get(), ctx);
  EXPECT_EQ((*env.remote_.Peek(1, 9))[0], 0x77);
}

TEST(TieredPoolTest, MtrUpgradeMovesHandleToPrivateClone) {
  PoolEnv env;
  auto pool = env.MakePool("tiered");
  storage::RedoLog log(&env.disk_);
  ExecContext ctx;
  SeedRemote(env, ctx, 9, 0x42);
  const PageImageRef remote_image = env.remote_.Peek(1, 9);
  {
    engine::MiniTransaction mtr(ctx, pool.get(), &log);
    auto read = mtr.GetPage(9, /*for_write=*/false);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ((*read)->ref.data, remote_image->data());
    auto write = mtr.GetPage(9, /*for_write=*/true);
    ASSERT_TRUE(write.ok());
    ASSERT_EQ(*write, *read);  // the same handle, upgraded in place
    // The handle now points at the frame's private clone.
    EXPECT_NE((*write)->ref.data, remote_image->data());
    const uint8_t patch[4] = {1, 2, 3, 4};
    mtr.WriteRaw(*write, 100, patch, sizeof(patch));
    EXPECT_EQ((*write)->ref.data[100], 1);
    mtr.Commit();
  }
  EXPECT_EQ(env.remote_.Peek(1, 9), remote_image);
  EXPECT_EQ((*remote_image)[100], 0x42);
  Thrash(pool.get(), ctx);
  EXPECT_EQ((*env.remote_.Peek(1, 9))[100], 1);
}

TEST(TieredPoolTest, DirtyEvictionHandsFrameImageToRemote) {
  PoolEnv env;
  auto pool = env.MakePool("tiered");
  ExecContext ctx;
  auto ref = pool->Fetch(ctx, 1, /*for_write=*/true);
  ASSERT_TRUE(ref.ok());
  const uint8_t* frame = ref->data;
  std::memset(ref->data, 0xAB, kPageSize);
  pool->Unfix(ctx, *ref, 1, /*dirty=*/true, 5);
  Thrash(pool.get(), ctx);
  EXPECT_FALSE(pool->Cached(1));
  ASSERT_TRUE(env.remote_.Contains(1, 1));
  EXPECT_EQ(env.remote_.Peek(1, 1)->data(), frame);
}

TEST(TieredPoolTest, SnapshotKeepsBytesWrittenAfterCapture) {
  PoolEnv env;
  auto pool = env.MakePool("tiered");
  ExecContext ctx;
  WritePagePattern(pool.get(), ctx, 4, 0xAA, 1);
  const std::unique_ptr<PoolSnapshot> snap = pool->CaptureState();
  WritePagePattern(pool.get(), ctx, 4, 0xBB, 2);
  EXPECT_EQ(ReadPageFirstByte(pool.get(), ctx, 4), 0xBB);
  pool->RestoreState(*snap);
  EXPECT_EQ(ReadPageFirstByte(pool.get(), ctx, 4), 0xAA);
  WritePagePattern(pool.get(), ctx, 4, 0xCC, 3);
  pool->RestoreState(*snap);
  EXPECT_EQ(ReadPageFirstByte(pool.get(), ctx, 4), 0xAA);
}

TEST(TieredPoolTest, DirtyFrameSharedWithSnapshotWritesBack) {
  // A frame dirtied before a capture shares its image with the snapshot;
  // evicting it hands that same image to the remote tier, and restoring
  // both tiers brings the dirty frame back, to be written back again.
  PoolEnv env;
  auto pool = env.MakePool("tiered");
  ExecContext ctx;
  WritePagePattern(pool.get(), ctx, 2, 0x5A, 1);
  const std::unique_ptr<PoolSnapshot> snap = pool->CaptureState();
  const rdma::RemoteMemoryPool::State remote_snap = env.remote_.Capture();
  for (int round = 0; round < 2; round++) {
    Thrash(pool.get(), ctx);
    EXPECT_FALSE(pool->Cached(2));
    EXPECT_EQ((*env.remote_.Peek(1, 2))[0], 0x5A);
    pool->RestoreState(*snap);
    env.remote_.Restore(remote_snap);
    EXPECT_TRUE(pool->Cached(2));
  }
  EXPECT_EQ(ReadPageFirstByte(pool.get(), ctx, 2), 0x5A);
}

TEST(TieredPoolDeathTest, WriteThroughReadFixTrips) {
  PoolEnv env;
  auto pool = env.MakePool("tiered");
  ExecContext ctx;
  SeedRemote(env, ctx, 9, 0x42);
  auto ref = pool->Fetch(ctx, 9, /*for_write=*/false);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref->data, env.remote_.Peek(1, 9)->data());
  // A write through a read fix lands in the remote tier's image; the dirty
  // unfix that would hide it trips the copy-on-write check.
  ref->data[0] = 0x43;
  EXPECT_DEATH(pool->Unfix(ctx, *ref, 9, /*dirty=*/true, 1),
               "image is shared");
}

}  // namespace
}  // namespace polarcxl::bufferpool
