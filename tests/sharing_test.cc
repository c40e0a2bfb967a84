// Tests for the multi-primary sharing layer: distributed locks, coherency
// flags, buffer fusion server, and both shared buffer pool implementations
// driven by two real database nodes over one dataset.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "engine/database.h"
#include "sharing/buffer_fusion.h"
#include "sharing/mp_node.h"
#include "sharing/rdma_sharing.h"
#include "tests/test_world.h"

namespace polarcxl::sharing {
namespace {

using engine::Database;
using engine::DatabaseEnv;
using engine::DatabaseOptions;
using sim::ExecContext;

// ---------- DistLockManager ----------

TEST(DistLockTest, CxlTransportChargesRoundTrip) {
  DistLockManager locks(std::make_unique<CxlLockTransport>(2600));
  ExecContext ctx;
  locks.AcquireExclusive(ctx, 0, 7);
  EXPECT_EQ(ctx.now, 2600);
  ctx.now = 10000;
  locks.ReleaseExclusive(ctx, 0, 7);
  EXPECT_EQ(ctx.now, 10000 + 1300);
}

TEST(DistLockTest, ConflictQueuesInVirtualTime) {
  DistLockManager locks(std::make_unique<CxlLockTransport>(0));
  ExecContext a;
  locks.AcquireExclusive(a, 0, 7);
  a.now = 50000;
  locks.ReleaseExclusive(a, 0, 7);

  ExecContext b;
  b.now = 20000;
  locks.AcquireExclusive(b, 1, 7);
  // Waited past the spin threshold: grant time plus one context switch.
  EXPECT_EQ(b.now, 50000 + DistLockManager::kContextSwitchCost);
  EXPECT_EQ(locks.table().contended_acquisitions(), 1u);

  // A short wait spins: no context-switch penalty.
  ExecContext c;
  c.now = 60000;
  locks.ReleaseExclusive(b, 1, 7);  // ends at b.now (66000)
  locks.AcquireExclusive(c, 2, 7);
  EXPECT_EQ(c.now, b.now);
}

TEST(DistLockTest, RdmaTransportConsumesNic) {
  rdma::RdmaNetwork net;
  net.RegisterHost(0);
  net.RegisterHost(9);
  DistLockManager locks(std::make_unique<RdmaLockTransport>(&net, 9));
  ExecContext ctx;
  locks.AcquireShared(ctx, 0, 3);
  EXPECT_GE(ctx.now, net.latency().rdma_rpc_round_trip);
  EXPECT_GT(net.total_ops(), 0u);
}

// ---------- shared world fixture ----------

/// The multi-primary cluster shape of TestWorld: bigger CXL device, NIC
/// hosts 0/1/200 (200 = fat memory-server NIC), and no eager host-0 fabric
/// attachment — each test attaches the nodes it wants so switch-port
/// numbering stays under its control.
struct MpWorld : TestWorld {
  static Options MpOptions() {
    Options o;
    o.cxl_device_bytes = 256ull << 20;
    o.attach_host0 = false;
    o.mp_hosts = true;
    return o;
  }
  MpWorld() : TestWorld(MpOptions()) {}
};

// ---------- CoherencyFlagTable ----------

TEST(CoherencyFlagsTest, FlagsAreVisibleAcrossHosts) {
  MpWorld world;
  cxl::CxlAccessor* server = world.Attach(90);
  cxl::CxlAccessor* node = world.Attach(0);
  CoherencyFlagTable flags(0, /*slots=*/16, /*max_nodes=*/4);
  ExecContext sctx;
  ExecContext nctx;

  EXPECT_EQ(flags.Load(nctx, node, 3, 1).invalid, 0u);
  flags.SetInvalid(sctx, server, 3, 1);
  EXPECT_EQ(flags.Load(nctx, node, 3, 1).invalid, 1u);
  EXPECT_EQ(flags.Load(nctx, node, 3, 0).invalid, 0u);  // per-node isolation
  flags.ClearInvalid(nctx, node, 3, 1);
  EXPECT_EQ(flags.Load(nctx, node, 3, 1).invalid, 0u);

  flags.SetRemoval(sctx, server, 3, 1);
  EXPECT_EQ(flags.Load(nctx, node, 3, 1).removal, 1u);
}

TEST(CoherencyFlagsTest, UncachedReadsPayDeviceLatency) {
  MpWorld world;
  cxl::CxlAccessor* node = world.Attach(0);
  sim::CpuCacheSim cache(1 << 20);
  ExecContext ctx;
  ctx.cache = &cache;
  CoherencyFlagTable flags(0, 16, 4);
  flags.Load(ctx, node, 1, 1);
  const Nanos first = ctx.now;
  flags.Load(ctx, node, 1, 1);
  // Second read costs the same: the flag is never served from CPU cache.
  EXPECT_NEAR(static_cast<double>(ctx.now - first), static_cast<double>(first),
              5);
}

// ---------- BufferFusionServer ----------

class BufferFusionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_acc_ = world_.Attach(90);
    locks_ = std::make_unique<DistLockManager>(
        std::make_unique<CxlLockTransport>(2600));
    BufferFusionServer::Options so;
    so.dbp_pages = 8;
    so.max_nodes = 4;
    ExecContext ctx;
    auto server = BufferFusionServer::Create(ctx, so, server_acc_,
                                             world_.manager.get(),
                                             &world_.store, locks_.get());
    ASSERT_TRUE(server.ok());
    server_ = std::move(*server);
  }

  MpWorld world_;
  cxl::CxlAccessor* server_acc_ = nullptr;
  std::unique_ptr<DistLockManager> locks_;
  std::unique_ptr<BufferFusionServer> server_;
};

TEST_F(BufferFusionTest, SamePageSameSlotAcrossNodes) {
  ExecContext ctx;
  auto a = server_->GetPage(ctx, 0, 42);
  auto b = server_->GetPage(ctx, 1, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->slot, b->slot);
  EXPECT_EQ(a->data_off, b->data_off);
  EXPECT_TRUE(a->fresh);
  EXPECT_FALSE(b->fresh);
  EXPECT_EQ(server_->ActiveMask(42), 0b11u);
}

TEST_F(BufferFusionTest, WriteUnlockNotifySetsOtherNodesFlags) {
  ExecContext ctx;
  auto a = server_->GetPage(ctx, 0, 42);
  server_->GetPage(ctx, 1, 42).ok();
  server_->GetPage(ctx, 2, 42).ok();
  server_->WriteUnlockNotify(ctx, /*writer=*/0, 42);
  cxl::CxlAccessor* n1 = world_.Attach(1);
  ExecContext nctx;
  EXPECT_EQ(server_->flags().Load(nctx, n1, a->slot, 1).invalid, 1u);
  EXPECT_EQ(server_->flags().Load(nctx, n1, a->slot, 2).invalid, 1u);
  EXPECT_EQ(server_->flags().Load(nctx, n1, a->slot, 0).invalid, 0u);
}

TEST_F(BufferFusionTest, RecycleEvictsLruAndRaisesRemoval) {
  ExecContext ctx;
  for (PageId p = 0; p < 8; p++) {
    ASSERT_TRUE(server_->GetPage(ctx, 0, p).ok());
  }
  EXPECT_EQ(server_->free_slots(), 0u);
  // Touch pages 1..7 again so page 0 is LRU.
  for (PageId p = 1; p < 8; p++) server_->GetPage(ctx, 0, p).ok();
  auto slot0 = server_->GetPage(ctx, 0, 1);  // find any slot for flag check
  ASSERT_TRUE(slot0.ok());

  // A 9th page forces a recycle of page 0.
  auto g = server_->GetPage(ctx, 0, 100);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(server_->HasPage(0));
  EXPECT_TRUE(server_->HasPage(100));
  // Page 0's content was persisted to the store before reuse.
  EXPECT_TRUE(world_.store.Contains(0));
}

TEST_F(BufferFusionTest, RpcCostCharged) {
  ExecContext ctx;
  server_->GetPage(ctx, 0, 5).ok();
  EXPECT_GE(ctx.now, 2600);
}

TEST_F(BufferFusionTest, CreateRejectsMoreNodesThanMaskBits) {
  // A slot's active mask has one bit per node.
  BufferFusionServer::Options so;
  so.dbp_pages = 8;
  so.max_nodes = 65;
  ExecContext ctx;
  auto server = BufferFusionServer::Create(ctx, so, server_acc_,
                                           world_.manager.get(),
                                           &world_.store, locks_.get());
  EXPECT_TRUE(server.status().IsInvalidArgument());
}

// ---------- two real nodes sharing one dataset (CXL protocol) ----------

class CxlSharingIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    locks_ = std::make_unique<DistLockManager>(
        std::make_unique<CxlLockTransport>(2600));
    BufferFusionServer::Options so;
    so.dbp_pages = 2048;
    so.max_nodes = 8;
    ExecContext ctx;
    auto server =
        BufferFusionServer::Create(ctx, so, world_.Attach(90),
                                   world_.manager.get(), &world_.store,
                                   locks_.get());
    ASSERT_TRUE(server.ok());
    server_ = std::move(*server);

    for (NodeId n = 0; n < 2; n++) {
      CxlSharedBufferPool::Options po;
      po.node = n;
      accs_[n] = world_.Attach(n);
      auto pool = std::make_unique<CxlSharedBufferPool>(
          po, accs_[n], server_.get(), locks_.get(), &world_.store);
      pools_[n] = pool.get();
      DatabaseEnv env;
      env.store = &world_.store;
      env.log = &world_.log;
      DatabaseOptions opt;
      opt.node = n;
      auto db = n == 0 ? Database::CreateWithPool(ctx, env, opt,
                                                  std::move(pool))
                       : Database::OpenWithPool(ctx, env, opt,
                                                std::move(pool));
      ASSERT_TRUE(db.ok());
      dbs_[n] = std::move(*db);
      if (n == 0) {
        auto t = dbs_[0]->CreateTable(ctx, "t", 64);
        ASSERT_TRUE(t.ok());
        for (uint64_t k = 1; k <= 500; k++) {
          ASSERT_TRUE((*t)->Insert(ctx, k, std::string(64, 'a')).ok());
        }
        dbs_[0]->CommitTransaction(ctx);
      }
    }
  }

  MpWorld world_;
  std::unique_ptr<DistLockManager> locks_;
  std::unique_ptr<BufferFusionServer> server_;
  cxl::CxlAccessor* accs_[2] = {};
  CxlSharedBufferPool* pools_[2] = {};
  std::unique_ptr<Database> dbs_[2];
};

TEST_F(CxlSharingIntegrationTest, FetchedFrameCarriesItsChargeTarget) {
  for (NodeId n = 0; n < 2; n++) {
    ExecContext ctx;
    ctx.now = Millis(1 + n);
    for (bool for_write : {false, true}) {
      auto ref = pools_[n]->Fetch(ctx, Database::kSuperblockPage, for_write);
      ASSERT_TRUE(ref.ok());
      // The frame is the page's DBP slot in CXL memory, seen through this
      // node's accessor; its address maps back to the frame's own bytes.
      ASSERT_EQ(ref->space, accs_[n]->space());
      EXPECT_EQ(ref->phys, accs_[n]->PhysAddr(server_->DataOff(ref->block)));
      EXPECT_EQ(accs_[n]->Raw(ref->phys - cxl::CxlFabric::kPhysBase),
                ref->data);
      pools_[n]->Unfix(ctx, *ref, Database::kSuperblockPage,
                       /*dirty=*/false, 0);
    }
  }
}

TEST_F(CxlSharingIntegrationTest, WritesByOneNodeVisibleToOther) {
  ExecContext a;
  a.now = Millis(1);
  ExecContext b;
  b.now = Millis(2);
  ASSERT_TRUE(
      dbs_[0]->table(size_t{0})->Update(a, 7, std::string(64, 'Z')).ok());
  auto got = dbs_[1]->table(size_t{0})->Get(b, 7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, std::string(64, 'Z'));
}

TEST_F(CxlSharingIntegrationTest, InvalidationObservedAfterRemoteWrite) {
  // Node 1 reads the row (caches the page), node 0 writes it, node 1 reads
  // again -> must observe the invalid flag and drop its CPU cache.
  ExecContext b;
  b.now = Millis(1);
  ASSERT_TRUE(dbs_[1]->table(size_t{0})->Get(b, 7).ok());
  const uint64_t inv_before = pools_[1]->invalidations_observed();

  ExecContext a;
  a.now = Millis(2);
  ASSERT_TRUE(
      dbs_[0]->table(size_t{0})->Update(a, 7, std::string(64, 'Q')).ok());

  b.now = Millis(3);
  auto got = dbs_[1]->table(size_t{0})->Get(b, 7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, std::string(64, 'Q'));
  EXPECT_GT(pools_[1]->invalidations_observed(), inv_before);
}

TEST_F(CxlSharingIntegrationTest, OnlyDirtyLinesAreFlushed) {
  ExecContext a;
  a.cache = dbs_[0]->cache();  // dirty-line tracking needs the CPU cache
  a.now = Millis(1);
  const uint64_t before = pools_[0]->dirty_lines_flushed();
  // A 4-byte update dirties a handful of lines (entry + header + LSN), far
  // fewer than the 256 lines a full-page flush would move.
  ASSERT_TRUE(dbs_[0]
                  ->table(size_t{0})
                  ->UpdateColumn(a, 7, 0, Slice("abcd", 4))
                  .ok());
  const uint64_t flushed = pools_[0]->dirty_lines_flushed() - before;
  EXPECT_GT(flushed, 0u);
  EXPECT_LT(flushed, 32u);
}

TEST_F(CxlSharingIntegrationTest, ConcurrentWritersSerializeOnPageLock) {
  ExecContext a;
  a.now = Millis(1);
  ExecContext b;
  b.now = Millis(1);
  ASSERT_TRUE(
      dbs_[0]->table(size_t{0})->Update(a, 7, std::string(64, 'x')).ok());
  ASSERT_TRUE(
      dbs_[1]->table(size_t{0})->Update(b, 7, std::string(64, 'y')).ok());
  EXPECT_GT(locks_->table().contended_acquisitions(), 0u);
}

// ---------- RDMA sharing baseline ----------

class RdmaSharingIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    group_ = std::make_unique<RdmaSharingGroup>(&world_.net, 200, 4096,
                                                &world_.store);
    ExecContext ctx;
    for (NodeId n = 0; n < 2; n++) {
      sim::MemorySpace::Options mo;
      mo.name = "dram" + std::to_string(n);
      drams_[n] = std::make_unique<sim::MemorySpace>(mo);
      RdmaSharedBufferPool::Options po;
      po.node = n;
      po.lbp_capacity_pages = 256;
      po.phys_base = PhysBase(n);
      auto pool = std::make_unique<RdmaSharedBufferPool>(po, drams_[n].get(),
                                                         group_.get());
      pools_[n] = pool.get();
      DatabaseEnv env;
      env.store = &world_.store;
      env.log = &world_.log;
      DatabaseOptions opt;
      opt.node = n;
      auto db = n == 0 ? Database::CreateWithPool(ctx, env, opt,
                                                  std::move(pool))
                       : Database::OpenWithPool(ctx, env, opt,
                                                std::move(pool));
      ASSERT_TRUE(db.ok());
      dbs_[n] = std::move(*db);
      if (n == 0) {
        auto t = dbs_[0]->CreateTable(ctx, "t", 64);
        ASSERT_TRUE(t.ok());
        for (uint64_t k = 1; k <= 500; k++) {
          ASSERT_TRUE((*t)->Insert(ctx, k, std::string(64, 'a')).ok());
        }
        dbs_[0]->CommitTransaction(ctx);
      }
    }
  }

  static uint64_t PhysBase(NodeId n) {
    return (1ULL << 46) + (static_cast<uint64_t>(n) << 38);
  }

  MpWorld world_;
  std::unique_ptr<RdmaSharingGroup> group_;
  std::unique_ptr<sim::MemorySpace> drams_[2];
  RdmaSharedBufferPool* pools_[2] = {};
  std::unique_ptr<Database> dbs_[2];
};

TEST_F(RdmaSharingIntegrationTest, FetchedFrameCarriesItsChargeTarget) {
  for (NodeId n = 0; n < 2; n++) {
    ExecContext ctx;
    ctx.now = Millis(1 + n);
    for (bool for_write : {false, true}) {
      auto ref = pools_[n]->Fetch(ctx, Database::kSuperblockPage, for_write);
      ASSERT_TRUE(ref.ok());
      // The frame is LBP block `ref->block` in this node's host DRAM.
      ASSERT_EQ(ref->space, drams_[n].get());
      EXPECT_EQ(ref->phys, PhysBase(n) + uint64_t{ref->block} * kPageSize);
      pools_[n]->Unfix(ctx, *ref, Database::kSuperblockPage,
                       /*dirty=*/false, 0);
    }
  }
}

TEST_F(RdmaSharingIntegrationTest, WritesByOneNodeVisibleToOther) {
  ExecContext a;
  a.now = Millis(1);
  ExecContext b;
  b.now = Millis(2);
  ASSERT_TRUE(
      dbs_[0]->table(size_t{0})->Update(a, 7, std::string(64, 'Z')).ok());
  auto got = dbs_[1]->table(size_t{0})->Get(b, 7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, std::string(64, 'Z'));
}

TEST_F(RdmaSharingIntegrationTest, RemoteWriteInvalidatesLocalCopy) {
  ExecContext b;
  b.now = Millis(1);
  ASSERT_TRUE(dbs_[1]->table(size_t{0})->Get(b, 7).ok());
  const uint64_t inv_before = pools_[1]->invalidations_received();

  ExecContext a;
  a.now = Millis(2);
  ASSERT_TRUE(
      dbs_[0]->table(size_t{0})->Update(a, 7, std::string(64, 'Q')).ok());
  EXPECT_GT(pools_[1]->invalidations_received(), inv_before);

  b.now = Millis(3);
  auto got = dbs_[1]->table(size_t{0})->Get(b, 7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, std::string(64, 'Q'));
}

TEST_F(RdmaSharingIntegrationTest, WriteUnlockShipsFullPage) {
  // Prime: both nodes read the page.
  ExecContext b;
  b.now = Millis(1);
  ASSERT_TRUE(dbs_[1]->table(size_t{0})->Get(b, 7).ok());
  ExecContext a;
  a.now = Millis(2);
  ASSERT_TRUE(dbs_[0]->table(size_t{0})->Get(a, 7).ok());

  world_.net.ResetStats();
  a.now = Millis(3);
  ASSERT_TRUE(dbs_[0]
                  ->table(size_t{0})
                  ->UpdateColumn(a, 7, 0, Slice("abcd", 4))
                  .ok());
  // A 4-byte change moved at least one full page over the wire.
  EXPECT_GE(world_.net.total_bytes(), static_cast<uint64_t>(kPageSize));
}

TEST_F(RdmaSharingIntegrationTest, CxlSynchronizesFarFewerBytes) {
  // Head-to-head on the identical logical operation: bytes moved through
  // the shared tier for a 4-byte update.
  // RDMA side:
  ExecContext a;
  a.now = Millis(1);
  ASSERT_TRUE(dbs_[0]->table(size_t{0})->Get(a, 9).ok());  // warm
  world_.net.ResetStats();
  a.now = Millis(2);
  ASSERT_TRUE(dbs_[0]
                  ->table(size_t{0})
                  ->UpdateColumn(a, 9, 0, Slice("abcd", 4))
                  .ok());
  const uint64_t rdma_bytes = world_.net.total_bytes();
  // CXL equivalent ships only dirtied lines; bound it generously.
  EXPECT_GT(rdma_bytes, 16u * 1024);
  EXPECT_LT(32u * kCacheLineSize, rdma_bytes);
}

TEST_F(RdmaSharingIntegrationTest, WriteUnlockShipsImageByReference) {
  constexpr PageId kPage = 4000;  // beyond the table: first touch is storage
  constexpr NodeId kTenant = RdmaSharingGroup::kSharedTenant;
  rdma::RemoteMemoryPool& dbp = group_->dbp();
  ExecContext a;
  a.now = Millis(1);
  auto w = pools_[0]->Fetch(a, kPage, /*for_write=*/true);
  ASSERT_TRUE(w.ok());
  std::memset(w->data, 0x5E, kPageSize);
  const uint8_t* shipped = w->data;
  pools_[0]->Unfix(a, *w, kPage, /*dirty=*/true, 0);
  // The DBP holds the writer's frame image itself.
  EXPECT_EQ(dbp.Peek(kTenant, kPage)->data(), shipped);

  // The writer's next write fix clones; the DBP keeps the shipped bytes
  // until the next unlock ships the clone.
  auto w2 = pools_[0]->Fetch(a, kPage, /*for_write=*/true);
  ASSERT_TRUE(w2.ok());
  EXPECT_NE(w2->data, shipped);
  std::memset(w2->data, 0x6F, kPageSize);
  EXPECT_EQ(shipped[0], 0x5E);
  const uint8_t* shipped2 = w2->data;
  pools_[0]->Unfix(a, *w2, kPage, /*dirty=*/true, 0);
  EXPECT_EQ(dbp.Peek(kTenant, kPage)->data(), shipped2);

  // A peer's read aliases the DBP image and sees the writer's bytes; its
  // upgrade to write moves it to a private clone.
  ExecContext b;
  b.now = Millis(2);
  auto r = pools_[1]->Fetch(b, kPage, /*for_write=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data, shipped2);
  EXPECT_EQ(r->data[kPageSize - 1], 0x6F);
  ASSERT_TRUE(pools_[1]->UpgradeToWrite(b, *r, kPage).ok());
  EXPECT_NE(r->data, shipped2);
  EXPECT_EQ(r->data[kPageSize - 1], 0x6F);
  pools_[1]->Unfix(b, *r, kPage, /*dirty=*/false, 0);
}

TEST(RdmaSharingGroupTest, InvalidationReachesNodeIdsPast64) {
  MpWorld world;
  world.net.RegisterHost(70);
  world.net.RegisterHost(71);
  RdmaSharingGroup group(&world.net, 200, 64, &world.store);
  sim::MemorySpace dram70{sim::MemorySpace::Options{}};
  sim::MemorySpace dram71{sim::MemorySpace::Options{}};
  RdmaSharedBufferPool::Options po;
  po.lbp_capacity_pages = 8;
  po.node = 70;
  RdmaSharedBufferPool reader(po, &dram70, &group);
  po.node = 71;
  po.phys_base += 1ULL << 38;
  RdmaSharedBufferPool writer(po, &dram71, &group);
  constexpr PageId kPage = 5;

  ExecContext a;
  auto r = reader.Fetch(a, kPage, /*for_write=*/false);
  ASSERT_TRUE(r.ok());
  reader.Unfix(a, *r, kPage, /*dirty=*/false, 0);
  ASSERT_TRUE(reader.Cached(kPage));

  // A dirty write unlock by node 71 drops node 70's copy.
  ExecContext b;
  b.now = Millis(1);
  auto w = writer.Fetch(b, kPage, /*for_write=*/true);
  ASSERT_TRUE(w.ok());
  w->data[kPageSize - 1] = 0x71;
  writer.Unfix(b, *w, kPage, /*dirty=*/true, 0);
  EXPECT_FALSE(reader.Cached(kPage));
  EXPECT_EQ(reader.invalidations_received(), 1u);
  EXPECT_EQ(writer.invalidations_received(), 0u);
  EXPECT_TRUE(writer.Cached(kPage));
}

}  // namespace
}  // namespace polarcxl::sharing
