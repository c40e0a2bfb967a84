// Failure-injection tests: crash the database at many different points and
// verify recovery invariants every time; exercise capacity-exhaustion and
// fallback paths; verify the WAL rule at the pool boundary and that a
// checkpoint deferred by a CXL outage does not advance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "common/rng.h"
#include "engine/database.h"
#include "faults/fault_injector.h"
#include "recovery/polar_recv.h"
#include "recovery/recovery.h"
#include "tests/test_world.h"

namespace polarcxl {
namespace {

using bufferpool::CxlBufferPool;
using engine::BufferPoolKind;
using engine::Database;
using engine::DatabaseEnv;
using engine::DatabaseOptions;
using sim::ExecContext;

/// Crash after `ops_before_crash` random operations; recover with PolarRecv
/// and check against the committed reference.
class CrashPointTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashPointTest, PolarRecvRestoresCommittedStateAtAnyCrashPoint) {
  TestWorld world;
  DatabaseOptions opt;
  opt.pool_kind = BufferPoolKind::kCxl;
  opt.pool_pages = 512;
  ExecContext ctx;
  auto db = std::move(*Database::Create(ctx, world.Env(), opt));
  ctx.cache = db->cache();
  auto table = *db->CreateTable(ctx, "t", 48);

  std::map<uint64_t, std::string> committed;
  Rng rng(GetParam());
  const int ops = GetParam() * 37 % 900 + 100;  // 100..999 ops
  for (int i = 0; i < ops; i++) {
    const uint64_t key = rng.Uniform(300);
    std::string val(48, static_cast<char>('a' + rng.Uniform(26)));
    if (committed.count(key) == 0) {
      POLAR_CHECK(table->Insert(ctx, key, val).ok());
    } else {
      POLAR_CHECK(table->Update(ctx, key, val).ok());
    }
    committed[key] = val;
    // Commit (flush) most of the time; occasionally checkpoint.
    if (rng.Chance(0.8)) db->CommitTransaction(ctx);
    if (i % 200 == 199) db->Checkpoint(ctx);
  }
  db->CommitTransaction(ctx);

  // A final burst that never becomes durable: the crash erases it.
  for (int i = 0; i < static_cast<int>(rng.Uniform(10)); i++) {
    table->Update(ctx, rng.Uniform(300), std::string(48, 'Z')).ok();
  }

  const MemOffset region = db->cxl_region();
  const Nanos crash_time = ctx.now;
  world.log.LoseUnflushedTail();
  db.reset();

  ExecContext rctx;
  rctx.now = crash_time;
  CxlBufferPool::Options po;
  po.capacity_pages = 512;
  auto pool = std::move(
      *CxlBufferPool::Attach(rctx, po, region, world.acc, &world.store));
  pool->SetWal(&world.log);
  recovery::PolarRecv(rctx, pool.get(), &world.log);
  auto db2 = std::move(
      *Database::OpenWithPool(rctx, world.Env(), opt, std::move(pool)));

  std::vector<std::pair<uint64_t, std::string>> out;
  ASSERT_TRUE(db2->table(size_t{0})->Scan(rctx, 0, 1 << 20, &out).ok());
  ASSERT_EQ(out.size(), committed.size());
  size_t i = 0;
  for (const auto& [k, v] : committed) {
    EXPECT_EQ(out[i].first, k);
    EXPECT_EQ(out[i].second, v) << "key " << k;
    i++;
  }
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CrashPointTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/// A second crash immediately after (or during) recovery must be harmless:
/// PolarRecv is idempotent over an already-recovered region.
TEST(DoubleCrashTest, PolarRecvIsIdempotent) {
  TestWorld world;
  DatabaseOptions opt;
  opt.pool_kind = BufferPoolKind::kCxl;
  opt.pool_pages = 256;
  ExecContext ctx;
  auto db = std::move(*Database::Create(ctx, world.Env(), opt));
  ctx.cache = db->cache();
  auto table = *db->CreateTable(ctx, "t", 48);
  for (uint64_t k = 0; k < 500; k++) {
    POLAR_CHECK(table->Insert(ctx, k, std::string(48, 'a' + k % 26)).ok());
  }
  db->CommitTransaction(ctx);
  // Unflushed tail + a torn page, then crash.
  table->Update(ctx, 7, std::string(48, 'Z')).ok();
  const MemOffset region = db->cxl_region();
  Nanos t = ctx.now;
  world.log.LoseUnflushedTail();
  db.reset();

  for (int crash = 0; crash < 3; crash++) {
    ExecContext rctx;
    rctx.now = t;
    CxlBufferPool::Options po;
    po.capacity_pages = 256;
    auto pool = std::move(
        *CxlBufferPool::Attach(rctx, po, region, world.acc, &world.store));
    pool->SetWal(&world.log);
    recovery::PolarRecv(rctx, pool.get(), &world.log);
    auto db2 = std::move(
        *Database::OpenWithPool(rctx, world.Env(), opt, std::move(pool)));
    for (uint64_t k = 0; k < 500; k += 53) {
      auto got = db2->table(size_t{0})->Get(rctx, k);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, std::string(48, 'a' + k % 26)) << "crash " << crash;
    }
    t = rctx.now;
    world.log.LoseUnflushedTail();  // crash again without new work
    db2.reset();
  }
}

/// PolarRecv with a pool smaller than the dataset: evicted pages live only
/// in storage; surviving in-use blocks are reused; the union is complete.
TEST(SmallPoolTest, PolarRecvWithEvictionsRestoresEverything) {
  TestWorld world;
  DatabaseOptions opt;
  opt.pool_kind = BufferPoolKind::kCxl;
  opt.pool_pages = 16;  // dataset needs ~25 pages: constant eviction
  ExecContext ctx;
  auto db = std::move(*Database::Create(ctx, world.Env(), opt));
  ctx.cache = db->cache();
  auto table = *db->CreateTable(ctx, "t", 64);
  std::map<uint64_t, std::string> reference;
  Rng rng(77);
  for (uint64_t k = 0; k < 2500; k++) {
    std::string val(64, 'a' + static_cast<char>(rng.Uniform(26)));
    POLAR_CHECK(table->Insert(ctx, k, val).ok());
    reference[k] = val;
  }
  db->CommitTransaction(ctx);

  const MemOffset region = db->cxl_region();
  const Nanos t = ctx.now;
  world.log.LoseUnflushedTail();
  db.reset();

  ExecContext rctx;
  rctx.now = t;
  CxlBufferPool::Options po;
  po.capacity_pages = 16;
  auto pool = std::move(
      *CxlBufferPool::Attach(rctx, po, region, world.acc, &world.store));
  pool->SetWal(&world.log);
  auto stats = recovery::PolarRecv(rctx, pool.get(), &world.log);
  EXPECT_LE(stats.pages_in_use, 16u);
  auto db2 = std::move(
      *Database::OpenWithPool(rctx, world.Env(), opt, std::move(pool)));
  std::vector<std::pair<uint64_t, std::string>> out;
  ASSERT_TRUE(db2->table(size_t{0})->Scan(rctx, 0, 1 << 20, &out).ok());
  ASSERT_EQ(out.size(), reference.size());
  size_t i = 0;
  for (const auto& [k, v] : reference) {
    ASSERT_EQ(out[i].first, k);
    ASSERT_EQ(out[i].second, v) << k;
    i++;
  }
}

// ---------- capacity exhaustion & fallback paths ----------

TEST(ExhaustionTest, CxlPoolCreationFailsWhenFabricFull) {
  TestWorld world;
  DatabaseOptions opt;
  opt.pool_kind = BufferPoolKind::kCxl;
  opt.pool_pages = 1 << 20;  // far beyond the 128 MiB device
  ExecContext ctx;
  auto db = Database::Create(ctx, world.Env(), opt);
  EXPECT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsOutOfMemory());
}

TEST(ExhaustionTest, FetchFailsWhenEveryFrameIsFixed) {
  TestWorld world;
  DatabaseOptions opt;
  opt.pool_kind = BufferPoolKind::kCxl;
  opt.pool_pages = 4;
  ExecContext ctx;
  auto db = std::move(*Database::Create(ctx, world.Env(), opt));
  std::vector<bufferpool::PageRef> pinned;
  for (PageId p = 0; p < 4; p++) {
    auto ref = db->pool()->Fetch(ctx, p, false);
    ASSERT_TRUE(ref.ok());
    pinned.push_back(*ref);
  }
  auto r = db->pool()->Fetch(ctx, 99, false);
  EXPECT_TRUE(r.status().IsBusy());
  for (PageId p = 0; p < 4; p++) {
    db->pool()->Unfix(ctx, pinned[p], p, false, 0);
  }
  EXPECT_TRUE(db->pool()->Fetch(ctx, 99, false).ok());
}

TEST(ExhaustionTest, TieredPoolFallsBackToStorageWhenRemoteFull) {
  TestWorld world;
  rdma::RdmaNetwork net;
  net.RegisterHost(0);
  rdma::RemoteMemoryPool remote(&net, 99, /*capacity_pages=*/4);
  DatabaseEnv env = world.Env();
  env.remote = &remote;
  DatabaseOptions opt;
  opt.pool_kind = BufferPoolKind::kTieredRdma;
  opt.pool_pages = 8;
  ExecContext ctx;
  auto db = std::move(*Database::Create(ctx, env, opt));
  auto table = *db->CreateTable(ctx, "t", 64);
  // Enough rows that evictions overflow the 4-page remote pool; the dirty
  // fallback path writes to storage instead of losing data.
  for (uint64_t k = 1; k <= 3000; k++) {
    ASSERT_TRUE(table->Insert(ctx, k, std::string(64, 'v')).ok()) << k;
  }
  db->CommitTransaction(ctx);
  for (uint64_t k = 1; k <= 3000; k += 311) {
    auto got = table->Get(ctx, k);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, std::string(64, 'v'));
  }
}

TEST(ExhaustionTest, CatalogFullReported) {
  TestWorld world;
  DatabaseOptions opt;
  opt.pool_kind = BufferPoolKind::kDram;
  opt.pool_pages = 4096;
  ExecContext ctx;
  auto db = std::move(*Database::Create(ctx, world.Env(), opt));
  // The catalog caps at kMaxTrees; creating that many should eventually
  // fail gracefully, not corrupt the superblock.
  Status last = Status::OK();
  for (uint32_t i = 0; i <= Database::kMaxTrees; i++) {
    auto t = db->CreateTable(ctx, "t" + std::to_string(i), 16);
    if (!t.ok()) {
      last = t.status();
      break;
    }
  }
  EXPECT_TRUE(last.IsOutOfMemory());
}

// ---------- WAL rule ----------

TEST(WalRuleTest, PageNeverReachesStorageAheadOfItsRedo) {
  // A tiny pool forces evictions while the log buffer is unflushed; the
  // WAL rule must flush the log before each page write-back, so at every
  // point in time: store page LSN <= flushed LSN.
  TestWorld world;
  DatabaseOptions opt;
  opt.pool_kind = BufferPoolKind::kCxl;
  opt.pool_pages = 8;
  ExecContext ctx;
  auto db = std::move(*Database::Create(ctx, world.Env(), opt));
  auto table = *db->CreateTable(ctx, "t", 64);
  Rng rng(5);
  for (int i = 0; i < 2000; i++) {
    const uint64_t k = 1 + rng.Uniform(500);
    if (table->Update(ctx, k, std::string(64, 'u')).IsNotFound()) {
      POLAR_CHECK(table->Insert(ctx, k, std::string(64, 'u')).ok());
    }
    // Deliberately do NOT flush the log; evictions must do it themselves.
  }
  // Verify the invariant over every page image in the store.
  for (PageId p = 0; p < 64; p++) {
    const uint8_t* img = world.store.RawPage(p);
    if (img == nullptr) continue;
    Lsn page_lsn;
    std::memcpy(&page_lsn, img + 8, sizeof(page_lsn));
    EXPECT_LE(page_lsn, world.log.flushed_lsn()) << "page " << p;
  }
}

// ---------- deferred checkpoint ----------

/// Highest page LSN among the first 64 page ids of the page store.
Lsn MaxStoredPageLsn(const storage::PageStore& store) {
  Lsn max = 0;
  for (PageId p = 0; p < 64; p++) {
    const uint8_t* img = store.RawPage(p);
    if (img == nullptr) continue;
    Lsn page_lsn = 0;
    std::memcpy(&page_lsn, img + 8, sizeof(page_lsn));
    max = std::max(max, page_lsn);
  }
  return max;
}

TEST(DeferredCheckpointTest, CxlOutageKeepsTheCheckpointUntilPagesFlush) {
  TestWorld world;
  faults::FaultInjector injector;
  world.fabric.set_fault_injector(&injector);
  DatabaseOptions opt;
  opt.pool_kind = BufferPoolKind::kCxl;
  opt.pool_pages = 512;
  ExecContext ctx;
  auto db = std::move(*Database::Create(ctx, world.Env(), opt));
  auto table = *db->CreateTable(ctx, "t", 48);
  for (uint64_t k = 1; k <= 20; k++) {
    ASSERT_TRUE(table->Insert(ctx, k, std::string(48, 'a')).ok());
  }
  db->CommitTransaction(ctx);
  db->Checkpoint(ctx);
  const Lsn base = world.log.checkpoint_lsn();
  ASSERT_EQ(MaxStoredPageLsn(world.store), base);

  // A committed update whose page is dirty only in the CXL pool.
  ASSERT_TRUE(table->Update(ctx, 7, std::string(48, 'u')).ok());
  db->CommitTransaction(ctx);
  const Lsn committed = world.log.flushed_lsn();
  ASSERT_GT(committed, base);

  // A checkpoint inside an outage cannot reach the frames: the page store
  // still lacks the update, so the checkpoint must not pass its redo.
  faults::FaultPlan plan;
  plan.Add({faults::FaultKind::kCxlDown, ctx.now, ctx.now + Millis(1)});
  ASSERT_TRUE(injector.Arm(plan).ok());
  db->Checkpoint(ctx);
  EXPECT_LT(MaxStoredPageLsn(world.store), committed);
  EXPECT_EQ(world.log.checkpoint_lsn(), base);
  EXPECT_FALSE(world.log.DurableRecordsFrom(base).empty());

  // After the outage the next checkpoint writes the page and advances.
  ctx.now += Millis(1);
  db->Checkpoint(ctx);
  EXPECT_EQ(MaxStoredPageLsn(world.store), committed);
  EXPECT_EQ(world.log.checkpoint_lsn(), committed);
}

// ---------- wrong-region / corruption paths ----------

TEST(CorruptionTest, AttachToForeignRegionFailsCleanly) {
  TestWorld world;
  ExecContext ctx;
  // A region that was never formatted as a pool.
  auto raw = world.manager->Allocate(ctx, 9, CxlBufferPool::RegionBytes(16));
  ASSERT_TRUE(raw.ok());
  CxlBufferPool::Options po;
  po.capacity_pages = 16;
  auto r = CxlBufferPool::Attach(ctx, po, *raw, world.acc, &world.store);
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(CorruptionTest, AttachWithWrongCapacityRejected) {
  TestWorld world;
  ExecContext ctx;
  CxlBufferPool::Options po;
  po.capacity_pages = 16;
  po.tenant = 1;
  auto pool = std::move(*CxlBufferPool::Create(ctx, po, world.acc,
                                               world.manager.get(),
                                               &world.store));
  const MemOffset region = pool->region();
  pool.reset();
  po.capacity_pages = 32;
  auto r = CxlBufferPool::Attach(ctx, po, region, world.acc, &world.store);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

}  // namespace
}  // namespace polarcxl
