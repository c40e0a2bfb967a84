// Recovery tests: redo replay semantics, ARIES recovery on DRAM and tiered
// pools, PolarRecv on the CXL pool, and cross-scheme equivalence — after an
// identical crash the three schemes must converge to the same committed
// state. Crash hazards (torn pages, lost log tail, broken LRU) are injected
// through the pool's introspection surface.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "engine/database.h"
#include "recovery/polar_recv.h"
#include "recovery/recovery.h"
#include "tests/test_world.h"

namespace polarcxl::recovery {
namespace {

using bufferpool::CxlBlockMeta;
using bufferpool::CxlBufferPool;
using bufferpool::CxlPoolHeader;
using engine::BufferPoolKind;
using engine::Database;
using engine::DatabaseEnv;
using engine::DatabaseOptions;
using engine::PageView;
using sim::ExecContext;

constexpr uint16_t kRowSize = 96;

std::string Row(uint64_t key, char tag) {
  std::string row(kRowSize, tag);
  std::snprintf(row.data(), row.size(), "row-%llu-%c",
                static_cast<unsigned long long>(key), tag);
  return row;
}

// ---------- ApplyRecord ----------

TEST(ApplyRecordTest, RawOverwriteRespectsLsnRule) {
  uint8_t buf[kPageSize] = {};
  PageView page(buf);
  page.Format(1, 0, 8);
  page.set_lsn(100);

  storage::RedoRecord rec;
  rec.page_id = 1;
  rec.kind = storage::RedoKind::kRaw;
  rec.page_off = 200;
  rec.len = 4;
  rec.data = {1, 2, 3, 4};
  rec.lsn = 50;  // end_lsn = 50 + 28 = 78 < page lsn 100
  EXPECT_FALSE(ApplyRecord(page, rec));
  EXPECT_EQ(buf[200], 0);

  rec.lsn = 100;  // end_lsn 128 > 100
  EXPECT_TRUE(ApplyRecord(page, rec));
  EXPECT_EQ(buf[200], 1);
  EXPECT_EQ(page.lsn(), rec.end_lsn());
  // Idempotent: reapplying is a no-op.
  EXPECT_FALSE(ApplyRecord(page, rec));
}

TEST(ApplyRecordTest, EntryKindsReplayStructurally) {
  uint8_t buf[kPageSize] = {};
  PageView page(buf);

  storage::RedoRecord fmt;
  fmt.page_id = 3;
  fmt.kind = storage::RedoKind::kFormat;
  fmt.data = {0, 16, 0};  // leaf, value_size 16
  fmt.len = 3;
  fmt.lsn = 0;
  ASSERT_TRUE(ApplyRecord(page, fmt));
  ASSERT_TRUE(page.IsFormatted());
  EXPECT_EQ(page.value_size(), 16);

  storage::RedoRecord ins;
  ins.page_id = 3;
  ins.kind = storage::RedoKind::kInsertEntry;
  ins.data.resize(8 + 16, 0x7);
  const uint64_t key = 42;
  std::memcpy(ins.data.data(), &key, 8);
  ins.len = 24;
  ins.lsn = fmt.end_lsn();
  ASSERT_TRUE(ApplyRecord(page, ins));
  uint16_t idx;
  ASSERT_TRUE(page.Find(42, &idx));

  storage::RedoRecord del;
  del.page_id = 3;
  del.kind = storage::RedoKind::kEraseEntry;
  del.data.resize(8);
  std::memcpy(del.data.data(), &key, 8);
  del.len = 8;
  del.lsn = ins.end_lsn();
  ASSERT_TRUE(ApplyRecord(page, del));
  EXPECT_FALSE(page.Find(42, &idx));
  EXPECT_EQ(page.nkeys(), 0);
}

// ---------- crash scenario fixture ----------

/// Builds a workload history with a checkpoint in the middle, then crashes
/// with injected hazards. `reference` holds the committed (durable) state.
class CrashScenario {
 public:
  explicit CrashScenario(BufferPoolKind kind) : kind_(kind) {
    DatabaseOptions opt;
    opt.pool_kind = kind;
    opt.pool_pages = 256;
    auto db = Database::Create(ctx_, world_.Env(), opt);
    POLAR_CHECK(db.ok());
    db_ = std::move(*db);
    auto t = db_->CreateTable(ctx_, "t", kRowSize);
    POLAR_CHECK(t.ok());

    // Phase 1: committed inserts, then a checkpoint.
    for (uint64_t k = 0; k < 600; k++) {
      POLAR_CHECK(tree()->Insert(ctx_, k, Row(k, 'a')).ok());
      reference_[k] = Row(k, 'a');
    }
    db_->CommitTransaction(ctx_);
    db_->Checkpoint(ctx_);

    // Phase 2: committed post-checkpoint updates/inserts/deletes (durable,
    // but newer than the checkpointed page images).
    Rng rng(17);
    for (int i = 0; i < 4000; i++) {
      const uint64_t k = rng.Uniform(700);
      switch (rng.Uniform(3)) {
        case 0:
          if (reference_.count(k) == 0) {
            POLAR_CHECK(tree()->Insert(ctx_, k, Row(k, 'b')).ok());
            reference_[k] = Row(k, 'b');
          }
          break;
        case 1:
          if (reference_.count(k) > 0) {
            POLAR_CHECK(tree()->Update(ctx_, k, Row(k, 'c')).ok());
            reference_[k] = Row(k, 'c');
          }
          break;
        case 2:
          if (reference_.count(k) > 0) {
            POLAR_CHECK(tree()->Delete(ctx_, k).ok());
            reference_.erase(k);
          }
          break;
      }
    }
    db_->CommitTransaction(ctx_);  // everything above is durable
  }

  engine::BTree* tree() { return db_->table(size_t{0})->tree(); }

  /// In-flight work at crash time: real updates whose redo never reaches
  /// storage ("too new" CXL pages), plus torn write-locked pages, plus a
  /// torn LRU manipulation. Only meaningful for the CXL pool.
  void InjectCxlHazards() {
    auto* pool = static_cast<CxlBufferPool*>(db_->pool());
    // (a) Updates without a log flush: lost tail.
    for (uint64_t k = 0; k < 20; k++) {
      if (reference_.count(k) > 0) {
        POLAR_CHECK(tree()->Update(ctx_, k, Row(k, 'z')).ok());
        // NOT reflected in reference_: the crash makes these vanish.
      }
    }
    // (b) Torn pages: scribble into two in-use leaf frames and leave them
    // write-locked, as an interrupted mtr would.
    uint32_t torn = 0;
    for (uint32_t b = 0; b < pool->num_blocks() && torn < 2; b++) {
      CxlBlockMeta m = pool->LoadMeta(ctx_, b);
      if (m.in_use == 0 || m.id == Database::kSuperblockPage) continue;
      PageView page(pool->FrameRaw(b));
      if (!page.is_leaf()) continue;
      std::memset(pool->FrameRaw(b) + 2000, 0xEF, 500);  // garbage
      m.lock_state = 1;
      pool->StoreMeta(ctx_, b, m);
      torn++;
    }
    POLAR_CHECK(torn == 2);
    // (c) Crash mid-LRU-manipulation.
    CxlPoolHeader h = pool->LoadHeader(ctx_);
    h.lru_mutex = 1;
    pool->StoreHeader(ctx_, h);
  }

  /// The crash: volatile state dies, durable state stays.
  MemOffset Crash() {
    MemOffset region = 0;
    if (kind_ == BufferPoolKind::kCxl) region = db_->cxl_region();
    world_.log.LoseUnflushedTail();
    db_.reset();
    return region;
  }

  /// Virtual time of the crash (recovery must not run "before" it).
  Nanos CrashTime() const { return ctx_.now; }

  /// Scans the recovered table and compares with the committed reference.
  void ExpectMatchesReference(Database* db) {
    std::vector<std::pair<uint64_t, std::string>> out;
    auto n = db->table(size_t{0})->Scan(ctx_, 0, 1 << 20, &out);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, reference_.size());
    size_t i = 0;
    for (const auto& [k, v] : reference_) {
      EXPECT_EQ(out[i].first, k) << i;
      EXPECT_EQ(out[i].second, v) << k;
      i++;
    }
  }

  TestWorld world_;
  ExecContext ctx_;
  BufferPoolKind kind_;
  std::unique_ptr<Database> db_;
  std::map<uint64_t, std::string> reference_;
};

DatabaseOptions RestartOptions(BufferPoolKind kind) {
  DatabaseOptions opt;
  opt.pool_kind = kind;
  opt.pool_pages = 256;
  return opt;
}

// ---------- ARIES (vanilla) ----------

// The ergonomic path: recover into a pool, then OpenWithPool.
TEST(AriesRecoveryTest, VanillaEndToEnd) {
  CrashScenario s(BufferPoolKind::kDram);
  s.Crash();

  ExecContext ctx;
  ctx.now = s.CrashTime();
  DatabaseOptions opt = RestartOptions(BufferPoolKind::kDram);
  // Build the cold pool manually so the superblock is NOT reformatted.
  sim::MemorySpace::Options mo;
  mo.name = "dram-recover";
  auto dram = std::make_unique<sim::MemorySpace>(mo);
  bufferpool::TieredRdmaBufferPool::Options po;
  po.lbp_capacity_pages = 256;
  po.phys_base = 1ULL << 44;
  auto pool = std::make_unique<bufferpool::TieredRdmaBufferPool>(
      po, dram.get(), /*remote=*/nullptr, &s.world_.store);
  pool->SetWal(&s.world_.log);

  auto stats = RecoverAries(ctx, pool.get(), &s.world_.log);
  EXPECT_GT(stats.records_applied, 0u);

  auto db = Database::OpenWithPool(ctx, s.world_.Env(), opt,
                                   std::move(pool));
  ASSERT_TRUE(db.ok());
  s.ExpectMatchesReference(db->get());
}

TEST(AriesRecoveryTest, TieredPoolUsesSurvivingRemoteMemory) {
  CrashScenario s(BufferPoolKind::kTieredRdma);
  s.Crash();
  ASSERT_GT(s.world_.remote.pages_stored(), 0u);

  ExecContext ctx;
  ctx.now = s.CrashTime();
  DatabaseOptions opt = RestartOptions(BufferPoolKind::kTieredRdma);
  sim::MemorySpace::Options mo;
  mo.name = "dram-recover";
  auto dram = std::make_unique<sim::MemorySpace>(mo);
  bufferpool::TieredRdmaBufferPool::Options po;
  po.lbp_capacity_pages = 256;
  po.node = 0;
  po.tenant = 0;
  auto pool = std::make_unique<bufferpool::TieredRdmaBufferPool>(
      po, dram.get(), &s.world_.remote, &s.world_.store);
  pool->SetWal(&s.world_.log);

  const uint64_t disk_reads_before = s.world_.disk.read_ops();
  RecoverAries(ctx, pool.get(), &s.world_.log);
  const uint64_t remote_hits = pool->remote_hits();
  EXPECT_GT(remote_hits, 0u);  // bases came over RDMA, not storage
  (void)disk_reads_before;

  auto db = Database::OpenWithPool(ctx, s.world_.Env(), opt,
                                   std::move(pool));
  ASSERT_TRUE(db.ok());
  s.ExpectMatchesReference(db->get());
}

// ---------- PolarRecv ----------

class PolarRecvTest : public ::testing::Test {
 protected:
  std::unique_ptr<Database> RecoverAfterCrash(CrashScenario& s,
                                              PolarRecvStats* stats_out) {
    const MemOffset region = s.Crash();
    ExecContext ctx;
    ctx.now = s.CrashTime();
    CxlBufferPool::Options po;
    po.capacity_pages = 256;
    po.tenant = 0;
    auto pool = CxlBufferPool::Attach(ctx, po, region, s.world_.acc,
                                      &s.world_.store);
    POLAR_CHECK(pool.ok());
    (*pool)->SetWal(&s.world_.log);
    auto stats = PolarRecv(ctx, pool->get(), &s.world_.log);
    if (stats_out != nullptr) *stats_out = stats;
    auto db = Database::OpenWithPool(
        ctx, s.world_.Env(), RestartOptions(BufferPoolKind::kCxl),
        std::move(*pool));
    POLAR_CHECK(db.ok());
    return std::move(*db);
  }
};

TEST_F(PolarRecvTest, CleanCrashReusesEverything) {
  CrashScenario s(BufferPoolKind::kCxl);
  // No injected hazards: all in-flight work was committed and flushed.
  PolarRecvStats stats;
  auto db = RecoverAfterCrash(s, &stats);
  EXPECT_EQ(stats.pages_repaired, 0u);
  EXPECT_FALSE(stats.lists_rebuilt);
  EXPECT_GT(stats.pages_in_use, 0u);
  s.ExpectMatchesReference(db.get());
}

TEST_F(PolarRecvTest, RepairsAllInjectedHazards) {
  CrashScenario s(BufferPoolKind::kCxl);
  s.InjectCxlHazards();
  PolarRecvStats stats;
  auto db = RecoverAfterCrash(s, &stats);
  EXPECT_GE(stats.locked_pages, 2u);
  EXPECT_GT(stats.too_new_pages, 0u);
  EXPECT_TRUE(stats.lists_rebuilt);
  EXPECT_GT(stats.records_applied, 0u);
  s.ExpectMatchesReference(db.get());
}

TEST_F(PolarRecvTest, BufferPoolIsWarmAfterRecovery) {
  CrashScenario s(BufferPoolKind::kCxl);
  s.InjectCxlHazards();
  auto db = RecoverAfterCrash(s, nullptr);
  // Reads after recovery hit the pool, not storage.
  ExecContext ctx;
  const uint64_t disk_reads_before = s.world_.disk.read_ops();
  for (uint64_t k = 100; k < 200; k++) {
    if (s.reference_.count(k) > 0) {
      auto got = db->table(size_t{0})->Get(ctx, k);
      ASSERT_TRUE(got.ok());
    }
  }
  EXPECT_EQ(s.world_.disk.read_ops(), disk_reads_before);
}

TEST_F(PolarRecvTest, UnflushedUpdatesAreRolledBack) {
  CrashScenario s(BufferPoolKind::kCxl);
  s.InjectCxlHazards();  // includes 'z' updates that never flushed
  auto db = RecoverAfterCrash(s, nullptr);
  ExecContext ctx;
  for (uint64_t k = 0; k < 20; k++) {
    if (s.reference_.count(k) > 0) {
      auto got = db->table(size_t{0})->Get(ctx, k);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, s.reference_[k]) << k;  // 'z' version gone
    }
  }
}

TEST_F(PolarRecvTest, MuchCheaperThanAriesOnSameCrash) {
  // Two identical scenarios; one recovered by each scheme.
  CrashScenario cxl_s(BufferPoolKind::kCxl);
  cxl_s.InjectCxlHazards();
  PolarRecvStats recv_stats;
  auto db = RecoverAfterCrash(cxl_s, &recv_stats);

  CrashScenario dram_s(BufferPoolKind::kDram);
  dram_s.Crash();
  ExecContext ctx;
  ctx.now = dram_s.CrashTime();
  sim::MemorySpace::Options mo;
  auto dram = std::make_unique<sim::MemorySpace>(mo);
  bufferpool::TieredRdmaBufferPool::Options po;
  po.lbp_capacity_pages = 256;
  po.phys_base = 1ULL << 44;
  auto pool = std::make_unique<bufferpool::TieredRdmaBufferPool>(
      po, dram.get(), /*remote=*/nullptr, &dram_s.world_.store);
  pool->SetWal(&dram_s.world_.log);
  auto aries_stats = RecoverAries(ctx, pool.get(), &dram_s.world_.log);

  EXPECT_LT(recv_stats.duration, aries_stats.duration / 2);
  EXPECT_LT(recv_stats.records_applied, aries_stats.records_applied);
}

// ---------- cross-scheme equivalence ----------

TEST(RecoveryEquivalenceTest, PolarRecvMatchesAriesByteForByte) {
  // Same logical history on two worlds; recover each with its scheme and
  // compare full table contents.
  CrashScenario cxl_s(BufferPoolKind::kCxl);
  cxl_s.InjectCxlHazards();
  const MemOffset region = cxl_s.Crash();
  ExecContext ctx;
  ctx.now = cxl_s.CrashTime();
  CxlBufferPool::Options po;
  po.capacity_pages = 256;
  po.tenant = 0;
  auto pool = CxlBufferPool::Attach(ctx, po, region, cxl_s.world_.acc,
                                    &cxl_s.world_.store);
  ASSERT_TRUE(pool.ok());
  (*pool)->SetWal(&cxl_s.world_.log);
  PolarRecv(ctx, pool->get(), &cxl_s.world_.log);
  auto cxl_db = Database::OpenWithPool(
      ctx, cxl_s.world_.Env(), RestartOptions(BufferPoolKind::kCxl),
      std::move(*pool));
  ASSERT_TRUE(cxl_db.ok());

  CrashScenario dram_s(BufferPoolKind::kDram);
  dram_s.Crash();
  ExecContext dctx;
  dctx.now = dram_s.CrashTime();
  sim::MemorySpace::Options mo;
  auto dram = std::make_unique<sim::MemorySpace>(mo);
  bufferpool::TieredRdmaBufferPool::Options dpo;
  dpo.lbp_capacity_pages = 256;
  dpo.phys_base = 1ULL << 44;
  auto dpool = std::make_unique<bufferpool::TieredRdmaBufferPool>(
      dpo, dram.get(), /*remote=*/nullptr, &dram_s.world_.store);
  dpool->SetWal(&dram_s.world_.log);
  RecoverAries(dctx, dpool.get(), &dram_s.world_.log);
  auto dram_db = Database::OpenWithPool(
      dctx, dram_s.world_.Env(), RestartOptions(BufferPoolKind::kDram),
      std::move(dpool));
  ASSERT_TRUE(dram_db.ok());

  std::vector<std::pair<uint64_t, std::string>> a;
  std::vector<std::pair<uint64_t, std::string>> b;
  ASSERT_TRUE((*cxl_db)->table(size_t{0})->Scan(ctx, 0, 1 << 20, &a).ok());
  ASSERT_TRUE((*dram_db)->table(size_t{0})->Scan(ctx, 0, 1 << 20, &b).ok());
  EXPECT_EQ(a, b);
}

// Parameterized: equivalence must hold across many random histories.
class RecoveryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecoveryPropertyTest, RandomHistoryRecoversToCommittedState) {
  CrashScenario s(BufferPoolKind::kCxl);
  // Extra random committed churn, seed-dependent.
  Rng rng(GetParam());
  ExecContext& ctx = s.ctx_;
  for (int i = 0; i < 200; i++) {
    const uint64_t k = rng.Uniform(800);
    if (rng.Chance(0.5)) {
      if (s.reference_.count(k) == 0) {
        POLAR_CHECK(s.tree()->Insert(ctx, k, Row(k, 'd')).ok());
        s.reference_[k] = Row(k, 'd');
      }
    } else if (s.reference_.count(k) > 0) {
      POLAR_CHECK(s.tree()->Update(ctx, k, Row(k, 'e')).ok());
      s.reference_[k] = Row(k, 'e');
    }
  }
  s.db_->CommitTransaction(ctx);
  if (GetParam() % 2 == 0) s.db_->Checkpoint(ctx);
  s.InjectCxlHazards();

  const MemOffset region = s.Crash();
  ExecContext rctx;
  rctx.now = s.CrashTime();
  CxlBufferPool::Options po;
  po.capacity_pages = 256;
  po.tenant = 0;
  auto pool = CxlBufferPool::Attach(rctx, po, region, s.world_.acc,
                                    &s.world_.store);
  ASSERT_TRUE(pool.ok());
  (*pool)->SetWal(&s.world_.log);
  PolarRecv(rctx, pool->get(), &s.world_.log);
  auto db = Database::OpenWithPool(
      rctx, s.world_.Env(), RestartOptions(BufferPoolKind::kCxl),
      std::move(*pool));
  ASSERT_TRUE(db.ok());
  s.ExpectMatchesReference(db->get());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace polarcxl::recovery
