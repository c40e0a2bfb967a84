// Tests for multi-statement transactions: atomicity via runtime Abort,
// durability via commit markers, and the ARIES undo pass rolling back
// loser transactions after a crash (on both PolarRecv and vanilla paths).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/transaction.h"
#include "recovery/polar_recv.h"
#include "recovery/recovery.h"
#include "recovery/txn_undo.h"

namespace polarcxl::engine {
namespace {

using sim::ExecContext;

struct TxnWorld {
  TxnWorld() : disk("d"), store(&disk), log(&disk) {
    POLAR_CHECK(fabric.AddDevice(128 << 20).ok());
    acc = *fabric.AttachHost(0);
    manager = std::make_unique<cxl::CxlMemoryManager>(fabric.capacity());
  }

  DatabaseEnv Env() {
    DatabaseEnv env;
    env.store = &store;
    env.log = &log;
    env.cxl = acc;
    env.cxl_manager = manager.get();
    return env;
  }

  std::unique_ptr<Database> MakeDb(BufferPoolKind kind) {
    DatabaseOptions opt;
    opt.pool_kind = kind;
    opt.pool_pages = 512;
    ExecContext ctx;
    auto db = std::move(*Database::Create(ctx, Env(), opt));
    auto t = *db->CreateTable(ctx, "t", 32);
    for (uint64_t k = 1; k <= 200; k++) {
      POLAR_CHECK(t->Insert(ctx, k, std::string(32, 'a')).ok());
    }
    db->CommitTransaction(ctx);
    return db;
  }

  storage::SimDisk disk;
  storage::PageStore store;
  storage::RedoLog log;
  cxl::CxlFabric fabric;
  cxl::CxlAccessor* acc = nullptr;
  std::unique_ptr<cxl::CxlMemoryManager> manager;
};

TEST(UndoOpTest, SerializeRoundTrip) {
  UndoOp op;
  op.kind = UndoOp::Kind::kRestoreBytes;
  op.table = 7;
  op.off = 12;
  op.key = 0xDEADBEEFCAFEULL;
  op.bytes = {1, 2, 3, 4, 5};
  const UndoOp back = UndoOp::Deserialize(op.Serialize());
  EXPECT_EQ(back.kind, op.kind);
  EXPECT_EQ(back.table, op.table);
  EXPECT_EQ(back.off, op.off);
  EXPECT_EQ(back.key, op.key);
  EXPECT_EQ(back.bytes, op.bytes);
}

TEST(TransactionTest, CommitMakesAllWritesVisible) {
  TxnWorld world;
  auto db = world.MakeDb(BufferPoolKind::kCxl);
  TransactionManager txns(db.get());
  ExecContext ctx;
  auto txn = txns.Begin(ctx);
  ASSERT_TRUE(txns.Insert(ctx, txn.get(), 0, 500, std::string(32, 'n')).ok());
  ASSERT_TRUE(txns.Update(ctx, txn.get(), 0, 1, std::string(32, 'u')).ok());
  ASSERT_TRUE(txns.Delete(ctx, txn.get(), 0, 2).ok());
  ASSERT_TRUE(txns.Commit(ctx, txn.get()).ok());

  EXPECT_EQ(*db->table(size_t{0})->Get(ctx, 500), std::string(32, 'n'));
  EXPECT_EQ(*db->table(size_t{0})->Get(ctx, 1), std::string(32, 'u'));
  EXPECT_TRUE(db->table(size_t{0})->Get(ctx, 2).status().IsNotFound());
}

TEST(TransactionTest, AbortRollsBackEverythingInReverse) {
  TxnWorld world;
  auto db = world.MakeDb(BufferPoolKind::kCxl);
  TransactionManager txns(db.get());
  ExecContext ctx;
  auto txn = txns.Begin(ctx);
  ASSERT_TRUE(txns.Insert(ctx, txn.get(), 0, 500, std::string(32, 'n')).ok());
  ASSERT_TRUE(txns.Update(ctx, txn.get(), 0, 1, std::string(32, 'u')).ok());
  ASSERT_TRUE(
      txns.UpdateColumn(ctx, txn.get(), 0, 1, 4, Slice("ZZ", 2)).ok());
  ASSERT_TRUE(txns.Delete(ctx, txn.get(), 0, 2).ok());
  ASSERT_TRUE(txns.Abort(ctx, txn.get()).ok());

  EXPECT_TRUE(db->table(size_t{0})->Get(ctx, 500).status().IsNotFound());
  EXPECT_EQ(*db->table(size_t{0})->Get(ctx, 1), std::string(32, 'a'));
  EXPECT_EQ(*db->table(size_t{0})->Get(ctx, 2), std::string(32, 'a'));
}

TEST(TransactionTest, FailedStatementDoesNotPoisonUndo) {
  TxnWorld world;
  auto db = world.MakeDb(BufferPoolKind::kCxl);
  TransactionManager txns(db.get());
  ExecContext ctx;
  auto txn = txns.Begin(ctx);
  ASSERT_TRUE(txns.Update(ctx, txn.get(), 0, 1, std::string(32, 'u')).ok());
  // Duplicate insert fails; its pre-logged undo is retracted.
  EXPECT_TRUE(txns.Insert(ctx, txn.get(), 0, 1, std::string(32, 'x'))
                  .IsInvalidArgument());
  EXPECT_EQ(txn->num_undo_ops(), 1u);
  ASSERT_TRUE(txns.Abort(ctx, txn.get()).ok());
  EXPECT_EQ(*db->table(size_t{0})->Get(ctx, 1), std::string(32, 'a'));
}

/// Crash with a transaction in flight: redo restores its writes (they were
/// durable), the undo pass rolls them back. Parameterized over PolarRecv
/// and the vanilla ARIES path, and over a checkpoint taken while the loser
/// is in flight: the log then releases the winner's records but must keep
/// the loser's undo info, which lies below the checkpoint.
class LoserTxnTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(LoserTxnTest, LoserTransactionIsRolledBackAfterCrash) {
  const auto [use_polar_recv, checkpoint_mid_loser] = GetParam();
  TxnWorld world;
  auto db = world.MakeDb(use_polar_recv ? BufferPoolKind::kCxl
                                        : BufferPoolKind::kDram);
  TransactionManager txns(db.get());
  ExecContext ctx;

  // A committed transaction (winner).
  auto winner = txns.Begin(ctx);
  ASSERT_TRUE(
      txns.Update(ctx, winner.get(), 0, 10, std::string(32, 'W')).ok());
  ASSERT_TRUE(txns.Commit(ctx, winner.get()).ok());

  // An in-flight transaction (loser): writes durable, no commit marker.
  auto loser = txns.Begin(ctx);
  ASSERT_TRUE(
      txns.Update(ctx, loser.get(), 0, 20, std::string(32, 'L')).ok());
  ASSERT_TRUE(
      txns.Insert(ctx, loser.get(), 0, 600, std::string(32, 'L')).ok());
  if (checkpoint_mid_loser) {
    db->Checkpoint(ctx);
    size_t undo_below = 0;
    for (const storage::RedoRecord* rec : world.log.DurableRecordsFrom(0)) {
      if (rec->kind != storage::RedoKind::kUndoInfo) continue;
      EXPECT_EQ(rec->txn_id, loser->id());  // the winner's were released
      if (rec->end_lsn() <= world.log.checkpoint_lsn()) undo_below++;
    }
    EXPECT_EQ(undo_below, 2u);
  }
  ASSERT_TRUE(txns.Delete(ctx, loser.get(), 0, 30).ok());
  world.log.Flush(ctx);  // the loser's writes and undo info ARE durable

  const MemOffset region =
      use_polar_recv ? db->cxl_region() : MemOffset{0};
  const Nanos crash_time = ctx.now;
  world.log.LoseUnflushedTail();
  db.reset();

  // Recover.
  ExecContext rctx;
  rctx.now = crash_time;
  DatabaseOptions opt;
  opt.pool_pages = 512;
  sim::MemorySpace dram{sim::MemorySpace::Options{}};  // outlives db2's pool
  std::unique_ptr<Database> db2;
  if (use_polar_recv) {
    opt.pool_kind = BufferPoolKind::kCxl;
    bufferpool::CxlBufferPool::Options po;
    po.capacity_pages = 512;
    auto pool = std::move(*bufferpool::CxlBufferPool::Attach(
        rctx, po, region, world.acc, &world.store));
    pool->SetWal(&world.log);
    recovery::PolarRecv(rctx, pool.get(), &world.log, sim::CpuCostModel{});
    db2 = std::move(
        *Database::OpenWithPool(rctx, world.Env(), opt, std::move(pool)));
  } else {
    opt.pool_kind = BufferPoolKind::kDram;
    bufferpool::TieredRdmaBufferPool::Options po;
    po.lbp_capacity_pages = 512;
    po.phys_base = 1ULL << 44;
    auto pool = std::make_unique<bufferpool::TieredRdmaBufferPool>(
        po, &dram, /*remote=*/nullptr, &world.store);
    pool->SetWal(&world.log);
    recovery::RecoverAries(rctx, pool.get(), &world.log,
                           sim::CpuCostModel{});
    db2 = std::move(
        *Database::OpenWithPool(rctx, world.Env(), opt, std::move(pool)));
  }

  // Undo pass.
  auto stats = recovery::UndoLoserTransactions(rctx, db2.get());
  EXPECT_EQ(stats.loser_txns, 1u);
  EXPECT_EQ(stats.undo_ops_applied, 3u);

  // Winner persisted; loser fully rolled back.
  EXPECT_EQ(*db2->table(size_t{0})->Get(rctx, 10), std::string(32, 'W'));
  EXPECT_EQ(*db2->table(size_t{0})->Get(rctx, 20), std::string(32, 'a'));
  EXPECT_TRUE(db2->table(size_t{0})->Get(rctx, 600).status().IsNotFound());
  EXPECT_EQ(*db2->table(size_t{0})->Get(rctx, 30), std::string(32, 'a'));

  // The undo pass logged abort markers: a second pass finds no losers.
  auto again = recovery::UndoLoserTransactions(rctx, db2.get());
  EXPECT_EQ(again.loser_txns, 0u);
  EXPECT_EQ(again.undo_ops_applied, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, LoserTxnTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "polar_recv"
                                                 : "vanilla") +
             (std::get<1>(info.param) ? "_checkpoint_mid_loser" : "");
    });

TEST(TransactionTest, RandomizedAtomicityProperty) {
  TxnWorld world;
  auto db = world.MakeDb(BufferPoolKind::kCxl);
  TransactionManager txns(db.get());
  ExecContext ctx;
  std::map<uint64_t, std::string> model;
  for (uint64_t k = 1; k <= 200; k++) model[k] = std::string(32, 'a');

  Rng rng(99);
  for (int t = 0; t < 60; t++) {
    auto txn = txns.Begin(ctx);
    std::map<uint64_t, std::string> draft = model;
    const int ops = 1 + static_cast<int>(rng.Uniform(6));
    for (int i = 0; i < ops; i++) {
      const uint64_t key = 1 + rng.Uniform(260);
      std::string val(32, static_cast<char>('b' + rng.Uniform(20)));
      switch (rng.Uniform(3)) {
        case 0:
          if (draft.count(key) == 0 &&
              txns.Insert(ctx, txn.get(), 0, key, val).ok()) {
            draft[key] = val;
          }
          break;
        case 1:
          if (draft.count(key) > 0 &&
              txns.Update(ctx, txn.get(), 0, key, val).ok()) {
            draft[key] = val;
          }
          break;
        case 2:
          if (draft.count(key) > 0 &&
              txns.Delete(ctx, txn.get(), 0, key).ok()) {
            draft.erase(key);
          }
          break;
      }
    }
    if (rng.Chance(0.5)) {
      ASSERT_TRUE(txns.Commit(ctx, txn.get()).ok());
      model = draft;  // all effects visible
    } else {
      ASSERT_TRUE(txns.Abort(ctx, txn.get()).ok());
      // no effects visible
    }
    // Spot-check the model after every transaction.
    for (int probe = 0; probe < 5; probe++) {
      const uint64_t key = 1 + rng.Uniform(260);
      auto got = db->table(size_t{0})->Get(ctx, key);
      if (model.count(key) > 0) {
        ASSERT_TRUE(got.ok()) << key;
        ASSERT_EQ(*got, model[key]) << key;
      } else {
        ASSERT_TRUE(got.status().IsNotFound()) << key;
      }
    }
  }
}

}  // namespace
}  // namespace polarcxl::engine
