// Tests for the transaction surface of a Database: every statement is
// auto-commit. CommitTransaction makes the session's earlier writes durable
// with one log write (shared inside a group-commit window), and
// FinishReadOnly ends a read-only one without touching the log. Crash
// recovery of committed writes is the recovery and failure-injection
// suites' concern.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "engine/database.h"

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

  /// A 200-row table ('a' rows) on a CXL pool, loaded and committed.
  std::unique_ptr<Database> MakeDb(Nanos group_commit_window = 0) {
    DatabaseOptions opt;
    opt.pool_kind = BufferPoolKind::kCxl;
    opt.pool_pages = 512;
    opt.group_commit_window = group_commit_window;
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

/// Virtual time a context spent outside memory, storage, network and locks:
/// the CPU remainder the commit and read-only charges land in.
Nanos CpuTime(const ExecContext& ctx) {
  return ctx.now - (ctx.t_mem + ctx.t_io + ctx.t_net + ctx.t_lock);
}

TEST(CommitTest, CommitMakesEveryEarlierWriteDurableWithOneLogWrite) {
  TxnWorld world;
  auto db = world.MakeDb();
  Table* t = db->table(size_t{0});
  ExecContext ctx;
  ASSERT_TRUE(t->Insert(ctx, 500, std::string(32, 'n')).ok());
  ASSERT_TRUE(t->Update(ctx, 1, std::string(32, 'u')).ok());
  ASSERT_TRUE(t->Delete(ctx, 2).ok());
  const uint64_t pending = world.log.unflushed_bytes();
  ASSERT_GT(pending, 0u);
  const uint64_t ops = world.disk.write_ops();
  const uint64_t bytes = world.disk.write_bytes();
  const Nanos cpu = CpuTime(ctx);

  db->CommitTransaction(ctx);
  EXPECT_EQ(world.log.flushed_lsn(), world.log.current_lsn());
  EXPECT_EQ(world.disk.write_ops(), ops + 1);
  EXPECT_EQ(world.disk.write_bytes(), bytes + pending);
  EXPECT_EQ(CpuTime(ctx) - cpu, sim::kCpuCosts.txn_overhead);
}

TEST(CommitTest, GroupCommitWindowSharesOneLogWrite) {
  TxnWorld world;
  const Nanos window = Micros(20);
  auto db = world.MakeDb(window);
  Table* t = db->table(size_t{0});
  const uint64_t ops = world.disk.write_ops();

  // The leader lingers one window, then writes the log once.
  ExecContext leader;
  leader.now = Millis(100);  // long after the load's commit completed
  ASSERT_TRUE(t->Update(leader, 10, std::string(32, 'L')).ok());
  const Nanos leader_commit = leader.now;
  const Nanos leader_cpu = CpuTime(leader);
  db->CommitTransaction(leader);
  EXPECT_EQ(world.disk.write_ops(), ops + 1);
  const Nanos done = leader.now - sim::kCpuCosts.txn_overhead;
  EXPECT_GT(done, leader_commit + window);
  // The linger is commit wait, charged to I/O: only txn_overhead is CPU.
  EXPECT_EQ(CpuTime(leader) - leader_cpu, sim::kCpuCosts.txn_overhead);

  // A second session committing before that write completes rides it: its
  // write is durable, no new log write is issued, and it completes with
  // the leader's batch.
  ExecContext follower;
  follower.now = leader_commit;
  ASSERT_TRUE(t->Update(follower, 20, std::string(32, 'F')).ok());
  ASSERT_LT(follower.now, done);
  const Nanos cpu = CpuTime(follower);
  db->CommitTransaction(follower);
  EXPECT_EQ(world.disk.write_ops(), ops + 1);
  EXPECT_EQ(world.log.flushed_lsn(), world.log.current_lsn());
  EXPECT_EQ(follower.now, done + sim::kCpuCosts.txn_overhead);
  EXPECT_EQ(CpuTime(follower) - cpu, sim::kCpuCosts.txn_overhead);

  // A commit after the batch completed leads a new write.
  ExecContext late;
  late.now = leader.now + Millis(1);
  ASSERT_TRUE(t->Update(late, 30, std::string(32, 'Z')).ok());
  db->CommitTransaction(late);
  EXPECT_EQ(world.disk.write_ops(), ops + 2);
}

TEST(CommitTest, FinishReadOnlyAppendsAndWritesNothing) {
  TxnWorld world;
  auto db = world.MakeDb();
  ExecContext ctx;
  EXPECT_EQ(*db->table(size_t{0})->Get(ctx, 7), std::string(32, 'a'));
  const Lsn lsn = world.log.current_lsn();
  const uint64_t ops = world.disk.write_ops();
  const Nanos before = ctx.now;
  db->FinishReadOnly(ctx);
  EXPECT_EQ(world.log.current_lsn(), lsn);
  EXPECT_EQ(world.log.flushed_lsn(), lsn);
  EXPECT_EQ(world.disk.write_ops(), ops);
  EXPECT_EQ(ctx.now - before, sim::kCpuCosts.txn_overhead / 2);
}

}  // namespace
}  // namespace polarcxl::engine
