// Auto-commit demo: every statement commits through
// Database::CommitTransaction, which makes the session's writes durable with
// one redo log write. Two sessions committing inside one group-commit window
// share that write. A crash then loses only what never committed: a vanilla
// ARIES restart (redo from storage) brings back every committed row.
//
//   $ ./example_transactions
#include <cstdio>
#include <cstring>

#include "engine/database.h"
#include "recovery/recovery.h"

using namespace polarcxl;

namespace {

uint64_t Balance(const std::string& row) {
  uint64_t v;
  std::memcpy(&v, row.data(), sizeof(v));
  return v;
}

std::string Account(uint64_t balance) {
  std::string row(32, 0);
  std::memcpy(row.data(), &balance, sizeof(balance));
  return row;
}

unsigned long long BalanceOf(sim::ExecContext& ctx, engine::Table* t,
                             uint64_t id) {
  return static_cast<unsigned long long>(Balance(*t->Get(ctx, id)));
}

}  // namespace

int main() {
  storage::SimDisk disk("disk");
  storage::PageStore store(&disk);
  storage::RedoLog log(&disk);

  engine::DatabaseEnv env;
  env.store = &store;
  env.log = &log;
  engine::DatabaseOptions opt;
  opt.pool_kind = engine::BufferPoolKind::kDram;
  opt.pool_pages = 1024;
  opt.group_commit_window = Micros(20);

  sim::ExecContext ctx;
  auto db = std::move(*engine::Database::Create(ctx, env, opt));
  auto accounts = *db->CreateTable(ctx, "accounts", 32);
  for (uint64_t id = 1; id <= 100; id++) {
    POLAR_CHECK(accounts->Insert(ctx, id, Account(1000)).ok());
  }
  db->CommitTransaction(ctx);

  // 1. Two sessions, one statement each, starting 5 us apart: the first
  //    leads a batch and lingers one window, the second rides its write.
  sim::ExecContext alice;
  sim::ExecContext bob;
  alice.now = ctx.now + Millis(1);
  bob.now = alice.now + Micros(5);
  const uint64_t writes = disk.write_ops();
  POLAR_CHECK(accounts->Update(alice, 1, Account(750)).ok());
  db->CommitTransaction(alice);
  POLAR_CHECK(accounts->Update(bob, 2, Account(1250)).ok());
  db->CommitTransaction(bob);
  std::printf("two commits, %llu log write(s): alice done at %.1f us, "
              "bob at %.1f us\n",
              static_cast<unsigned long long>(disk.write_ops() - writes),
              static_cast<double>(alice.now) / 1e3,
              static_cast<double>(bob.now) / 1e3);
  std::printf("committed: acct1=%llu acct2=%llu\n",
              BalanceOf(bob, accounts, 1), BalanceOf(bob, accounts, 2));

  // 2. A statement that never commits: its page changed in DRAM, but its
  //    redo is still in the volatile log buffer when the host crashes.
  sim::ExecContext carol;
  carol.now = bob.now + Millis(1);
  POLAR_CHECK(accounts->Update(carol, 3, Account(1)).ok());
  std::printf("uncommitted: acct3=%llu (%llu redo bytes not yet durable)\n",
              BalanceOf(carol, accounts, 3),
              static_cast<unsigned long long>(log.unflushed_bytes()));
  const Nanos crash_time = carol.now;
  log.LoseUnflushedTail();
  db.reset();
  std::printf("\n-- CRASH: DRAM buffer pool and log buffer lost --\n");

  // 3. Vanilla ARIES restart: a cold DRAM pool, base pages from storage,
  //    the durable redo from the checkpoint replayed on top.
  sim::ExecContext rctx;
  rctx.now = crash_time;
  sim::MemorySpace dram{sim::MemorySpace::Options{}};
  bufferpool::TieredRdmaBufferPool::Options po;
  po.lbp_capacity_pages = opt.pool_pages;
  po.phys_base = 1ULL << 44;
  auto pool = std::make_unique<bufferpool::TieredRdmaBufferPool>(
      po, &dram, /*remote=*/nullptr, &store);
  pool->SetWal(&log);
  const recovery::RecoveryStats stats =
      recovery::RecoverAries(rctx, pool.get(), &log);
  auto db2 = std::move(
      *engine::Database::OpenWithPool(rctx, env, opt, std::move(pool)));
  std::printf("ARIES replayed %llu redo records onto %llu pages in %.2f ms\n",
              static_cast<unsigned long long>(stats.records_applied),
              static_cast<unsigned long long>(stats.pages_rebuilt),
              static_cast<double>(stats.duration) / 1e6);
  engine::Table* t = db2->table(size_t{0});
  std::printf("after restart: acct1=%llu acct2=%llu (committed, kept) "
              "acct3=%llu (uncommitted, lost)\n",
              BalanceOf(rctx, t, 1), BalanceOf(rctx, t, 2),
              BalanceOf(rctx, t, 3));
  POLAR_CHECK(BalanceOf(rctx, t, 1) == 750 && BalanceOf(rctx, t, 2) == 1250 &&
              BalanceOf(rctx, t, 3) == 1000);
  return 0;
}
