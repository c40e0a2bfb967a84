// Instant recovery demo (PolarRecv): run traffic on PolarCXLMem, crash the
// instance mid-flight (losing all DRAM state and the unflushed log tail),
// then recover instantly from the surviving CXL memory — and compare with
// a vanilla ARIES restart from storage.
//
//   $ ./example_instant_recovery
#include <cstdio>

#include "engine/database.h"
#include "recovery/polar_recv.h"
#include "recovery/recovery.h"
#include "workload/sysbench.h"

using namespace polarcxl;

int main() {
  cxl::CxlFabric fabric;
  POLAR_CHECK(fabric.AddDevice(512 << 20).ok());
  cxl::CxlAccessor* host = *fabric.AttachHost(0);
  cxl::CxlMemoryManager manager(fabric.capacity());
  storage::SimDisk disk("disk");
  storage::PageStore store(&disk);
  storage::RedoLog log(&disk);

  engine::DatabaseEnv env;
  env.store = &store;
  env.log = &log;
  env.cxl = host;
  env.cxl_manager = &manager;
  engine::DatabaseOptions opt;
  opt.pool_kind = engine::BufferPoolKind::kCxl;
  opt.pool_pages = 8192;

  sim::ExecContext ctx;
  auto db = std::move(*engine::Database::Create(ctx, env, opt));
  ctx.cache = db->cache();

  workload::SysbenchConfig sysbench;
  sysbench.tables = 2;
  sysbench.rows_per_table = 20000;
  POLAR_CHECK(workload::LoadSysbenchTables(ctx, db.get(), sysbench).ok());
  db->Checkpoint(ctx);

  // Run a write-heavy workload for a while.
  workload::SysbenchWorkload wl(db.get(), sysbench, 0, 1);
  for (int i = 0; i < 2000; i++) {
    wl.RunEvent(ctx, workload::SysbenchOp::kReadWrite);
  }
  std::printf("ran %llu queries; pool holds %llu-page working set in CXL\n",
              static_cast<unsigned long long>(wl.total_queries()),
              static_cast<unsigned long long>(db->pool()->stats().fetches -
                                              db->pool()->stats().hits));

  // CRASH: update a few rows without flushing the log (their redo dies with
  // the DRAM log buffer), then drop the instance.
  for (uint64_t id = 1; id <= 5; id++) {
    const uint32_t torn = 0xDEAD;
    db->table(size_t{0})
        ->UpdateColumn(ctx, id, 0,
                       Slice(reinterpret_cast<const char*>(&torn), 4))
        .ok();
  }
  const MemOffset region = db->cxl_region();
  const Nanos crash_time = ctx.now;
  log.LoseUnflushedTail();
  db.reset();
  std::printf("\n-- CRASH at %.2f ms (DRAM state + log tail lost) --\n",
              crash_time / 1e6);

  // PolarRecv: attach to the surviving region and repair only the hazards.
  sim::ExecContext rctx;
  rctx.now = crash_time;
  bufferpool::CxlBufferPool::Options po;
  po.capacity_pages = 8192;
  auto pool = std::move(
      *bufferpool::CxlBufferPool::Attach(rctx, po, region, host, &store));
  pool->SetWal(&log);
  auto stats = recovery::PolarRecv(rctx, pool.get(), &log);
  auto db2 = std::move(
      *engine::Database::OpenWithPool(rctx, env, opt, std::move(pool)));

  std::printf("PolarRecv: %.3f ms — scanned %llu blocks, %llu in use, "
              "repaired %llu (%llu too-new, %llu write-locked), applied "
              "%llu redo records, LRU rebuilt: %s\n",
              stats.duration / 1e6,
              static_cast<unsigned long long>(stats.blocks_scanned),
              static_cast<unsigned long long>(stats.pages_in_use),
              static_cast<unsigned long long>(stats.pages_repaired),
              static_cast<unsigned long long>(stats.too_new_pages),
              static_cast<unsigned long long>(stats.locked_pages),
              static_cast<unsigned long long>(stats.records_applied),
              stats.lists_rebuilt ? "yes" : "no");

  // The pool is warm: reads hit CXL memory, not storage.
  rctx.cache = db2->cache();
  const uint64_t disk_reads = disk.read_ops();
  for (uint64_t id = 100; id < 200; id++) {
    POLAR_CHECK(db2->table(size_t{0})->Get(rctx, id).ok());
  }
  std::printf("100 reads after recovery -> %llu storage I/Os (warm pool)\n",
              static_cast<unsigned long long>(disk.read_ops() - disk_reads));

  // The torn updates were rolled back (their redo never became durable).
  auto row = db2->table(size_t{0})->Get(rctx, 1);
  uint32_t first4;
  std::memcpy(&first4, row->data(), 4);
  std::printf("row 1 first column after recovery: 0x%X (0xDEAD rolled back)\n",
              first4);
  return 0;
}
