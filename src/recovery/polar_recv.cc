#include "recovery/polar_recv.h"

#include <map>
#include <vector>

namespace polarcxl::recovery {

PolarRecvStats PolarRecv(sim::ExecContext& ctx,
                         bufferpool::CxlBufferPool* pool,
                         storage::RedoLog* log) {
  PolarRecvStats stats;
  const Nanos start = ctx.now;
  const Lsn max_persistent = log->flushed_lsn();

  // Hazard (3): was an LRU manipulation in flight?
  const bufferpool::CxlPoolHeader header = pool->LoadHeader(ctx);
  stats.lists_rebuilt = header.lru_mutex != 0;

  // Scan the CXL-resident metadata (one line per block), keeping the metas
  // so the pool can finish recovery without a second pass.
  std::vector<std::pair<uint32_t, bufferpool::CxlBlockMeta>> metas;
  metas.reserve(pool->num_blocks());
  std::vector<uint32_t> repair_blocks;
  std::map<PageId, uint32_t> repair_pages;
  for (uint32_t b = 0; b < pool->num_blocks(); b++) {
    const bufferpool::CxlBlockMeta m = pool->LoadMeta(ctx, b);
    metas.emplace_back(b, m);
    stats.blocks_scanned++;
    if (m.in_use == 0) continue;
    stats.pages_in_use++;
    bool hazard = false;
    if (m.lock_state != 0) {
      stats.locked_pages++;
      hazard = true;
    }
    if (m.lsn > max_persistent) {
      stats.too_new_pages++;
      hazard = true;
    }
    if (hazard) {
      repair_blocks.push_back(b);
      repair_pages[m.id] = b;
      stats.pages_repaired++;
    }
  }

  if (!repair_blocks.empty()) {
    // Rebuild hazardous pages: base image from storage, then durable redo.
    log->ChargeScan(ctx, log->checkpoint_lsn());
    std::map<PageId, std::vector<const storage::RedoRecord*>> by_page;
    for (const storage::RedoRecord* rec :
         log->DurableRecordsFrom(log->checkpoint_lsn())) {
      ctx.Advance(sim::kCpuCosts.log_record_parse);
      const auto it = repair_pages.find(rec->page_id);
      if (it != repair_pages.end()) by_page[rec->page_id].push_back(rec);
    }
    for (const auto& [page_id, block] : repair_pages) {
      pool->store()->ReadPage(ctx, page_id, pool->FrameRaw(block));
      pool->ChargeFrameStream(ctx, block, /*write=*/true);
      engine::PageView page(pool->FrameRaw(block));
      const auto recs = by_page.find(page_id);
      if (recs != by_page.end()) {
        for (const storage::RedoRecord* rec : recs->second) {
          if (ApplyRecord(page, *rec)) {
            pool->ChargeFrameTouch(ctx, block, rec->page_off,
                                   std::max<uint32_t>(rec->len, 1),
                                   /*write=*/true);
            ctx.Advance(sim::kCpuCosts.log_record_apply);
            stats.records_applied++;
          }
        }
      }
      // Clear the hazard flags and re-sync the block LSN.
      bufferpool::CxlBlockMeta m = metas[block].second;
      m.lock_state = 0;
      m.lsn = page.lsn();
      pool->StoreMeta(ctx, block, m);
      metas[block].second = m;
    }
  }

  pool->FinishRecoveryScanned(ctx, metas, stats.lists_rebuilt);
  stats.duration = ctx.now - start;
  return stats;
}

}  // namespace polarcxl::recovery
