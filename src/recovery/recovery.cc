#include "recovery/recovery.h"

#include <map>
#include <vector>

namespace polarcxl::recovery {

bool ApplyRecord(engine::PageView& page, const storage::RedoRecord& rec) {
  using storage::RedoKind;
  if (rec.kind != RedoKind::kFormat && page.lsn() >= rec.end_lsn()) {
    return false;  // already reflected in this image
  }
  switch (rec.kind) {
    case RedoKind::kRaw:
      std::memcpy(page.raw() + rec.page_off, rec.data.data(), rec.len);
      break;
    case RedoKind::kFormat: {
      if (page.lsn() >= rec.end_lsn() && page.IsFormatted()) return false;
      uint16_t value_size;
      std::memcpy(&value_size, rec.data.data() + 1, sizeof(value_size));
      page.Format(rec.page_id, rec.data[0], value_size);
      break;
    }
    case RedoKind::kInsertEntry: {
      uint64_t key;
      std::memcpy(&key, rec.data.data(), sizeof(key));
      page.InsertEntryRaw(page.LowerBound(key),
                          key, rec.data.data() + engine::kKeySize);
      break;
    }
    case RedoKind::kEraseEntry: {
      uint64_t key;
      std::memcpy(&key, rec.data.data(), sizeof(key));
      uint16_t idx;
      if (page.Find(key, &idx)) page.EraseEntryRaw(idx);
      break;
    }
  }
  page.set_lsn(rec.end_lsn());
  return true;
}

RecoveryStats RecoverAries(sim::ExecContext& ctx,
                           bufferpool::BufferPool* pool,
                           storage::RedoLog* log) {
  RecoveryStats stats;
  const Nanos start = ctx.now;
  const Lsn from = log->checkpoint_lsn();

  // 1. Scan the durable log tail (charged at disk bandwidth).
  log->ChargeScan(ctx, from);
  stats.scanned_bytes = log->flushed_lsn() - from;

  // 2. Group records by page, preserving LSN order.
  std::map<PageId, std::vector<const storage::RedoRecord*>> by_page;
  for (const storage::RedoRecord* rec : log->DurableRecordsFrom(from)) {
    ctx.Advance(sim::kCpuCosts.log_record_parse);
    stats.records_seen++;
    by_page[rec->page_id].push_back(rec);
  }

  // 3. Replay per page: fetch the base image through the pool (storage or
  //    remote memory, whichever the pool's miss path finds), apply.
  for (auto& [page_id, records] : by_page) {
    auto ref = pool->Fetch(ctx, page_id, /*for_write=*/true);
    POLAR_CHECK_MSG(ref.ok(), "recovery could not fetch page");
    engine::PageView page(ref->data);
    Lsn last = page.lsn();
    bool any = false;
    for (const storage::RedoRecord* rec : records) {
      if (ApplyRecord(page, *rec)) {
        ref->Touch(ctx, rec->page_off, std::max<uint32_t>(rec->len, 1),
                   /*write=*/true);
        ctx.Advance(sim::kCpuCosts.log_record_apply);
        stats.records_applied++;
        any = true;
        last = rec->end_lsn();
      }
    }
    pool->Unfix(ctx, *ref, page_id, any, last);
    stats.pages_rebuilt++;
  }

  stats.duration = ctx.now - start;
  return stats;
}

}  // namespace polarcxl::recovery
