// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Crash recovery. Two families:
//  - ARIES-style (RecoverAries): scan durable redo from the checkpoint,
//    read base pages from the pool's backing tier(s), replay. Used by the
//    "vanilla" scheme (DRAM pool: bases come from storage) and the
//    "RDMA-based" scheme (tiered pool: bases come from the surviving remote
//    memory pool when present — the optimization prior RDMA systems ship).
//  - PolarRecv (polar_recv.h): instant recovery from a surviving CXL pool.
#pragma once

#include <cstdint>

#include "bufferpool/buffer_pool.h"
#include "engine/page.h"
#include "sim/latency_model.h"
#include "storage/redo_log.h"

namespace polarcxl::recovery {

/// Applies one redo record to a page iff the page LSN shows it has not been
/// applied yet (page_lsn < record end LSN). Updates the page LSN. Returns
/// whether it applied.
bool ApplyRecord(engine::PageView& page, const storage::RedoRecord& rec);

struct RecoveryStats {
  uint64_t scanned_bytes = 0;    // durable log bytes read
  uint64_t records_seen = 0;
  uint64_t records_applied = 0;
  uint64_t pages_rebuilt = 0;    // pages fetched + replayed
  Nanos duration = 0;            // virtual time spent recovering
};

/// ARIES-style redo pass over `pool` (works for any pool kind). The pool is
/// expected to be freshly constructed (cold) for the vanilla/RDMA schemes.
/// Costs charged: log scan, base page reads (through the pool's miss path),
/// per-record parse and apply CPU (sim::kCpuCosts), page byte writes.
RecoveryStats RecoverAries(sim::ExecContext& ctx,
                           bufferpool::BufferPool* pool,
                           storage::RedoLog* log);

}  // namespace polarcxl::recovery
