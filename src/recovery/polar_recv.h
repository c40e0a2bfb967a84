// Copyright 2026 The PolarCXLMem Reproduction Authors.
// PolarRecv (Section 3.2): instant recovery from a CXL buffer pool that
// survived the host crash. Instead of replaying the whole log tail, it
// scans the CXL-resident block metadata and repairs only the hazardous
// blocks:
//   (1) lock_state != 0  — the page may be torn by an in-flight update or
//       SMO (mtr 2PL keeps every SMO page write-locked until commit);
//   (2) lsn > max persistent LSN — the page carries updates whose redo was
//       lost with the DRAM log buffer ("too new" pages);
//   (3) the CXL-mirrored LRU mutex is set — the lists may be inconsistent
//       and are rebuilt.
// Repaired pages are rebuilt from storage + durable redo; everything else
// is reused in place, which is why the buffer pool is warm immediately.
#pragma once

#include "bufferpool/cxl_buffer_pool.h"
#include "recovery/recovery.h"

namespace polarcxl::recovery {

struct PolarRecvStats {
  uint64_t blocks_scanned = 0;
  uint64_t pages_in_use = 0;
  uint64_t locked_pages = 0;      // hazard (1)
  uint64_t too_new_pages = 0;     // hazard (2)
  uint64_t pages_repaired = 0;    // union of (1) and (2)
  bool lists_rebuilt = false;     // hazard (3)
  uint64_t records_applied = 0;
  Nanos duration = 0;
};

/// Runs PolarRecv on an Attach()ed pool. Afterwards the pool's DRAM page
/// table is rebuilt and every surviving page is immediately servable.
PolarRecvStats PolarRecv(sim::ExecContext& ctx,
                         bufferpool::CxlBufferPool* pool,
                         storage::RedoLog* log);

}  // namespace polarcxl::recovery
