// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Per-lane execution context: the virtual clock plus accounting hooks that
// every simulated component charges time against.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace polarcxl::sim {

class CpuCacheSim;
class EpochFrame;

/// Carried through every engine call executing on behalf of one worker lane
/// (one database session thread). Components advance `now` to model latency;
/// the executor schedules lanes by `now`.
struct ExecContext {
  /// Current virtual time of this lane.
  Nanos now = 0;

  /// Lane index within the executor (globally unique per run).
  uint32_t lane_id = 0;

  /// Database node / instance this lane belongs to.
  NodeId node_id = 0;

  /// Epoch-parallel effect queue of this lane's instance group (null in
  /// serial execution). When set, charges against channels marked shared
  /// are deferred into the frame instead of applied immediately; the
  /// executor drains frames deterministically at each epoch barrier. Charge
  /// sites route through sim::ChargeChannel (sim/epoch.h) to honor this.
  EpochFrame* frame = nullptr;

  /// CPU cache of the executing instance (may be shared between lanes of the
  /// same instance). Null disables cache modelling (every access misses).
  CpuCacheSim* cache = nullptr;

  // ---- cumulative per-lane counters (diagnostics) ----
  uint64_t mem_line_hits = 0;
  uint64_t mem_line_misses = 0;
  uint64_t pages_read_io = 0;    // storage page reads
  uint64_t pages_written_io = 0; // storage page writes

  // ---- time attribution: where this lane's virtual time went ----
  Nanos t_mem = 0;   // memory accesses (DRAM/CXL, incl. flushes)
  Nanos t_io = 0;    // storage reads/writes (incl. WAL flushes)
  Nanos t_net = 0;   // RDMA transfers and RPCs
  Nanos t_lock = 0;  // distributed lock service (RPCs + waits + sleeps)
  // CPU/base time is the remainder: now - (t_mem + t_io + t_net + t_lock).

  /// Flaky-fault draws this lane has made (FaultInjector::Draw): its own
  /// position in its counter-mode stream, so no shard ever writes another
  /// lane's. Lane contexts are captured with the executor, and worlds arm
  /// their fault plans only after the snapshot point, so every run's
  /// streams start at 0.
  uint64_t fault_draws = 0;

  void Advance(Nanos d) { now += d; }
};

}  // namespace polarcxl::sim
