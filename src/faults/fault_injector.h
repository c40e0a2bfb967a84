// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Applies a FaultPlan at exact virtual timestamps. Components hold a
// nullable FaultInjector* and consult it through narrow hooks; with no
// injector set the hook is a single null-pointer compare, and with an
// injector set but no plan armed every query bails on `armed_`. All
// probability draws are seeded per-lane counters, so a run is bit-identical
// for a given (plan, seed) regardless of host, thread count or rerun.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/types.h"
#include "faults/fault_plan.h"
#include "sim/exec_context.h"

namespace polarcxl::faults {

class FaultInjector {
 public:
  struct Stats {
    uint64_t cxl_failures = 0;   // accesses rejected (down or flaky)
    uint64_t cxl_degraded = 0;   // accesses that paid inflated latency
    uint64_t nic_failures = 0;   // verbs ops rejected (brownout or flaky)
    uint64_t nic_degraded = 0;   // verbs ops that paid inflated latency
    uint64_t disk_stalls = 0;    // disk ops that paid stall latency
  };

  FaultInjector() = default;
  POLAR_DISALLOW_COPY(FaultInjector);

  /// Installs a schedule. The plan is normalized and validated; events are
  /// bucketed per fault domain so each hook scans only its own windows.
  Status Arm(FaultPlan plan);

  /// Drops the schedule; every hook becomes a pass-through again.
  void Disarm();

  bool armed() const { return armed_; }
  const FaultPlan& plan() const { return plan_; }

  // ---- hook queries (called by the wired components) ----

  /// CXL access by `node`: error when a covering down window or a flaky
  /// draw rejects it; charges per-op degrade latency otherwise.
  Status OnCxlAccess(sim::ExecContext& ctx, NodeId node);

  /// Bandwidth-degradation charge for a `bytes`-sized CXL streaming
  /// transfer (no failures — op-level outcomes come from OnCxlAccess).
  void OnCxlTransfer(sim::ExecContext& ctx, NodeId node, uint64_t bytes);

  /// Verbs op between `src` and `dst`: error on brownout or flaky draw.
  Status OnVerbsOp(sim::ExecContext& ctx, NodeId src, NodeId dst);

  /// Latency/bandwidth degradation charge for a verbs transfer.
  void OnVerbsTransfer(sim::ExecContext& ctx, NodeId src, NodeId dst,
                       uint64_t bytes);

  /// Disk op: charges stall latency when inside a stall window.
  void OnDiskOp(sim::ExecContext& ctx);

  /// Uncharged introspection: is `node` inside a CXL down window at `now`?
  bool CxlDown(Nanos now, NodeId node) const;
  /// Uncharged introspection: is `node` browned out at `now`?
  bool NicDown(Nanos now, NodeId node) const;

  /// Events of `kind` in schedule order (e.g. drivers consuming
  /// kNodeCrash markers). Empty when disarmed or none scheduled.
  std::vector<FaultEvent> EventsOfKind(FaultKind kind) const;

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  /// Events of one hook's domain, with the covering envelope hoisted so the
  /// armed-but-idle case is two compares.
  struct Domain {
    std::vector<FaultEvent> events;  // schedule order
    Nanos min_at = std::numeric_limits<Nanos>::max();
    Nanos max_until = std::numeric_limits<Nanos>::min();

    bool Idle(Nanos now) const { return now < min_at || now >= max_until; }
    void Add(const FaultEvent& e);
  };

  Domain& DomainFor(FaultKind kind);

  /// One seeded Bernoulli draw for lane `lane`. Consumes exactly one draw
  /// from the lane's counter-mode stream, so the decision sequence depends
  /// only on (seed, lane, draw index) — never on wall time or scheduling.
  bool Draw(uint32_t lane, double probability);

  FaultPlan plan_;
  bool armed_ = false;
  Domain cxl_;
  Domain nic_;
  Domain disk_;
  Domain crash_;
  std::vector<uint64_t> lane_draws_;
  Stats stats_;
};

}  // namespace polarcxl::faults
