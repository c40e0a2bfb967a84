// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Deterministic virtual-time lane executor. Each lane is one database
// worker (session thread); the executor always steps the lane with the
// smallest clock, so shared-resource ordering is causal and runs are exactly
// reproducible.
//
// Scheduling uses a hierarchical timing wheel (sim/lane_sched.h) keyed on
// virtual-time deltas. Pop order is a pure function of {clock, lane id}
// over the live entries — a total order independent of container layout —
// so any exact min-extraction structure replays the identical step
// sequence (scheduler_test checks the wheel against a heap oracle). Hot
// per-lane scheduling state (clock mirror, epoch, parked flag) lives in a
// packed structure-of-arrays sidecar so staleness checks and min/max
// scans stay cache-local instead of striding over fat lane records.
//
// Epoch-parallel mode (EnableEpochParallel) shards the lanes into
// per-instance-group heaps that advance concurrently on a worker pool
// inside fixed virtual-time epochs `[E·k, E·(k+1))` aligned with the
// BandwidthChannel window grid. Between barriers a shard steps only its
// own lanes against instance-local state; charges to channels marked
// shared are deferred into the group's EpochFrame (sim/epoch.h) and the
// barrier replays them in global {step_start, lane, seq} order — so the
// trajectory is bit-identical for every thread count, including 1. One
// epoch loop serves every thread count: participant 0 is the caller, so a
// one-thread executor runs it with no worker thread.
//
// Park rule: ParkLane/ResumeLane act immediately and only between RunUntil
// calls (an instance crash, a kill-and-restart); a call from inside a step
// aborts. Charges are thus the only effect an epoch barrier replays.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/types.h"
#include "sim/epoch.h"
#include "sim/exec_context.h"
#include "sim/lane_sched.h"

namespace polarcxl::sim {

/// A schedulable worker. Step() executes exactly one unit of work (one
/// transaction/query), advancing ctx.now by its virtual cost.
class Lane {
 public:
  virtual ~Lane() = default;
  /// Returns false to park the lane (it will not be stepped again).
  virtual bool Step(ExecContext& ctx) = 0;
};

namespace internal {
/// Adapter lane around an arbitrary callable. Unlike a std::function-based
/// adapter this keeps the callable inline (no second indirection and no
/// heap-allocated closure copy on the hot Step path).
template <typename Fn>
class CallableLane final : public Lane {
 public:
  explicit CallableLane(Fn fn) : fn_(std::move(fn)) {}
  bool Step(ExecContext& ctx) override { return fn_(ctx); }

 private:
  Fn fn_;
};
}  // namespace internal

/// Min-clock scheduler over a set of lanes.
class Executor {
 public:
  Executor();
  ~Executor();
  POLAR_DISALLOW_COPY(Executor);

  /// Pre-sizes the lane table, the hot sidecar and the shard schedulers
  /// for `n` lanes, so AddLane never reallocates mid-setup. The capacity
  /// is remembered and re-applied when SetThreads re-shards.
  void ReserveLanes(size_t n);

  /// Registers a lane starting at virtual time `start_at`. Returns lane id.
  uint32_t AddLane(std::unique_ptr<Lane> lane, NodeId node_id,
                   CpuCacheSim* cache, Nanos start_at = 0);

  /// Convenience: wrap any `bool(ExecContext&)` callable as a lane.
  template <typename Fn,
            typename = std::enable_if_t<
                std::is_invocable_r_v<bool, Fn&, ExecContext&>>>
  uint32_t AddLane(Fn fn, NodeId node_id, CpuCacheSim* cache,
                   Nanos start_at = 0) {
    return AddLane(
        std::make_unique<internal::CallableLane<Fn>>(std::move(fn)), node_id,
        cache, start_at);
  }

  /// Step lanes until every runnable lane's clock is >= `t` (or all lanes
  /// parked).
  ///
  /// Overshoot contract: a lane is only ever stepped while its clock is
  /// < `t`, and one step executes one whole transaction — so after RunUntil
  /// returns, every runnable lane's clock is >= `t` but may exceed it by
  /// up to one step's virtual cost. No lane is ever stepped *from* a clock
  /// >= `t` (sim_test RunUntilOvershootContract pins this boundary).
  void RunUntil(Nanos t);

  /// Parks a lane externally (e.g., instance crash) with immediate effect.
  /// Only between RunUntil calls: a call from inside a step aborts, so an
  /// epoch barrier never has a park or resume to order.
  void ParkLane(uint32_t lane_id);
  /// Re-activates a parked lane at time `at` (same rule as ParkLane).
  void ResumeLane(uint32_t lane_id, Nanos at);

  /// Switches the executor into epoch-parallel mode: lanes are grouped by
  /// node id (first-seen order), groups map onto `threads` shards, and
  /// RunUntil advances shards concurrently between effect-queue barriers
  /// every 10 µs of virtual time (BandwidthChannel::kWindowNs, the fast
  /// channels' window; aligned to absolute time 0). Call after lane
  /// registration and only while quiescent. Results are bit-identical for
  /// every `threads` value.
  void EnableEpochParallel(uint32_t threads);

  /// Re-shards an epoch-parallel executor onto `threads` workers (e.g. a
  /// cached world re-run under a different POLAR_WORLD_THREADS). Quiescent
  /// calls only.
  void SetThreads(uint32_t threads);

  /// Barriers drained so far (diagnostics).
  uint64_t epochs_run() const { return epochs_run_; }
  /// Number of replayed shared-channel charges whose committed completion
  /// differed from the one observed against the frozen epoch view. Zero
  /// means the run is provably identical to serial immediate execution.
  uint64_t drain_divergence() const { return drain_divergence_; }

  ExecContext& context(uint32_t lane_id) {
    return lanes_[lane_id].ctx;
  }
  size_t num_lanes() const { return lanes_.size(); }
  uint64_t total_steps() const {
    uint64_t t = total_steps_base_;
    for (const Shard& sh : shards_) t += sh.steps;
    return t;
  }
  /// Scheduler work counter (diagnostics, monotone over the executor's
  /// life): every scheduling-entry touch — sift moves, pushes, pops,
  /// stale drops, rebuild visits (see LaneScheduler::ops()) — plus the
  /// per-epoch shard-top probes of epoch-parallel mode counts one op.
  /// Pure virtual-time bookkeeping (no wall-clock input), so per-step
  /// ratios are host-independent; the absolute value varies with thread
  /// count (sharding), so it is gated by ceiling, never pinned (see
  /// bench_sim_throughput's scale_cost section).
  uint64_t sched_ops() const {
    uint64_t t = sched_ops_base_;
    for (const Shard& sh : shards_) t += sh.sched_ops + sh.sched.ops();
    return t;
  }
  /// Smallest clock among runnable lanes; `fallback` if none runnable.
  Nanos MinClock(Nanos fallback = 0) const;
  /// Largest clock reached by any lane (runnable or parked).
  Nanos MaxClock() const;

  /// Scheduler state for world snapshot/restore: per-lane contexts + parked
  /// flags + the step counter. The scheduler structure is not captured —
  /// pop order is a pure function of {ctx.now, id} over runnable lanes
  /// (ties break on id), so Restore rebuilds it from the restored contexts
  /// and replays the identical step sequence. Shard membership and frames
  /// are topology, not state: they survive Restore unchanged.
  struct State {
    std::vector<ExecContext> contexts;
    std::vector<uint8_t> parked;
    uint64_t total_steps = 0;
  };

  State Capture() const;
  /// Restores contexts/parked/step-count onto the same lane set (lane code
  /// and registration order must match the captured executor exactly).
  void Restore(const State& s);

 private:
  struct LaneRec {
    std::unique_ptr<Lane> lane;
    ExecContext ctx;
    uint32_t group = 0;   // instance group (epoch-parallel mode)
    uint32_t shard = 0;   // scheduling shard (group % num_threads_)
  };

  /// One scheduling shard. Serial mode is exactly one shard holding every
  /// lane. sched_ops holds the executor-side scheduling work (epoch-end
  /// shard-top probes); entry-level work is counted inside sched.
  struct Shard {
    LaneScheduler sched;
    uint64_t steps = 0;      // merged into total_steps() on read
    uint64_t sched_ops = 0;  // merged into sched_ops() on read
  };

  struct WorkerPool;  // defined in executor.cc

  bool StepOne(Shard& sh);  // returns false if no runnable lane in shard

  /// Settles every shard and returns the globally minimal live entry
  /// (false if all drained): O(shards) probes of settled tops instead of
  /// an O(lanes) scan. Non-const (settling drops stale entries); only call
  /// while the workers are quiescent or parked at a barrier.
  bool SettledMin(SchedEntry* out);

  uint32_t GroupFor(NodeId node_id);
  void RebuildShardScheds();
  /// Runs one shard until its min clock reaches `t` (same loop as serial
  /// RunUntil, scoped to the shard).
  void RunShardUntil(Shard& sh, Nanos t);
  /// Replays all frames' deferred charges in global order; workers must be
  /// quiescent.
  void DrainBarrier();
  void RunUntilParallel(Nanos t);
  /// Body of the epoch loop each pool participant runs: participant 0 (the
  /// main thread) decides each epoch's end and drains the barrier, everyone
  /// steps their own shard between the two spin barriers.
  void EpochLoop(uint32_t shard_idx);
  void StartWorkers();
  void StopWorkers();

  std::vector<LaneRec> lanes_;
  /// Hot per-lane scheduling state (clock mirror / epoch / parked),
  /// indexed by lane id. ctx.now stays authoritative while a lane is
  /// on-CPU inside Step; the mirror is refreshed the moment it yields,
  /// so every off-CPU read (staleness, min/max/runnable scans) touches
  /// only this packed sidecar.
  std::vector<LaneHot> hot_;
  std::vector<Shard> shards_;  // size 1 serial; size num_threads_ parallel
  size_t reserved_lanes_ = 0;      // ReserveLanes hint, re-applied on re-shard
  uint64_t total_steps_base_ = 0;  // restored baseline under shard counters
  uint64_t sched_ops_base_ = 0;    // folded on re-shard/restore

  /// Set while RunUntil runs; backs the park rule's check.
  bool running_ = false;

  // ---- epoch-parallel state ----
  bool parallel_ = false;
  uint32_t num_threads_ = 1;
  std::vector<NodeId> group_nodes_;  // group id -> node id (first-seen)
  std::vector<std::unique_ptr<EpochFrame>> frames_;  // one per group
  uint64_t epochs_run_ = 0;
  uint64_t drain_divergence_ = 0;
  std::vector<EpochFrame::SharedOp> drain_shared_;  // barrier scratch
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace polarcxl::sim
