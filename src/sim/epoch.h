// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Epoch-parallel effect queues. Under POLAR_WORLD_THREADS the executor
// advances per-instance lane shards concurrently inside fixed virtual-time
// epochs aligned with the BandwidthChannel window grid. Channels shared
// across instances (CXL host link + fabric, RDMA wires/doorbells, client
// network, disk) are *frozen* between barriers: a worker never mutates
// them. Instead each instance group owns an EpochFrame that
//   1. computes the completion a charge would get from the frozen ledger
//      plus the group's private ChannelOverlay (TransferDeferred), and
//   2. records the charge as an ordered effect {chan, at, bytes} keyed by
//      {step_start, lane, seq}.
// The epoch barrier replays all frames' charges through the real
// Transfer in that global key order — the same order a serial run
// interleaves instances — so the post-barrier ledger state is independent
// of the thread count. A divergence counter tracks how often the replayed
// completion differs from the one observed against the frozen view (i.e.
// how often cross-group contention *within* one epoch would have mattered).
// Charges are the only deferred effect: lane park/resume happens between
// RunUntil calls, never inside a step (Executor::ParkLane).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/bandwidth_channel.h"
#include "sim/exec_context.h"

namespace polarcxl::sim {

/// Per-instance-group effect queue for one epoch. Owned by the Executor;
/// only the worker thread running the group's shard touches it between
/// barriers, only the main thread touches it during a barrier.
class EpochFrame {
 public:
  /// One deferred charge against a shared channel.
  struct SharedOp {
    BandwidthChannel* chan;
    Nanos at;          // virtual time the charge was posted
    uint64_t bytes;
    Nanos step_start;  // posting lane's clock when its step began
    uint32_t lane;     // posting lane id
    uint32_t seq;      // posting order within the step
    Nanos observed;    // completion computed against frozen state + overlay
  };

  /// Stamps the sort key for effects posted by the step about to run.
  void BeginStep(Nanos step_start, uint32_t lane) {
    step_start_ = step_start;
    lane_ = lane;
    seq_ = 0;
  }

  /// Charges `bytes` on `chan` at `now`. Shared channels defer; channels
  /// private to this group's instance commit immediately (no other shard
  /// can touch them, so immediate == serial semantics).
  Nanos Charge(BandwidthChannel& chan, Nanos now, uint64_t bytes) {
    if (!chan.shared()) return chan.Transfer(now, bytes);
    ChannelOverlay& ov = OverlayFor(&chan);
    const Nanos done = chan.TransferDeferred(now, bytes, &ov);
    shared_ops_.push_back(
        {&chan, now, bytes, step_start_, lane_, seq_++, done});
    return done;
  }

  // ---- barrier side (main thread, workers quiescent) ----
  std::vector<SharedOp>& shared_ops() { return shared_ops_; }
  bool empty() const { return shared_ops_.empty(); }

  void ClearEpoch() {
    shared_ops_.clear();
    for (auto& [chan, ov] : overlays_) ov.Clear();
  }

 private:
  ChannelOverlay& OverlayFor(BandwidthChannel* chan) {
    for (auto& [c, ov] : overlays_) {
      if (c == chan) return ov;
    }
    overlays_.emplace_back(chan, ChannelOverlay{});
    return overlays_.back().second;
  }

  // A group touches a handful of shared channels; linear scan beats hashing.
  std::vector<std::pair<BandwidthChannel*, ChannelOverlay>> overlays_;
  std::vector<SharedOp> shared_ops_;
  Nanos step_start_ = 0;
  uint32_t lane_ = 0;
  uint32_t seq_ = 0;
};

/// Routes a channel charge through the lane's effect queue when one is
/// attached (epoch-parallel execution), else straight to the channel. All
/// cross-instance charge sites (memory_space, disk, redo_log, rdma_network,
/// workload client net) go through here.
inline Nanos ChargeChannel(ExecContext& ctx, BandwidthChannel& chan,
                           Nanos now, uint64_t bytes) {
  if (ctx.frame == nullptr) return chan.Transfer(now, bytes);
  return ctx.frame->Charge(chan, now, bytes);
}

}  // namespace polarcxl::sim
