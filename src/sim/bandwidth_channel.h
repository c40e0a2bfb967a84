// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Windowed fluid-flow bandwidth channel: the building block for every
// shared, saturable resource in the simulation (RDMA NIC, CXL link, disk,
// client network).
//
// Capacity is tracked per fixed time window (rate * window bytes each). A
// transfer at time `now` consumes budget starting in now's window and
// spills into later windows when full; its completion time is where its
// last byte lands. Queueing under saturation emerges from window spill.
// Unlike a FIFO that only tracks when the link next frees up, this is
// robust to lanes that post transfers out of virtual-time order (the
// executor steps one whole transaction at a time): a transfer at time T
// never blocks one at T' < T in a different window.
//
// The per-window ledger is a ring buffer over a contiguous span of window
// indices. Windows at the front of the span whose budget is fully consumed
// are pruned as soon as they fill (everything before `pruned_end` is
// implicitly "full"), so the footprint stays proportional to the channel's
// reorder span instead of growing linearly over the run the way the old
// std::map ledger did.
//
// Window advancement is lazy and batched: every ring slot outside the
// tracked span is kept zero as an invariant, so sliding the span across an
// idle gap is O(1) arithmetic (update base/count) instead of a zero-fill
// walk, and a transfer spilling over many empty windows is placed with one
// FastDiv64 divide instead of a per-window loop. A channel-local watermark
// retires windows more than `retire_lag_` behind the posting frontier
// (each committed transfer's `now`; their leftover budget is forfeited),
// bounding the idle-front footprint of sparse channels; the executor's
// min-clock discipline keeps concurrent posts far inside the lag, and a
// POLAR_CHECK aborts if one ever lands below the watermark rather than
// silently changing completions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fastdiv.h"
#include "common/types.h"

namespace polarcxl::sim {

/// Private per-epoch view of bytes a shard has placed on a *frozen* shared
/// channel (see Executor's epoch-parallel mode). The channel's real ledger
/// is read-only between barriers; each instance group accumulates its own
/// additional consumption here and the barrier replays it into the ledger
/// in deterministic global order. Epochs are at most one or two channel
/// windows long, so the map is a tiny sorted vector.
class ChannelOverlay {
 public:
  uint64_t Get(int64_t w) const {
    for (const Entry& e : entries_) {
      if (e.window == w) return e.bytes;
      if (e.window > w) break;
    }
    return 0;
  }

  void Add(int64_t w, uint64_t bytes) {
    size_t i = 0;
    for (; i < entries_.size(); i++) {
      if (entries_[i].window == w) {
        entries_[i].bytes += bytes;
        return;
      }
      if (entries_[i].window > w) break;
    }
    entries_.insert(entries_.begin() + static_cast<ptrdiff_t>(i),
                    Entry{w, bytes});
  }

  void Clear() { entries_.clear(); }
  bool empty() const { return entries_.empty(); }

 private:
  struct Entry {
    int64_t window;
    uint64_t bytes;
  };
  std::vector<Entry> entries_;  // sorted by window id
};

class BandwidthChannel {
 public:
  /// The window length of every channel fast enough to move ~1 KB in it;
  /// slower links get proportionally longer windows. The epoch executor's
  /// epochs share this grid.
  static constexpr Nanos kWindowNs = 10'000;

  /// `bytes_per_sec` == 0 means infinite bandwidth (never queues).
  BandwidthChannel(std::string name, uint64_t bytes_per_sec);

  /// Consumes `bytes` of capacity starting at `now`; returns the completion
  /// time (>= now + 1).
  Nanos Transfer(Nanos now, uint64_t bytes);

  /// Epoch-parallel variant of Transfer against a frozen ledger: computes
  /// the completion the transfer *would* get given the channel's committed
  /// state plus the caller's private overlay, commits the consumed bytes
  /// into the overlay only, and leaves the channel untouched (safe to call
  /// concurrently with other overlays). The barrier later replays the same
  /// {now, bytes} through Transfer to commit it for real.
  Nanos TransferDeferred(Nanos now, uint64_t bytes, ChannelOverlay* ov) const;

  /// Marks this channel as shared across instance groups: under
  /// epoch-parallel execution its charges are routed through per-group
  /// overlays and replayed at the barrier instead of applied immediately.
  /// Only EpochFrame::Charge reads the mark, so a serial run ignores it;
  /// SimWorld sets it at construction on every channel but the
  /// per-instance DRAM ones (SimWorld::channels). Purely topological, not
  /// part of State.
  void set_shared(bool shared) { shared_ = shared; }
  bool shared() const { return shared_; }

  const std::string& name() const { return name_; }
  uint64_t bytes_per_sec() const { return bytes_per_sec_; }
  /// Bytes committed through Transfer since construction or ResetStats.
  uint64_t total_bytes() const { return st_.total_bytes; }
  void ResetStats() { st_.total_bytes = 0; }

  /// Number of window slots currently held in the ledger (tests assert this
  /// stays bounded under sustained traffic; the old map grew linearly).
  size_t window_footprint() const { return st_.window_count; }

  /// Ledger-maintenance work counter (diagnostics, monotone, committed
  /// paths only): window slots copied/pruned/retired while sliding or
  /// re-laying out the ring, plus spill iterations past a transfer's first
  /// window (a batched spill over an empty suffix charges 1 for the whole
  /// arithmetic skip; idle-gap slides charge 0 — they do no per-window
  /// work under the zero-slot invariant). The per-transfer fast path is
  /// NOT counted — the counter meters the window-advancement overhead,
  /// not the transfers themselves. Deterministic (pure virtual-time
  /// bookkeeping); deferred epoch charges never count (their barrier
  /// replay through Transfer does).
  uint64_t window_advances() const { return window_advances_; }

  /// Watermark below which windows have been retired (budget forfeited).
  int64_t retired_end_window() const { return st_.retired_end; }

  /// Default retirement lag used when a world arms its channels after
  /// setup (see set_retire_lag).
  static constexpr size_t kRetireLagWindows = 1ULL << 13;

  /// Arms (or re-tunes) watermark retirement: windows more than `windows`
  /// behind the posting frontier are dropped. Channels start DISARMED —
  /// world setup code posts with per-instance time cursors that are wildly
  /// out of order, so SimWorld arms retirement only once setup is done and
  /// every subsequent post is lane-driven (min-clock ordered). Fault-wired
  /// worlds never arm: a fault can stretch one lane step so far that the
  /// next lane's post trails the step's last post by more than any fixed
  /// lag (a checkpoint's whole-pool flush inside a disk-stall window does,
  /// see SimWorld). Arm before any snapshot is captured; the lag itself is
  /// configuration, not state.
  void set_retire_lag(size_t windows) {
    retire_lag_ = static_cast<int64_t>(windows);
  }

  /// Whole mutable state of the channel (ledger ring + byte counter); the
  /// rate and window constants are excluded because they are fixed at
  /// construction, and so are the retire lag (configuration), the shared
  /// mark (topology) and window_advances (a monotone diagnostic). Restore
  /// is only valid on a channel built with the same constructor arguments
  /// as the one captured.
  struct State {
    std::vector<uint64_t> ring;  // power-of-two capacity
    size_t ring_mask = 0;
    int64_t base_window = 0;     // window id of ring[base_slot]
    size_t base_slot = 0;
    size_t window_count = 0;     // valid span [base_window, +window_count)
    // All windows < pruned_end are full. Virtual time starts at 0, so no
    // transfer can land below window 0: claiming those windows consumed is
    // vacuous and lets the prune loop advance from the very first window.
    int64_t pruned_end = 0;
    int64_t retired_end = 0;   // all windows < this are forfeited
    uint64_t total_bytes = 0;  // see total_bytes()
  };

  State Capture() const { return st_; }
  void Restore(const State& s) { st_ = s; }

 private:
  // Disarmed sentinel for retire_lag_: huge but far from overflowing the
  // signed window arithmetic, so the trigger comparison is branch-free.
  static constexpr int64_t kNeverRetire = INT64_MAX / 4;

  /// Consumes `bytes` from `now` on in the ledger; returns the completion.
  Nanos Place(Nanos now, uint64_t bytes);
  /// Drops tracked windows below `r` off the ring front (zeroing their
  /// slots to keep the outside-span-zero invariant) and raises the
  /// retirement watermark.
  void RetireTo(int64_t r);

  /// Exact link time of `b` bytes (b * 1e9 / rate). Window budgets are a few
  /// hundred KB at realistic rates, so the product almost always fits in 64
  /// bits and the slow 128-bit division is skipped; the 64-bit divide by the
  /// run-constant rate is a precomputed magic multiply (exact quotient, so
  /// completions are bit-identical to the plain division).
  Nanos NsForBytes(uint64_t b) const {
    if (b <= UINT64_MAX / kNanosPerSec) {
      return static_cast<Nanos>(fd_rate_.Div(b * kNanosPerSec));
    }
    return static_cast<Nanos>(static_cast<__int128>(b) * kNanosPerSec /
                              bytes_per_sec_);
  }

  /// Consumed bytes of window `w`.
  uint64_t UsedIn(int64_t w) const;
  /// Record `used` consumed bytes for window `w`, growing/sliding the ring
  /// as needed, then prune fully-consumed windows off the front.
  void StoreUsed(int64_t w, uint64_t used);
  /// Make window `w` addressable in the ring (grows capacity, zero-fills).
  void EnsureWindow(int64_t w);

  std::string name_;
  uint64_t bytes_per_sec_;
  bool shared_ = false;
  Nanos window_ns_;
  uint64_t bytes_per_window_;
  // Magic-multiply forms of the three run-constant divisors on the
  // Transfer hot path (time -> window id, bytes -> ns, bytes -> windows
  // for the batched spill skip).
  FastDiv64 fd_rate_;
  FastDiv64 fd_window_;
  FastDiv64 fd_bpw_;

  State st_;  // the ledger; see State
  int64_t retire_lag_ = kNeverRetire;  // see set_retire_lag()
  uint64_t window_advances_ = 0;       // see window_advances()
};

}  // namespace polarcxl::sim
