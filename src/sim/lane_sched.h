// Copyright 2026 The PolarCXLMem Reproduction Authors.
// O(active) lane scheduler: a hierarchical timing wheel (calendar queue)
// keyed on virtual-time deltas.
//
// The executor needs exact min-extraction over live scheduling entries
// ordered by {at, id} (ties break on lane id). That total order is a pure
// function of the entry set — it does not depend on the container's
// internal layout — so ANY structure that extracts the exact minimum
// yields a bit-identical step sequence. The wheel exploits this: entries
// within the current window sit in a small binary heap (exact order);
// entries in later windows are parked in O(1) buckets until the cursor
// reaches their window, at which point the bucket is bulk-heapified.
// Every entry in a later window has `at` strictly greater than every
// entry in the current window, so deferring their ordering is free.
// tests/scheduler_test.cc checks the wheel against a flat binary-heap
// oracle with the same order and staleness rule.
//
// Staleness is lazy-deletion against the executor's cache-local LaneHot
// sidecar: an entry is dead when its lane is parked, its epoch no longer
// matches, or its clock moved. Stale entries are dropped when they reach
// the top (Settle) or swept wholesale once noted-stale entries outnumber
// the live ones (Rebuild).
#pragma once

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/types.h"

namespace polarcxl::sim {

/// Hot per-lane scheduling state, split out of the fat executor lane
/// records into one packed structure-of-arrays sidecar: the scheduler's
/// staleness check and the executor's min/max/runnable scans touch only
/// these 16 bytes per lane (4 lanes per cache line) instead of pulling a
/// whole LaneRec (lane pointer + ExecContext) per lane.
struct LaneHot {
  Nanos clock = 0;      // mirrors ctx.now whenever the lane is off-CPU
  uint32_t epoch = 0;   // invalidates stale scheduling entries
  uint32_t parked = 0;  // bool; 32-bit keeps the struct 16B/pow2-aligned
};
static_assert(sizeof(LaneHot) == 16, "LaneHot must stay cache-dense");

/// One scheduling entry. `epoch` is 32-bit on purpose: a stale entry is
/// only misjudged live if the lane's epoch wraps all the way around
/// between the entry's creation and its staleness check, which would take
/// 2^32 park/resume/step events while the entry sits unexamined — the
/// entry would be dropped or swept long before.
struct SchedEntry {
  Nanos at = 0;
  uint32_t id = 0;
  uint32_t epoch = 0;
  bool Before(const SchedEntry& o) const {
    if (at != o.at) return at < o.at;
    return id < o.id;
  }
};

class LaneScheduler {
 public:
  LaneScheduler() = default;

  /// Points the scheduler at the executor's LaneHot sidecar (staleness
  /// source of truth) and empties it. Call before any Push.
  void Init(const std::vector<LaneHot>* hot);

  /// Sizing hint: the scheduler picks its bucket width/count targeting
  /// about one live entry per bucket for `n_lanes` lanes. Also reserves
  /// container capacity. Safe to call again; entries are redistributed.
  void Reserve(size_t n_lanes);

  /// Drops every entry (sizing is kept).
  void Clear();

  void Push(SchedEntry e);

  /// Drops stale entries until the minimum live entry is exposed.
  /// Returns false if the scheduler drained (no live entries).
  bool Settle();

  /// Minimum live entry; only valid immediately after Settle() returned
  /// true (no Push/Note in between).
  const SchedEntry& Top() const { return cur_heap_[0]; }

  /// Removes the current Top().
  void PopTop();

  /// Hint that one entry somewhere just went stale (lane parked or
  /// re-epoched outside a pop). Triggers a wholesale rebuild once stale
  /// entries outnumber live ones (plus slack) — the lazy-deletion
  /// compaction threshold.
  void NoteStale();

  /// Scheduler work counter, charged with the same discipline as the
  /// binary-heap baseline (entry touches and moves, not comparisons):
  /// one op per entry push/pop/stale-drop/overflow-migration, one per
  /// heap sift level (entry move), one per entry visited by a rebuild,
  /// and one per bitmap word scanned past the first during a cursor
  /// advance (meters long idle-gap skips; bucket loads are O(1) vector
  /// swaps and charge only their heapify sift moves). Monotone; the
  /// executor aggregates it into Executor::sched_ops().
  uint64_t ops() const { return ops_; }
  /// Wholesale stale-sweep rebuilds performed (diagnostics/tests).
  uint64_t rebuilds() const { return rebuilds_; }
  /// Entries currently held, live or stale.
  size_t entries() const { return entries_; }

 private:
  uint64_t WindowOf(Nanos at) const {
    return static_cast<uint64_t>(at) >> log_width_;
  }
  bool StaleEntry(const SchedEntry& e) const {
    const LaneHot& h = (*hot_)[e.id];
    return h.parked != 0 || h.epoch != e.epoch || h.clock != e.at;
  }

  // Exact binary-heap primitives over {at, id} (shared by the
  // current-window heap and the overflow heap). All bump ops_ per level.
  void HeapPush(std::vector<SchedEntry>& h, SchedEntry e);
  void HeapPop(std::vector<SchedEntry>& h);
  void SiftDown(std::vector<SchedEntry>& h, size_t i);
  void Heapify(std::vector<SchedEntry>& h);

  /// Routes an entry whose window is >= cur_win_ into cur_heap_ / a
  /// bucket / the overflow heap.
  void Route(SchedEntry e, uint64_t win);
  /// Moves the cursor to the next populated window and loads it into
  /// cur_heap_; false if nothing is left anywhere.
  bool AdvanceWindow();
  /// Collects every live entry, drops stale ones, resets the cursor to
  /// the minimum live window and redistributes. Also used for cursor
  /// retreats (a resume behind the cursor) and re-sizing.
  void Rebuild(const SchedEntry* extra);

  const std::vector<LaneHot>* hot_ = nullptr;

  // Buckets cover windows (cur_win_, cur_win_ + N); window w maps to
  // bucket w & (N-1), and the retreat-rebuild rule guarantees a bucket
  // only ever holds entries of one window at a time. The bitmap marks
  // non-empty buckets for ctz-driven cursor advance.
  std::vector<SchedEntry> cur_heap_;  // entries in the cursor's window
  std::vector<std::vector<SchedEntry>> buckets_;
  std::vector<uint64_t> bitmap_;
  std::vector<SchedEntry> overflow_;  // windows >= cur_win_ + N
  uint64_t cur_win_ = 0;
  size_t bucket_count_ = 0;  // entries across buckets_ (not cur/overflow)

  // Sizing: bucket width 2^log_width_ ns, 2^log_buckets_ buckets. Chosen
  // by Reserve() targeting ~1 entry/bucket; re-applied when the lane
  // population doubles past what was sized for.
  int log_width_ = 6;
  int log_buckets_ = 10;
  size_t sized_for_ = 64;

  size_t entries_ = 0;
  size_t stale_ = 0;  // noted-stale upper bound (reset by Rebuild)
  uint64_t ops_ = 0;
  uint64_t rebuilds_ = 0;
};

}  // namespace polarcxl::sim
