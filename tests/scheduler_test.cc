// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Scheduler-equivalence tests: the hierarchical timing wheel must pop the
// exact same {at, id, epoch} sequence as a binary-heap oracle for ANY
// interleaving of pushes, pops, parks and resumes — that is the whole
// determinism argument for the executor's scheduler (the pop order is a
// pure function of the live entry set, so any exact min-extraction
// structure replays the identical step sequence).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/lane_sched.h"

namespace polarcxl::sim {
namespace {

// Exact-min oracle: one flat binary heap over the same {at, id} order,
// dropping entries at the top under the same LaneHot staleness rule as
// the wheel (lane parked, re-epoched, or clock moved).
class HeapOracle {
 public:
  void Init(const std::vector<LaneHot>* hot) {
    hot_ = hot;
    heap_.clear();
  }
  void Push(SchedEntry e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), After);
  }
  bool Settle() {
    while (!heap_.empty() && Stale(heap_.front())) PopTop();
    return !heap_.empty();
  }
  const SchedEntry& Top() const { return heap_.front(); }
  void PopTop() {
    std::pop_heap(heap_.begin(), heap_.end(), After);
    heap_.pop_back();
  }

 private:
  // std heaps are max-heaps under their comparator; invert for a min-heap.
  static bool After(const SchedEntry& a, const SchedEntry& b) {
    return b.Before(a);
  }
  bool Stale(const SchedEntry& e) const {
    const LaneHot& h = (*hot_)[e.id];
    return h.parked != 0 || h.epoch != e.epoch || h.clock != e.at;
  }

  const std::vector<LaneHot>* hot_ = nullptr;
  std::vector<SchedEntry> heap_;
};

// Drives a wheel and the heap oracle in lockstep over one shared LaneHot
// sidecar (staleness is read-only on the sidecar, so sharing is safe) and
// checks every Settle/Top against the oracle.
class DualSched {
 public:
  void Init(size_t n_lanes) {
    hot_.assign(n_lanes, LaneHot{});
    wheel_.Init(&hot_);
    oracle_.Init(&hot_);
    wheel_.Reserve(n_lanes);
  }

  // Schedules lane `id` at time `at` under a fresh epoch, mirroring
  // Executor::ResumeLane / AddLane: the sidecar and the pushed entry
  // must agree or the entry is stale on arrival.
  void Schedule(uint32_t id, Nanos at) {
    LaneHot& h = hot_[id];
    h.clock = at;
    h.epoch++;
    h.parked = 0;
    const SchedEntry e{at, id, h.epoch};
    wheel_.Push(e);
    oracle_.Push(e);
  }

  // Parks a lane that currently has a live entry (Executor::ParkLane).
  void Park(uint32_t id) {
    hot_[id].parked = 1;
    wheel_.NoteStale();
  }

  // Settles both schedulers, checks they agree, pops the minimum from
  // both. Returns false when both drained.
  bool PopBoth(SchedEntry* out) {
    const bool w = wheel_.Settle();
    const bool o = oracle_.Settle();
    EXPECT_EQ(w, o) << "wheel and oracle disagree on drained-ness";
    if (!w || !o) return false;
    const SchedEntry wt = wheel_.Top();
    const SchedEntry ot = oracle_.Top();
    EXPECT_EQ(wt.at, ot.at);
    EXPECT_EQ(wt.id, ot.id);
    EXPECT_EQ(wt.epoch, ot.epoch);
    wheel_.PopTop();
    oracle_.PopTop();
    *out = wt;
    return true;
  }

  // Drains both and checks the full remaining pop sequences match.
  size_t DrainBoth() {
    size_t n = 0;
    SchedEntry e;
    Nanos prev = -1;
    uint32_t prev_id = 0;
    while (PopBoth(&e)) {
      // Pop order must be the {at, id} total order.
      EXPECT_TRUE(e.at > prev || (e.at == prev && e.id > prev_id));
      prev = e.at;
      prev_id = e.id;
      n++;
    }
    return n;
  }

  LaneHot& hot(uint32_t id) { return hot_[id]; }
  LaneScheduler& wheel() { return wheel_; }

 private:
  std::vector<LaneHot> hot_;
  LaneScheduler wheel_;
  HeapOracle oracle_;
};

// ---------- randomized property test ----------

// 10K random (clock, lane, park/resume) operations: every pop must match
// the oracle bit for bit. Deltas mix sub-window hops, multi-window hops,
// exact bucket-boundary landings and far-future wakeups (beyond the
// wheel's bucket span, i.e. the overflow heap), and resumes reuse the
// lane's old clock so cursor retreats (rebuilds) happen organically.
TEST(SchedulerEquivalence, RandomizedWheelMatchesHeapOracle) {
  constexpr size_t kLanes = 64;
  constexpr int kOps = 10000;
  DualSched ds;
  ds.Init(kLanes);

  std::mt19937_64 rng(0xC0FFEE);
  std::vector<uint8_t> live(kLanes, 0);    // has an in-scheduler entry
  std::vector<uint8_t> parked(kLanes, 0);  // parked (no live entry)
  for (uint32_t id = 0; id < kLanes; ++id) {
    ds.Schedule(id, static_cast<Nanos>(rng() % 4096));
    live[id] = 1;
  }

  auto random_delta = [&rng]() -> Nanos {
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
        return 1 + static_cast<Nanos>(rng() % 100);  // within a window
      case 3:
      case 4:
        return 1 + static_cast<Nanos>(rng() % 10000);  // a few windows
      case 5:
        // Exact bucket-boundary landing for the 64-lane geometry
        // (window width 128 ns): multiples of 128.
        return static_cast<Nanos>(128 * (1 + rng() % 64));
      case 6:
        return 100000 + static_cast<Nanos>(rng() % 100000);
      default:
        // Far future: way beyond the bucket span (131072 ns at 64
        // lanes) — lands in the overflow heap.
        return (Nanos{1} << 20) + static_cast<Nanos>(rng() % (1 << 22));
    }
  };

  int pops = 0, parks = 0, resumes = 0;
  for (int op = 0; op < kOps; ++op) {
    const uint64_t dice = rng() % 10;
    if (dice < 7) {
      // Step: pop the minimum, then either reschedule or park the lane —
      // exactly what Executor::StepOne does with keep / !keep.
      SchedEntry e;
      if (!ds.PopBoth(&e)) continue;
      pops++;
      live[e.id] = 0;
      if (rng() % 8 == 0) {
        ds.hot(e.id).parked = 1;  // popped entry: no NoteStale needed
        parked[e.id] = 1;
      } else {
        ds.Schedule(e.id, e.at + random_delta());
        live[e.id] = 1;
      }
    } else if (dice < 8) {
      // Park a random live lane out from under its entry.
      const uint32_t id = static_cast<uint32_t>(rng() % kLanes);
      if (live[id] && !parked[id]) {
        ds.Park(id);
        live[id] = 0;
        parked[id] = 1;
        parks++;
      }
    } else {
      // Resume a parked lane. Half the time at its old clock (which may
      // sit far behind the cursor by now — the retreat/rebuild path),
      // half at a fresh future time.
      const uint32_t id = static_cast<uint32_t>(rng() % kLanes);
      if (parked[id]) {
        const Nanos old_clock = ds.hot(id).clock;
        const Nanos at =
            (rng() % 2 == 0) ? old_clock : old_clock + random_delta();
        ds.Schedule(id, at);
        live[id] = 1;
        parked[id] = 0;
        resumes++;
      }
    }
  }
  EXPECT_GT(pops, kOps / 2);
  EXPECT_GT(parks, 0);
  EXPECT_GT(resumes, 0);
  // The park/resume mix forces lazy-deletion sweeps somewhere in 10K ops.
  EXPECT_GT(ds.wheel().rebuilds(), 0u);
  ds.DrainBoth();
}

// ---------- deterministic edge cases ----------

// Entries straddling exact window boundaries (width 128 ns at 64 lanes)
// must pop in {at, id} order: the one-window-per-bucket mapping cannot
// merge or reorder adjacent windows.
TEST(SchedulerEquivalence, BucketBoundaryOrdering) {
  DualSched ds;
  ds.Init(64);
  // {at, id}: boundary-1, boundary, boundary+1, same-at ties, span edge.
  ds.Schedule(7, 0);
  ds.Schedule(0, 128);
  ds.Schedule(1, 127);
  ds.Schedule(2, 128);  // tie with lane 0 at the boundary: id breaks it
  ds.Schedule(3, 129);
  ds.Schedule(5, 255);
  ds.Schedule(4, 256);
  ds.Schedule(6, 131072);  // == bucket span: first overflow window
  const std::vector<std::pair<Nanos, uint32_t>> want = {
      {0, 7},   {127, 1}, {128, 0},    {128, 2},
      {129, 3}, {255, 5}, {256, 4},    {131072, 6}};
  SchedEntry e;
  for (const auto& [at, id] : want) {
    ASSERT_TRUE(ds.PopBoth(&e));
    EXPECT_EQ(e.at, at);
    EXPECT_EQ(e.id, id);
  }
  EXPECT_FALSE(ds.PopBoth(&e));
}

// A wakeup far beyond the bucket span parks in the overflow heap and must
// still interleave correctly with near-term entries pushed later.
TEST(SchedulerEquivalence, FarFutureWakeup) {
  DualSched ds;
  ds.Init(64);
  ds.Schedule(0, 10);
  ds.Schedule(1, Nanos{1} << 40);  // absurdly far: overflow for sure
  SchedEntry e;
  ASSERT_TRUE(ds.PopBoth(&e));
  EXPECT_EQ(e.id, 0u);
  // While the far entry is the only thing left, push nearer work; it must
  // win even though the overflow entry was pushed first.
  ds.Schedule(2, 500000);
  ds.Schedule(3, 20);
  ASSERT_TRUE(ds.PopBoth(&e));
  EXPECT_EQ(e.id, 3u);
  ASSERT_TRUE(ds.PopBoth(&e));
  EXPECT_EQ(e.id, 2u);
  ASSERT_TRUE(ds.PopBoth(&e));
  EXPECT_EQ(e.id, 1u);
  EXPECT_EQ(e.at, Nanos{1} << 40);
  EXPECT_FALSE(ds.PopBoth(&e));
}

// A resume behind the wheel cursor (lane parked early, world moved on,
// lane resumed at its old clock) must retreat the cursor — serviced by a
// wholesale rebuild — and still pop first.
TEST(SchedulerEquivalence, CursorRetreatOnResumeBehindCursor) {
  DualSched ds;
  ds.Init(64);
  ds.Schedule(0, 10);
  ds.Schedule(1, 50000);
  SchedEntry e;
  ASSERT_TRUE(ds.PopBoth(&e));
  EXPECT_EQ(e.id, 0u);
  ds.hot(0).parked = 1;  // lane 0 parks right after its step at t=10
  ASSERT_TRUE(ds.PopBoth(&e));  // cursor is now in t=50000's window
  EXPECT_EQ(e.id, 1u);
  ds.Schedule(1, 60000);
  const uint64_t rebuilds_before = ds.wheel().rebuilds();
  ds.Schedule(0, 20);  // resume at old clock: behind the cursor
  EXPECT_GT(ds.wheel().rebuilds(), rebuilds_before);
  ASSERT_TRUE(ds.PopBoth(&e));
  EXPECT_EQ(e.id, 0u);
  EXPECT_EQ(e.at, 20);
  ASSERT_TRUE(ds.PopBoth(&e));
  EXPECT_EQ(e.id, 1u);
  EXPECT_FALSE(ds.PopBoth(&e));
}

// Regression for the lazy-deletion compaction threshold: parking well
// over `live + 64` lanes must trigger a wholesale rebuild (not wait for
// the stale entries to surface one by one), the rebuild must shed exactly
// the dead entries, and the survivors must still pop in {at, id} order
// identical to the oracle.
TEST(SchedulerEquivalence, RebuildThresholdShedsStaleAndPreservesOrder) {
  constexpr size_t kLanes = 256;
  DualSched ds;
  ds.Init(kLanes);
  for (uint32_t id = 0; id < kLanes; ++id) {
    ds.Schedule(id, 17 * static_cast<Nanos>(id + 1));
  }
  const uint64_t rebuilds_before = ds.wheel().rebuilds();
  // Park every lane not divisible by 4: 192 stale vs 64 live, crossing
  // the `stale > live + 64` threshold partway through the loop.
  size_t parked = 0;
  for (uint32_t id = 0; id < kLanes; ++id) {
    if (id % 4 != 0) {
      ds.Park(id);
      parked++;
    }
  }
  EXPECT_EQ(parked, 192u);
  EXPECT_GT(ds.wheel().rebuilds(), rebuilds_before);
  // The sweep shed the dead weight wholesale, without any Settle; parks
  // after the sweep may linger, but only up to the threshold slack.
  EXPECT_LT(ds.wheel().entries(), kLanes - 64);
  EXPECT_LE(ds.wheel().entries(), (kLanes - parked) + 64 + 1);
  // Pop-order identity over the survivors.
  SchedEntry e;
  for (uint32_t id = 0; id < kLanes; id += 4) {
    ASSERT_TRUE(ds.PopBoth(&e));
    EXPECT_EQ(e.id, id);
    EXPECT_EQ(e.at, 17 * static_cast<Nanos>(id + 1));
  }
  EXPECT_FALSE(ds.PopBoth(&e));
}

// Same-clock ties break deterministically by lane id in both structures —
// the tie-break that makes the pop order a total order in the first place.
TEST(SchedulerEquivalence, SameClockTiesBreakByLaneId) {
  DualSched ds;
  ds.Init(64);
  for (uint32_t id : {5u, 2u, 9u, 0u, 7u}) ds.Schedule(id, 1000);
  SchedEntry e;
  for (uint32_t want : {0u, 2u, 5u, 7u, 9u}) {
    ASSERT_TRUE(ds.PopBoth(&e));
    EXPECT_EQ(e.at, 1000);
    EXPECT_EQ(e.id, want);
  }
  EXPECT_FALSE(ds.PopBoth(&e));
}

}  // namespace
}  // namespace polarcxl::sim
