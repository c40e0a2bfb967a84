// Tests for the virtual-time simulation core: bandwidth channels, CPU cache
// simulator, memory spaces, lock table, executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/bandwidth_channel.h"
#include "sim/cpu_cache.h"
#include "sim/executor.h"
#include "sim/latency_model.h"
#include "sim/lock_table.h"
#include "sim/memory_space.h"

namespace polarcxl::sim {
namespace {

// ---------- BandwidthChannel ----------

TEST(BandwidthChannelTest, UnsaturatedTransfersDoNotQueue) {
  BandwidthChannel ch("nic", 1000000000);  // 1 GB/s => 1 byte/ns
  EXPECT_EQ(ch.Transfer(0, 1000), 1000);
  // A later transfer with window budget left completes (nearly) instantly:
  // small-transfer service time lives in the latency models, the channel
  // only accounts capacity.
  const Nanos done = ch.Transfer(5000, 1000);
  EXPECT_GE(done, 5001);
  EXPECT_LE(done, 6000);
}

TEST(BandwidthChannelTest, SaturatedTransfersQueueFifo) {
  BandwidthChannel ch("nic", 1000000000);
  EXPECT_EQ(ch.Transfer(0, 1000), 1000);
  EXPECT_EQ(ch.Transfer(0, 1000), 2000);  // queued behind the first
  EXPECT_EQ(ch.Transfer(500, 1000), 3000);
}

TEST(BandwidthChannelTest, InfiniteBandwidthNeverQueues) {
  BandwidthChannel ch("inf", 0);
  EXPECT_EQ(ch.Transfer(42, 1 << 30), 42);
}

TEST(BandwidthChannelTest, StatsAccumulate) {
  BandwidthChannel ch("nic", 2000000000);
  ch.Transfer(0, 4000);
  ch.Transfer(0, 4000);
  EXPECT_EQ(ch.total_bytes(), 8000u);
  ch.ResetStats();
  EXPECT_EQ(ch.total_bytes(), 0u);
}

TEST(BandwidthChannelTest, OverloadCompletesAtTheCappedRate) {
  BandwidthChannel ch("nic", 1000000000);
  // Offer 1 GB at t=0: at 1 GB/s the last byte lands at 1 s, within one
  // 10 us window.
  Nanos last = 0;
  for (int i = 0; i < 100; i++) {
    last = std::max(last, ch.Transfer(0, 10 * 1000 * 1000));
  }
  EXPECT_NEAR(static_cast<double>(last), static_cast<double>(kNanosPerSec),
              10'000);
  EXPECT_EQ(ch.total_bytes(), 1000u * 1000 * 1000);
}

TEST(BandwidthChannelTest, MinimumOneNanosecond) {
  BandwidthChannel ch("fast", 64ULL * 1000 * 1000 * 1000);
  const Nanos done = ch.Transfer(0, 1);
  EXPECT_GE(done, 1);
}

TEST(BandwidthChannelTest, OutOfOrderPostingKeepsPerWindowAccounting) {
  // 1 GB/s, default 10 us windows => 10 KB budget per window. A transfer
  // posted at an *earlier* virtual time than one already accepted must not
  // be pushed behind it: its own window still has budget.
  BandwidthChannel ch("nic", 1000000000);
  const Nanos late = ch.Transfer(50'000, 5000);   // window 5
  EXPECT_EQ(late, 55'000);
  const Nanos early = ch.Transfer(12'000, 5000);  // window 1, posted after
  EXPECT_EQ(early, 15'000);  // window 1's budget, unaffected by window 5
  // Window 1 now holds 5000/10000: a second early transfer fills it.
  EXPECT_EQ(ch.Transfer(12'000, 5000), 20'000);
  // And a third spills into window 2.
  EXPECT_EQ(ch.Transfer(12'000, 5000), 25'000);
}

TEST(BandwidthChannelTest, ZeroRateChannelNeverQueuesAndKeepsNoLedger) {
  BandwidthChannel ch("inf", 0);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(ch.Transfer(i * 100, 1 << 20), i * 100);
  }
  EXPECT_EQ(ch.window_footprint(), 0u);  // rate 0 = infinite: no ledger
}

TEST(BandwidthChannelTest, WindowBoundarySpill) {
  // 1 GB/s, 10 KB/window. A transfer larger than the remaining budget of
  // its window spills into the next; completion lands where the last byte
  // lands, in the later window.
  BandwidthChannel ch("nic", 1000000000);
  EXPECT_EQ(ch.Transfer(0, 10'000), 10'000);   // fills window 0 exactly
  EXPECT_EQ(ch.Transfer(0, 15'000), 25'000);   // spills through window 1
  // Window 2 has 5000 used; the next 5000 completes window 2's budget.
  EXPECT_EQ(ch.Transfer(20'000, 5000), 30'000);
}

TEST(BandwidthChannelTest, FootprintStaysBoundedUnderSaturation) {
  // Sustained saturated traffic must not grow the ledger: fully-consumed
  // front windows are pruned as they fill (the old map ledger kept every
  // window ever touched).
  BandwidthChannel ch("nic", 1000000000);
  size_t max_footprint = 0;
  Nanos now = 0;
  for (int i = 0; i < 50'000; i++) {
    now = ch.Transfer(now, 10'000);  // one full window per transfer
    max_footprint = std::max(max_footprint, ch.window_footprint());
  }
  EXPECT_LE(max_footprint, 64u);
  // ~500 ms of virtual time crossed ~50k windows; the ring held only the
  // active frontier.
  EXPECT_GT(now, Nanos{400'000'000});
}

TEST(BandwidthChannelTest, IdleGapSlideChargesNothing) {
  // 1 GB/s, 10 KB / 10 us windows. A long idle gap between posts must be
  // skipped arithmetically — the lazy extension never iterates (or
  // charges for) the untouched windows in between.
  BandwidthChannel ch("nic", 1000000000);
  ch.Transfer(0, 1000);
  const uint64_t before = ch.window_advances();
  // 1 full second later: 100'000 windows of idle gap.
  ch.Transfer(1'000'000'000, 1000);
  EXPECT_LE(ch.window_advances() - before, 2u);
}

TEST(BandwidthChannelTest, BatchedSpillChargesOnce) {
  // A transfer spanning ~1000 windows from a clean frontier commits as
  // one arithmetic batch (FastDiv64), not a per-window walk.
  BandwidthChannel ch("nic", 1000000000);
  const Nanos done = ch.Transfer(0, 10'000'000);  // 1000 windows' budget
  EXPECT_EQ(done, 10'000'000);
  EXPECT_LE(ch.window_advances(), 2u);
}

TEST(BandwidthChannelTest, RetirementBoundsSparseLedgerFootprint) {
  // Sparse periodic traffic (one partial window every 50 windows) leaves
  // part-used windows behind that pruning alone never drops. With the
  // watermark armed, the ledger retires everything `lag` windows behind
  // the posting frontier and the footprint stays O(lag), while an
  // unarmed twin fed the same schedule keeps identical completions —
  // in-order traffic never looks behind the watermark, so forfeiting
  // the stale budget is unobservable.
  BandwidthChannel armed("a", 1000000000);
  BandwidthChannel unarmed("u", 1000000000);
  armed.set_retire_lag(4);
  size_t max_armed = 0, max_unarmed = 0;
  for (int i = 0; i < 2000; i++) {
    const Nanos now = static_cast<Nanos>(i) * 500'000;  // every 50 windows
    EXPECT_EQ(armed.Transfer(now, 1000), unarmed.Transfer(now, 1000));
    max_armed = std::max(max_armed, armed.window_footprint());
    max_unarmed = std::max(max_unarmed, unarmed.window_footprint());
  }
  EXPECT_LE(max_armed, 8u);
  EXPECT_GT(max_unarmed, 1000u);  // the unarmed span keeps every gap
  // The watermark tracked the posting frontier minus the lag.
  EXPECT_GE(armed.retired_end_window(), 1999 * 50 - 4);
  EXPECT_EQ(unarmed.retired_end_window(), 0);
}

TEST(BandwidthChannelTest, RetirementSurvivesCaptureRestore) {
  BandwidthChannel ch("nic", 1000000000);
  ch.set_retire_lag(4);
  ch.Transfer(1'000'000, 1000);
  const auto snap = ch.Capture();
  const int64_t retired = ch.retired_end_window();
  EXPECT_GT(retired, 0);
  ch.Transfer(2'000'000, 1000);
  ch.Restore(snap);
  EXPECT_EQ(ch.retired_end_window(), retired);
  // Replaying the post-snapshot traffic gives the same completion.
  EXPECT_EQ(ch.Transfer(2'000'000, 1000), 2'000'000 + 1000);
}

TEST(BandwidthChannelDeathTest, PostingBehindWatermarkTrips) {
  // Out-of-order posts below the watermark would read windows whose
  // budget was forfeited; the ledger refuses instead of answering wrong.
  BandwidthChannel ch("nic", 1000000000);
  ch.set_retire_lag(2);
  ch.Transfer(10'000'000, 1000);  // frontier at window 1000, retire to 998
  EXPECT_DEATH(ch.Transfer(0, 1000), "POLAR_CHECK");
}

// ---------- CpuCacheSim ----------

TEST(CpuCacheTest, MissThenHit) {
  CpuCacheSim cache(1 << 20);
  auto r1 = cache.Access(0x1000, false, nullptr);
  EXPECT_FALSE(r1.hit);
  auto r2 = cache.Access(0x1000, false, nullptr);
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CpuCacheTest, SameLineSharedByNearbyBytes) {
  CpuCacheSim cache(1 << 20);
  cache.Access(0x1000, false, nullptr);
  EXPECT_TRUE(cache.Contains(0x1000 + 63));
  EXPECT_FALSE(cache.Contains(0x1000 + 64));
}

TEST(CpuCacheTest, DirtyEvictionReported) {
  // Tiny cache: 1 set x 2 ways.
  CpuCacheSim cache(128, 2);
  // Fill both ways with writes, then force an eviction.
  cache.Access(0 * 64, true, nullptr);
  cache.Access(1 * 64, true, nullptr);
  // Some subsequent distinct line must evict one of the dirty ones.
  bool saw_dirty_eviction = false;
  for (uint64_t i = 2; i < 10; i++) {
    auto r = cache.Access(i * 64, false, nullptr);
    saw_dirty_eviction |= r.evicted_dirty;
  }
  EXPECT_TRUE(saw_dirty_eviction);
}

TEST(CpuCacheTest, LruPrefersOldest) {
  CpuCacheSim cache(128, 2);  // 1 set, 2 ways
  cache.Access(0, false, nullptr);
  cache.Access(64, false, nullptr);
  cache.Access(0, false, nullptr);    // refresh line 0
  cache.Access(128, false, nullptr);  // must evict line 64
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(64));
  EXPECT_TRUE(cache.Contains(128));
}

TEST(CpuCacheTest, FlushRangeCountsDirtyAndClean) {
  CpuCacheSim cache(1 << 20);
  // Page at 0x10000: write 3 lines, read 2 lines.
  cache.Access(0x10000 + 0 * 64, true, nullptr);
  cache.Access(0x10000 + 1 * 64, true, nullptr);
  cache.Access(0x10000 + 2 * 64, true, nullptr);
  cache.Access(0x10000 + 3 * 64, false, nullptr);
  cache.Access(0x10000 + 4 * 64, false, nullptr);
  uint32_t dirty = 0;
  uint32_t clean = 0;
  cache.FlushRange(0x10000, 16 * 1024, &dirty, &clean);
  EXPECT_EQ(dirty, 3u);
  EXPECT_EQ(clean, 2u);
  EXPECT_FALSE(cache.Contains(0x10000));
}

TEST(CpuCacheTest, InvalidateAllEmptiesCache) {
  CpuCacheSim cache(1 << 20);
  for (uint64_t i = 0; i < 100; i++) cache.Access(i * 64, true, nullptr);
  cache.InvalidateAll();
  for (uint64_t i = 0; i < 100; i++) EXPECT_FALSE(cache.Contains(i * 64));
}

TEST(CpuCacheTest, CapacityRespected) {
  CpuCacheSim cache(64 * 1024, 16);
  EXPECT_EQ(cache.capacity_bytes(), 64u * 1024);
  // Stream far more lines than capacity; hits must stay low on 2nd pass of
  // a working set 4x the capacity.
  const uint64_t lines = 4 * 1024;
  for (uint64_t pass = 0; pass < 2; pass++) {
    for (uint64_t i = 0; i < lines; i++) cache.Access(i * 64, false, nullptr);
  }
  EXPECT_LT(static_cast<double>(cache.hits()) /
                static_cast<double>(cache.hits() + cache.misses()),
            0.35);
}

TEST(CpuCacheTest, CapacityRoundsDownToPowerOfTwoSets) {
  // 100000 B / (4 ways * 64 B lines) = 390 sets, rounded down to 256 so
  // set indexing stays a mask; capacity_bytes() reports the effective size.
  CpuCacheSim cache(100'000, 4);
  EXPECT_EQ(cache.num_sets(), 256u);
  EXPECT_EQ(cache.num_sets() & (cache.num_sets() - 1), 0u);
  EXPECT_EQ(cache.capacity_bytes(), 256u * 4 * 64);
  CpuCacheSim exact(1 << 20, 16);
  EXPECT_EQ(exact.capacity_bytes(), 1u << 20);
}

TEST(CpuCacheTest, RecentLineMemoInvalidatedWithTheCache) {
  // The recent-line memo must never manufacture hits for lines the cache
  // dropped: after a flush the memo's slot tag is zeroed, so the re-check
  // fails and the access takes the regular (miss) path.
  CpuCacheSim cache(1 << 20);
  EXPECT_FALSE(cache.Access(0x2000, true, nullptr).hit);
  EXPECT_TRUE(cache.Access(0x2000, false, nullptr).hit);  // memo hit path
  cache.InvalidateAll();
  EXPECT_FALSE(cache.Access(0x2000, false, nullptr).hit);
  EXPECT_TRUE(cache.Access(0x2000, false, nullptr).hit);

  cache.Access(0x2000, true, nullptr);  // re-dirty
  uint32_t dirty = 0;
  uint32_t clean = 0;
  cache.FlushRange(0x2000, 64, &dirty, &clean);
  EXPECT_EQ(dirty, 1u);
  EXPECT_FALSE(cache.Access(0x2000, false, nullptr).hit);
}

// ---------- MemorySpace ----------

MemorySpace::Options DramOptions() {
  MemorySpace::Options o;
  o.name = "dram";
  o.line_latency = 146;
  return o;
}

TEST(MemorySpaceTest, UncachedTouchPaysLineLatency) {
  MemorySpace mem(DramOptions());
  ExecContext ctx;  // no cache: every access misses
  mem.Touch(ctx, 0, 64, false);
  EXPECT_EQ(ctx.now, 146);
}

TEST(MemorySpaceTest, MultiLineTouchPipelines) {
  MemorySpace mem(DramOptions());
  ExecContext ctx;
  mem.Touch(ctx, 0, 256, false);  // 4 lines
  // First line full latency; remaining 3 at the streaming slope (4 ns).
  EXPECT_EQ(ctx.now, 146 + 3 * 4);
}

TEST(MemorySpaceTest, CacheHitsAreCheap) {
  MemorySpace mem(DramOptions());
  CpuCacheSim cache(1 << 20);
  ExecContext ctx;
  ctx.cache = &cache;
  mem.Touch(ctx, 0, 64, false);
  const Nanos after_miss = ctx.now;
  mem.Touch(ctx, 0, 64, false);
  EXPECT_EQ(ctx.now - after_miss, 4);  // cache hit cost
}

TEST(MemorySpaceTest, SaturatedLinkQueues) {
  BandwidthChannel link("lnk", 64);  // 64 B/s: absurdly slow
  MemorySpace::Options o = DramOptions();
  o.link = &link;
  MemorySpace mem(o);
  ExecContext ctx;
  mem.Touch(ctx, 0, 64, false);
  // One line takes a full virtual second on the link.
  EXPECT_GE(ctx.now, kNanosPerSec / 2);
}

TEST(MemorySpaceTest, StreamUsesStreamCostAndChannel) {
  BandwidthChannel link("lnk", 16ULL * 1000 * 1000 * 1000);  // 16 B/ns
  MemorySpace::Options o = DramOptions();
  o.link = &link;
  o.stream_read = {100, 4.0};
  MemorySpace mem(o);
  ExecContext ctx;
  mem.Stream(ctx, 0, kPageSize, false);
  // Service cost: 100 + 255*4 = 1120; channel time 16384/16 = 1024.
  EXPECT_EQ(ctx.now, 1120);
  EXPECT_EQ(link.total_bytes(), kPageSize);
}

TEST(MemorySpaceTest, FlushWritesBackOnlyDirtyLines) {
  BandwidthChannel link("lnk", 1000000000);
  MemorySpace::Options o = DramOptions();
  o.link = &link;
  o.clflush_line = 120;
  MemorySpace mem(o);
  CpuCacheSim cache(1 << 20);
  ExecContext ctx;
  ctx.cache = &cache;
  mem.Touch(ctx, 0, 128, true);    // 2 dirty lines
  mem.Touch(ctx, 4096, 64, false); // 1 clean line
  link.ResetStats();
  ctx.now = 1000000;
  const uint32_t flushed = mem.Flush(ctx, 0, kPageSize);
  EXPECT_EQ(flushed, 2u);
  EXPECT_EQ(link.total_bytes(), 128u);  // only dirty lines hit the wire
}

TEST(MemorySpaceTest, DemandBytesTrackTraffic) {
  BandwidthChannel link("lnk", 16ULL * 1000 * 1000 * 1000);
  MemorySpace::Options o = DramOptions();
  o.link = &link;
  MemorySpace mem(o);
  ExecContext ctx;
  mem.Touch(ctx, 0, 64, false);
  mem.Stream(ctx, 0, 1024, true);
  EXPECT_EQ(link.total_bytes(), 64u + 1024u);
}

/// Routes every address through one device port and 100 ns of traversal.
class OnePortRouter final : public AddressRouter {
 public:
  explicit OnePortRouter(BandwidthChannel* port) {
    route_.extra_latency = 100;
    route_.num_channels = 1;
    route_.channels[0] = port;
  }
  const RouteCost* Resolve(uint64_t) const override { return &route_; }

 private:
  RouteCost route_;
};

/// A memory space behind a link, a pool and a routed device port, slow
/// enough that line transfers queue.
struct RoutedSpace {
  BandwidthChannel link{"lnk", 64ULL * 1000 * 1000};
  BandwidthChannel pool{"pool", 128ULL * 1000 * 1000};
  BandwidthChannel port{"port", 32ULL * 1000 * 1000};
  OnePortRouter router{&port};
  MemorySpace mem{[this] {
    MemorySpace::Options o = DramOptions();
    o.link = &link;
    o.pool = &pool;
    o.router = &router;
    return o;
  }()};
};

TEST(MemorySpaceTest, UncachedAccessChargesLikeAnUncachedDomain) {
  RoutedSpace touched;   // Touch() from a lane with no CPU cache
  RoutedSpace uncached;  // TouchUncached() from a lane with one
  CpuCacheSim cache(1 << 20);
  // Line 0 is resident and dirty: an uncached access neither hits nor
  // writes it back.
  MemorySpace dram(DramOptions());
  ExecContext warm;
  warm.cache = &cache;
  dram.Touch(warm, 0, 64, true);
  const uint64_t hits = cache.hits();
  const uint64_t misses = cache.misses();
  const uint64_t live = cache.live_lines();

  ExecContext a;
  ExecContext b;
  b.cache = &cache;
  uint64_t addr = 0;
  for (const uint32_t lines : {1u, 2u, 5u}) {
    SCOPED_TRACE(lines);
    const uint32_t len = lines * kCacheLineSize;
    const bool write = lines == 2;
    touched.mem.Touch(a, addr, len, write);
    uncached.mem.TouchUncached(b, addr, len, write);
    EXPECT_EQ(b.now, a.now);
    EXPECT_EQ(b.t_mem, a.t_mem);
    EXPECT_EQ(b.mem_line_misses, a.mem_line_misses);
    EXPECT_EQ(uncached.link.total_bytes(), touched.link.total_bytes());
    EXPECT_EQ(uncached.pool.total_bytes(), touched.pool.total_bytes());
    EXPECT_EQ(uncached.port.total_bytes(), touched.port.total_bytes());
    addr += len;
  }
  EXPECT_EQ(b.mem_line_misses, 8u);
  EXPECT_EQ(uncached.port.total_bytes(), 8u * kCacheLineSize);
  // The 32 MB/s port spends 2 us per line, so its queue sets the pace.
  EXPECT_GT(b.now, 8 * 2000);
  EXPECT_EQ(b.t_mem, b.now);

  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(cache.live_lines(), live);
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(64));
}

// ---------- VirtualLockTable ----------

TEST(LockTableTest, UncontendedExclusiveGrantsImmediately) {
  VirtualLockTable t;
  EXPECT_EQ(t.AcquireExclusive(1, 100), 100);
  t.ReleaseExclusive(1, 200);
  EXPECT_EQ(t.AcquireExclusive(1, 300), 300);
}

TEST(LockTableTest, ExclusiveConflictQueues) {
  VirtualLockTable t;
  EXPECT_EQ(t.AcquireExclusive(1, 100), 100);
  t.ReleaseExclusive(1, 500);
  EXPECT_EQ(t.AcquireExclusive(1, 200), 500);
  t.ReleaseExclusive(1, 700);
  EXPECT_EQ(t.AcquireExclusive(1, 600), 700);
}

TEST(LockTableTest, ReadersOverlapButExcludeWriters) {
  VirtualLockTable t;
  EXPECT_EQ(t.AcquireShared(1, 100), 100);
  t.ReleaseShared(1, 400);
  EXPECT_EQ(t.AcquireShared(1, 150), 150);  // readers overlap
  t.ReleaseShared(1, 300);
  EXPECT_EQ(t.AcquireExclusive(1, 200), 400);  // writer waits for readers
  t.ReleaseExclusive(1, 600);
  EXPECT_EQ(t.AcquireShared(1, 500), 600);  // reader waits for writer
}

TEST(LockTableTest, IndependentKeysDoNotInteract) {
  VirtualLockTable t;
  t.AcquireExclusive(1, 100);
  t.ReleaseExclusive(1, 900);
  EXPECT_EQ(t.AcquireExclusive(2, 200), 200);
}

TEST(LockTableTest, WaitStatsAccumulate) {
  VirtualLockTable t;
  t.AcquireExclusive(1, 100);
  t.ReleaseExclusive(1, 500);
  t.AcquireExclusive(1, 200);
  EXPECT_EQ(t.total_wait(), 300);
  EXPECT_EQ(t.contended_acquisitions(), 1u);
  EXPECT_EQ(t.acquisitions(), 2u);
}

// ---------- Executor ----------

// RunUntil with no boundary: runs until every lane parks.
constexpr Nanos kForever = std::numeric_limits<Nanos>::max();

TEST(ExecutorTest, StepsLanesInClockOrder) {
  Executor ex;
  std::vector<int> order;
  ex.AddLane(
      [&](ExecContext& ctx) {
        order.push_back(1);
        ctx.Advance(100);
        return order.size() < 10;
      },
      0, nullptr, 0);
  ex.AddLane(
      [&](ExecContext& ctx) {
        order.push_back(2);
        ctx.Advance(250);
        return order.size() < 10;
      },
      0, nullptr, 0);
  ex.RunUntil(kForever);
  // Lane 1 advances 100/step, lane 2 250/step: pattern ~ 1,2,1,1,2,1,1,(2|1)...
  ASSERT_GE(order.size(), 6u);
  EXPECT_EQ(order[0], 1);  // tie at 0 broken by id
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 1);
  EXPECT_EQ(order[4], 2);
}

TEST(ExecutorTest, RunUntilStopsBeforeBoundary) {
  Executor ex;
  int steps = 0;
  ex.AddLane(
      [&](ExecContext& ctx) {
        steps++;
        ctx.Advance(1000);
        return true;
      },
      0, nullptr, 0);
  ex.RunUntil(10000);
  EXPECT_EQ(steps, 10);  // steps at t=0..9000; t=10000 not stepped
  EXPECT_EQ(ex.MinClock(), 10000);
}

// Pins the RunUntil(t) boundary contract documented in executor.h: a lane
// is stepped only while its clock is < t, and the step that crosses t runs
// to completion, leaving the clock past the boundary by up to one step's
// virtual cost (never rolled back, never split).
TEST(ExecutorTest, RunUntilOvershootContract) {
  Executor ex;
  int steps = 0;
  const uint32_t id = ex.AddLane(
      [&](ExecContext& ctx) {
        steps++;
        ctx.Advance(300);
        return true;
      },
      0, nullptr, 0);
  ex.RunUntil(1000);
  // Stepped at t=0,300,600,900; the t=900 step overshoots the boundary.
  EXPECT_EQ(steps, 4);
  EXPECT_EQ(ex.context(id).now, 1200);
  // The lane sits exactly at the next boundary: "< t" means not stepped.
  ex.RunUntil(1200);
  EXPECT_EQ(steps, 4);
  // One tick past its clock admits exactly one more step.
  ex.RunUntil(1201);
  EXPECT_EQ(steps, 5);
  EXPECT_EQ(ex.context(id).now, 1500);
}

TEST(ExecutorTest, ParkedLaneStops) {
  Executor ex;
  int steps = 0;
  ex.AddLane(
      [&](ExecContext& ctx) {
        steps++;
        ctx.Advance(10);
        return steps < 3;
      },
      0, nullptr, 0);
  ex.RunUntil(kForever);
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(ex.MinClock(-1), -1);  // no runnable lane left
}

TEST(ExecutorTest, ExternalParkAndResume) {
  Executor ex;
  int steps = 0;
  const uint32_t id = ex.AddLane(
      [&](ExecContext& ctx) {
        steps++;
        ctx.Advance(10);
        return true;
      },
      0, nullptr, 0);
  ex.RunUntil(20);  // steps at t=0 and t=10
  ex.ParkLane(id);
  ex.RunUntil(70);
  EXPECT_EQ(steps, 2);
  ex.ResumeLane(id, 1000);
  ex.RunUntil(1001);  // one step, from the resume time
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(ex.context(id).now, 1010);
}

TEST(ExecutorTest, ZeroAdvanceStepStillProgresses) {
  Executor ex;
  int steps = 0;
  ex.AddLane(
      [&](ExecContext&) {
        steps++;
        return steps < 100;  // never advances the clock itself
      },
      0, nullptr, 0);
  ex.RunUntil(kForever);  // must not live-lock
  EXPECT_EQ(steps, 100);
}

TEST(ExecutorTest, DeterministicAcrossRuns) {
  auto run = [] {
    Executor ex;
    BandwidthChannel link("l", 1000000000);
    std::vector<Nanos> completions;
    for (int i = 0; i < 4; i++) {
      ex.AddLane(
          [&, i](ExecContext& ctx) {
            ctx.now = link.Transfer(ctx.now, 1000 + i * 10);
            completions.push_back(ctx.now);
            return completions.size() < 40;
          },
          0, nullptr, 0);
    }
    ex.RunUntil(kForever);
    return completions;
  };
  EXPECT_EQ(run(), run());
}

TEST(LatencyModelTest, Table2Endpoints) {
  LatencyModel m;
  // CXL: 64 B ~0.75/0.78 us; 16 KB ~2.46/1.68 us (paper Table 2).
  EXPECT_NEAR(m.cxl_stream_read.Cost(1), 750, 20);
  EXPECT_NEAR(m.cxl_stream_write.Cost(1), 780, 20);
  EXPECT_NEAR(m.cxl_stream_read.Cost(256), 2460, 50);
  EXPECT_NEAR(m.cxl_stream_write.Cost(256), 1680, 100);
  // RDMA: 64 B ~4.55/4.48 us; 16 KB ~7.13/6.12 us.
  EXPECT_NEAR(m.RdmaRead(64), 4550, 30);
  EXPECT_NEAR(m.RdmaWrite(64), 4480, 30);
  EXPECT_NEAR(m.RdmaRead(16384), 7130, 60);
  EXPECT_NEAR(m.RdmaWrite(16384), 6120, 60);
}

TEST(LatencyModelTest, Table1Ordering) {
  LineLatency l;
  EXPECT_LT(l.dram_local, l.dram_remote);
  EXPECT_LT(l.dram_remote, l.cxl_direct_local);
  EXPECT_LT(l.cxl_direct_remote, l.cxl_switch_local);
  EXPECT_LT(l.cxl_switch_local, l.cxl_switch_remote);
  // Paper's ratios: switch-local is 3.76x DRAM-local.
  EXPECT_NEAR(static_cast<double>(l.cxl_switch_local) / l.dram_local, 3.76,
              0.05);
}

}  // namespace
}  // namespace polarcxl::sim
