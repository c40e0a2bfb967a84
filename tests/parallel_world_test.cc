// In-world parallelism determinism: an epoch-parallel run must be
// bit-identical for every POLAR_WORLD_THREADS value — the sharding, the
// barrier drain order and the frozen-window channel observations are all
// thread-count independent by construction. The matrix covers pooling
// worlds (both pool kinds), a closed-loop traffic world with an armed fault
// plan (single group: must also match the serial executor exactly,
// divergence 0),
// snapshot forks and cached-world re-sharding, and cross-group park/resume
// deferral at the raw executor level.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "harness/instance_driver.h"
#include "harness/traffic_driver.h"
#include "harness/world_builder.h"
#include "sim/executor.h"

namespace polarcxl::harness {
namespace {

PoolingConfig SmallPooling(engine::BufferPoolKind kind, int world_threads) {
  PoolingConfig c;
  c.kind = kind;
  c.instances = 4;
  c.lanes_per_instance = 3;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 2000;
  c.warmup = Millis(10);
  c.measure = Millis(40);
  c.world_threads = world_threads;
  return c;
}

void ExpectPoolingIdentical(const PoolingResult& a, const PoolingResult& b) {
  EXPECT_EQ(a.lane_steps, b.lane_steps);
  EXPECT_EQ(a.virtual_end, b.virtual_end);
  EXPECT_EQ(a.metrics.queries, b.metrics.queries);
  EXPECT_EQ(a.metrics.events, b.metrics.events);
  EXPECT_EQ(a.metrics.latency.count(), b.metrics.latency.count());
  EXPECT_DOUBLE_EQ(a.metrics.latency.Mean(), b.metrics.latency.Mean());
  EXPECT_EQ(a.metrics.latency.Percentile(95), b.metrics.latency.Percentile(95));
  EXPECT_DOUBLE_EQ(a.nic_gbps, b.nic_gbps);
  EXPECT_DOUBLE_EQ(a.cxl_gbps, b.cxl_gbps);
  EXPECT_EQ(a.local_dram_bytes, b.local_dram_bytes);
  EXPECT_EQ(a.line_hits, b.line_hits);
  EXPECT_EQ(a.line_misses, b.line_misses);
  EXPECT_EQ(a.pages_read_io, b.pages_read_io);
  EXPECT_EQ(a.breakdown.total, b.breakdown.total);
  EXPECT_EQ(a.breakdown.mem, b.breakdown.mem);
  EXPECT_EQ(a.breakdown.io, b.breakdown.io);
  EXPECT_EQ(a.breakdown.net, b.breakdown.net);
  EXPECT_EQ(a.breakdown.lock, b.breakdown.lock);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.drain_divergence, b.drain_divergence);
}

TEST(ParallelWorldTest, PoolingBitIdenticalAcrossThreadCounts) {
  for (auto kind :
       {engine::BufferPoolKind::kCxl, engine::BufferPoolKind::kTieredRdma}) {
    SCOPED_TRACE(static_cast<int>(kind));
    // One cache: the N=1 run builds the world, every later thread count
    // re-shards the cached world via SetThreads — the production path a
    // sweep over POLAR_WORLD_THREADS takes.
    WorldCache cache;
    const PoolingResult base = RunPooling(SmallPooling(kind, 1), &cache);
    EXPECT_FALSE(base.snapshot_hit);
    EXPECT_GT(base.epochs, 0u);
    for (int threads : {2, 4, 8}) {
      SCOPED_TRACE(threads);
      const PoolingResult r = RunPooling(SmallPooling(kind, threads), &cache);
      EXPECT_TRUE(r.snapshot_hit);
      ExpectPoolingIdentical(base, r);
    }
    // A cold build at another thread count must agree with the forks too.
    const PoolingResult cold = RunPooling(SmallPooling(kind, 4));
    ExpectPoolingIdentical(base, cold);
  }
}

TEST(ParallelWorldTest, SnapshotForkIsBitIdenticalInEpochMode) {
  WorldCache cache;
  const PoolingConfig c = SmallPooling(engine::BufferPoolKind::kCxl, 2);
  const PoolingResult cold = RunPooling(c, &cache);
  EXPECT_FALSE(cold.snapshot_hit);
  const PoolingResult fork = RunPooling(c, &cache);
  EXPECT_TRUE(fork.snapshot_hit);
  ExpectPoolingIdentical(cold, fork);
}

/// A closed-loop fault run: the traffic driver with no tenants.
OpenLoopConfig SmallChaos(int world_threads) {
  OpenLoopConfig c;
  c.kind = engine::BufferPoolKind::kCxl;
  c.lanes_per_instance = 4;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 2000;
  c.warmup = Millis(10);
  c.measure = Millis(120);
  c.plan = CanonicalChaosPlan(c.measure);
  c.world_threads = world_threads;
  return c;
}

// A single-instance world is one shard group, so epoch execution replays
// the serial timeline exactly: every deferred charge re-commits to its
// observed completion (divergence 0) and the whole result, fault timeline
// included, matches the serial executor bit for bit.
TEST(ParallelWorldTest, ChaosWithArmedPlanMatchesSerialExactly) {
  const OpenLoopResult serial = RunOpenLoop(SmallChaos(0));
  EXPECT_EQ(serial.drain_divergence, 0u);  // serial path never drains
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const OpenLoopResult r = RunOpenLoop(SmallChaos(threads));
    EXPECT_EQ(r.drain_divergence, 0u);
    EXPECT_GT(r.epochs, 0u);
    EXPECT_EQ(r.ok_ops, serial.ok_ops);
    EXPECT_EQ(r.failed_ops, serial.failed_ops);
    EXPECT_EQ(r.lane_steps, serial.lane_steps);
    EXPECT_EQ(r.virtual_end, serial.virtual_end);
    EXPECT_EQ(r.degraded_fetches, serial.degraded_fetches);
    EXPECT_EQ(r.fault_rejections, serial.fault_rejections);
    EXPECT_EQ(r.fault_retries, serial.fault_retries);
    EXPECT_EQ(r.injected.cxl_failures, serial.injected.cxl_failures);
    EXPECT_EQ(r.injected.nic_failures, serial.injected.nic_failures);
    EXPECT_EQ(r.injected.disk_stalls, serial.injected.disk_stalls);
  }
}

// Raw-executor cross-group control deferral: a lane that parks/resumes a
// lane of ANOTHER group mid-step defers the effect to the epoch barrier
// (applied in {step_start, lane, seq} order), so the victim's trajectory is
// identical at every thread count; external park/resume stays immediate.
TEST(ParallelWorldTest, CrossGroupParkResumeIsDeferredDeterministically) {
  struct Observation {
    uint64_t victim_steps = 0;
    Nanos victim_end = 0;
    Nanos largest_jump = 0;  // resume-at target shows up as a clock jump
  };
  auto run = [](uint32_t threads) {
    sim::Executor ex;
    Observation obs;
    uint32_t victim = 0;
    Nanos last = 0;
    // Victim in group/node 2: fine-grained stepper.
    victim = ex.AddLane(
        [&](sim::ExecContext& ctx) {
          obs.victim_steps++;
          if (ctx.now - last > obs.largest_jump) {
            obs.largest_jump = ctx.now - last;
          }
          last = ctx.now;
          ctx.Advance(100);
          return true;
        },
        2, nullptr, 0);
    // Controller in group/node 1: parks the victim at its third step and
    // resumes it far in the future three steps later — both cross-group,
    // both deferred to the barrier.
    int steps = 0;
    ex.AddLane(
        [&, victim](sim::ExecContext& ctx) {
          steps++;
          if (steps == 3) ex.ParkLane(victim);
          if (steps == 6) ex.ResumeLane(victim, 200000);
          ctx.Advance(1000);
          return true;
        },
        1, nullptr, 0);
    ex.EnableEpochParallel(threads);
    ex.RunUntil(300000);
    obs.victim_end = ex.context(victim).now;
    // External (main-thread) park takes effect immediately even on an
    // epoch-parallel executor.
    ex.ParkLane(victim);
    ex.RunUntil(400000);
    EXPECT_EQ(ex.context(victim).now, obs.victim_end);
    return obs;
  };
  const Observation base = run(1);
  EXPECT_GE(base.victim_end, 300000);
  // The resume target is visible as a virtual-time jump across the parked
  // span (park applies at an epoch barrier before 200000).
  EXPECT_GE(base.largest_jump, 100000);
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const Observation r = run(threads);
    EXPECT_EQ(r.victim_steps, base.victim_steps);
    EXPECT_EQ(r.victim_end, base.victim_end);
    EXPECT_EQ(r.largest_jump, base.largest_jump);
  }
}

}  // namespace
}  // namespace polarcxl::harness
