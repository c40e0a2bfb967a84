// In-world parallelism determinism: an epoch-parallel run must be
// bit-identical for every POLAR_WORLD_THREADS value — the sharding, the
// barrier drain order and the frozen-window channel observations are all
// thread-count independent by construction. The matrix covers pooling
// worlds (both pool kinds), a closed-loop traffic world with an armed fault
// plan (single group: must also match the serial executor exactly,
// divergence 0),
// snapshot forks and cached-world re-sharding, and, at the raw executor
// level, the park rule: park/resume between RunUntil calls is immediate
// and thread-count invariant, and a park from inside a step aborts.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "harness/instance_driver.h"
#include "harness/traffic_driver.h"
#include "harness/world_builder.h"
#include "sim/bandwidth_channel.h"
#include "sim/epoch.h"
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

// Raw-executor park rule: a park and a resume issued between RunUntil
// calls take effect immediately, so on a two-group epoch executor whose
// lanes share a channel the victim's trajectory is identical at every
// thread count, and a parked lane is never stepped.
TEST(ParallelWorldTest, ExternalParkResumeIsThreadCountInvariant) {
  struct Observation {
    uint64_t victim_steps = 0;
    Nanos parked_at = 0;
    Nanos victim_end = 0;
    Nanos largest_jump = 0;  // the parked span shows up as a clock jump
  };
  auto run = [](uint32_t threads) {
    sim::Executor ex;
    sim::BandwidthChannel link("link", 1'000'000'000);
    link.set_shared(true);
    Observation obs;
    Nanos last = 0;
    // Victim in group/node 2: a fine-grained stepper on the shared link.
    const uint32_t victim = ex.AddLane(
        [&](sim::ExecContext& ctx) {
          obs.victim_steps++;
          obs.largest_jump = std::max(obs.largest_jump, ctx.now - last);
          last = ctx.now;
          ctx.now = sim::ChargeChannel(ctx, link, ctx.now, 64);
          ctx.Advance(100);
          return true;
        },
        2, nullptr, 0);
    // Group/node 1 loads the same link, so the victim's clock depends on
    // the barrier's replay of both groups' charges.
    ex.AddLane(
        [&](sim::ExecContext& ctx) {
          ctx.now = sim::ChargeChannel(ctx, link, ctx.now, 4096);
          ctx.Advance(1000);
          return true;
        },
        1, nullptr, 0);
    ex.EnableEpochParallel(threads);
    ex.RunUntil(50'000);
    ex.ParkLane(victim);
    obs.parked_at = ex.context(victim).now;
    ex.RunUntil(150'000);
    EXPECT_EQ(ex.context(victim).now, obs.parked_at);
    ex.ResumeLane(victim, 200'000);
    EXPECT_EQ(ex.context(victim).now, 200'000);
    ex.RunUntil(300'000);
    obs.victim_end = ex.context(victim).now;
    return obs;
  };
  const Observation base = run(1);
  EXPECT_GE(base.parked_at, 50'000);
  EXPECT_GE(base.victim_end, 300'000);
  EXPECT_GE(base.largest_jump, 200'000 - base.parked_at);
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const Observation r = run(threads);
    EXPECT_EQ(r.victim_steps, base.victim_steps);
    EXPECT_EQ(r.parked_at, base.parked_at);
    EXPECT_EQ(r.victim_end, base.victim_end);
    EXPECT_EQ(r.largest_jump, base.largest_jump);
  }
}

// A park from inside a step has no defined order against the other groups'
// steps, so the executor refuses it. The executor is serial so the death
// test's child process starts no thread.
TEST(ParallelWorldDeathTest, InStepParkAborts) {
  sim::Executor ex;
  uint32_t other = 0;
  ex.AddLane(
      [&](sim::ExecContext& ctx) {
        ex.ParkLane(other);
        ctx.Advance(100);
        return true;
      },
      1, nullptr, 0);
  other = ex.AddLane(
      [](sim::ExecContext& ctx) {
        ctx.Advance(100);
        return true;
      },
      2, nullptr, 0);
  EXPECT_DEATH(ex.RunUntil(1000), "ParkLane called while RunUntil runs");
}

}  // namespace
}  // namespace polarcxl::harness
