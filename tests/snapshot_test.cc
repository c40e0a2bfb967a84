// World snapshot/fork determinism: a run that forks a captured post-warmup
// world must be bit-identical to one that builds the world cold — same
// lane_steps, metrics, histograms and bandwidth probes — for every buffer
// pool kind, across repeated forks, across sweep thread counts, and with an
// armed fault plan mutating the forked world.
#include <gtest/gtest.h>

#include <vector>

#include "harness/chaos_driver.h"
#include "harness/instance_driver.h"
#include "harness/sweep_runner.h"
#include "harness/world_builder.h"

namespace polarcxl::harness {
namespace {

PoolingConfig SmallPooling(engine::BufferPoolKind kind) {
  PoolingConfig c;
  c.kind = kind;
  c.instances = 2;
  c.lanes_per_instance = 3;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 2000;
  c.warmup = Millis(20);
  c.measure = Millis(60);
  return c;
}

void ExpectPoolingIdentical(const PoolingResult& a, const PoolingResult& b) {
  EXPECT_EQ(a.lane_steps, b.lane_steps);
  EXPECT_EQ(a.virtual_end, b.virtual_end);
  EXPECT_EQ(a.metrics.queries, b.metrics.queries);
  EXPECT_EQ(a.metrics.events, b.metrics.events);
  EXPECT_EQ(a.metrics.latency.count(), b.metrics.latency.count());
  EXPECT_EQ(a.metrics.latency.min(), b.metrics.latency.min());
  EXPECT_EQ(a.metrics.latency.max(), b.metrics.latency.max());
  EXPECT_DOUBLE_EQ(a.metrics.latency.Mean(), b.metrics.latency.Mean());
  EXPECT_DOUBLE_EQ(a.nic_gbps, b.nic_gbps);
  EXPECT_DOUBLE_EQ(a.cxl_gbps, b.cxl_gbps);
  EXPECT_DOUBLE_EQ(a.lbp_hit_rate, b.lbp_hit_rate);
  EXPECT_EQ(a.local_dram_bytes, b.local_dram_bytes);
  EXPECT_EQ(a.line_hits, b.line_hits);
  EXPECT_EQ(a.line_misses, b.line_misses);
  EXPECT_EQ(a.pages_read_io, b.pages_read_io);
  EXPECT_EQ(a.breakdown.total, b.breakdown.total);
  EXPECT_EQ(a.breakdown.mem, b.breakdown.mem);
  EXPECT_EQ(a.breakdown.io, b.breakdown.io);
  EXPECT_EQ(a.breakdown.net, b.breakdown.net);
  EXPECT_EQ(a.breakdown.lock, b.breakdown.lock);
}

TEST(SnapshotTest, ForkedPoolingRunsAreBitIdenticalToCold) {
  for (auto kind :
       {engine::BufferPoolKind::kDram, engine::BufferPoolKind::kCxl,
        engine::BufferPoolKind::kTieredRdma}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const PoolingResult cold = RunPooling(SmallPooling(kind));
    EXPECT_FALSE(cold.snapshot_hit);

    WorldCache cache;
    const PoolingResult first = RunPooling(SmallPooling(kind), &cache);
    EXPECT_FALSE(first.snapshot_hit);
    ExpectPoolingIdentical(cold, first);

    // Repeated forks of the same snapshot must all match (the second fork
    // catches state the first run mutated but restore missed).
    for (int i = 0; i < 3; i++) {
      const PoolingResult fork = RunPooling(SmallPooling(kind), &cache);
      EXPECT_TRUE(fork.snapshot_hit);
      ExpectPoolingIdentical(cold, fork);
    }
  }
}

TEST(SnapshotTest, SnapshotKeyExcludesMeasureWindow) {
  // Runs that differ only in measure length share one snapshot; each forked
  // window must still match its own cold run.
  WorldCache cache;
  PoolingConfig c = SmallPooling(engine::BufferPoolKind::kCxl);
  (void)RunPooling(c, &cache);  // builds + captures at measure = 60ms

  c.measure = Millis(30);
  const PoolingResult cold_short = RunPooling(c);
  const PoolingResult fork_short = RunPooling(c, &cache);
  EXPECT_TRUE(fork_short.snapshot_hit);
  ExpectPoolingIdentical(cold_short, fork_short);
}

TEST(SnapshotTest, SnapshotReuseIsThreadCountInvariant) {
  // A sweep holding repeated and distinct keys must produce the same
  // results serially without a cache, serially with one, and with the
  // point-parallel sweep runner (same-key points serialize on the lease,
  // distinct keys run concurrently).
  std::vector<PoolingConfig> configs;
  for (int rep = 0; rep < 3; rep++) {
    configs.push_back(SmallPooling(engine::BufferPoolKind::kCxl));
    configs.push_back(SmallPooling(engine::BufferPoolKind::kTieredRdma));
  }

  const auto cold = RunSweep<PoolingConfig, PoolingResult>(
      configs, [](const PoolingConfig& c) { return RunPooling(c); }, 1);

  WorldCache serial_cache;
  const auto serial = RunSweep<PoolingConfig, PoolingResult>(
      configs,
      [&serial_cache](const PoolingConfig& c) {
        return RunPooling(c, &serial_cache);
      },
      1);

  WorldCache parallel_cache;
  const auto parallel = RunSweep<PoolingConfig, PoolingResult>(
      configs,
      [&parallel_cache](const PoolingConfig& c) {
        return RunPooling(c, &parallel_cache);
      },
      4);

  ASSERT_EQ(cold.size(), serial.size());
  ASSERT_EQ(cold.size(), parallel.size());
  for (size_t i = 0; i < cold.size(); i++) {
    SCOPED_TRACE(i);
    ExpectPoolingIdentical(cold[i], serial[i]);
    ExpectPoolingIdentical(cold[i], parallel[i]);
  }
  // Each key misses once and hits on every repeat, at any thread count.
  for (size_t i = 2; i < parallel.size(); i++) {
    EXPECT_TRUE(parallel[i].snapshot_hit);
  }
}

ChaosConfig SmallChaos(engine::BufferPoolKind kind) {
  ChaosConfig c;
  c.kind = kind;
  c.lanes = 4;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 2000;
  c.warmup = Millis(20);
  c.measure = Millis(200);
  c.bucket = Millis(10);
  c.checkpoint_interval = Millis(50);
  c.plan = CanonicalChaosPlan(Millis(200));
  return c;
}

void ExpectChaosIdentical(const ChaosResult& a, const ChaosResult& b) {
  EXPECT_EQ(a.lane_steps, b.lane_steps);
  EXPECT_EQ(a.measure_steps, b.measure_steps);
  EXPECT_EQ(a.virtual_end, b.virtual_end);
  // Scale-cost counters are per-run window deltas, never zero for a run
  // that steps (a fork's scheduler layout may differ from the cold one's,
  // so equality is checked between forks).
  EXPECT_GT(a.sched_ops, 0u);
  EXPECT_GT(b.sched_ops, 0u);
  EXPECT_GT(a.window_advances, 0u);
  EXPECT_GT(b.window_advances, 0u);
  EXPECT_EQ(a.ok_ops, b.ok_ops);
  EXPECT_EQ(a.failed_ops, b.failed_ops);
  EXPECT_EQ(a.degraded_fetches, b.degraded_fetches);
  EXPECT_EQ(a.fault_rejections, b.fault_rejections);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.injected.cxl_failures, b.injected.cxl_failures);
  EXPECT_EQ(a.injected.cxl_degraded, b.injected.cxl_degraded);
  EXPECT_EQ(a.injected.nic_failures, b.injected.nic_failures);
  EXPECT_EQ(a.injected.nic_degraded, b.injected.nic_degraded);
  EXPECT_EQ(a.injected.disk_stalls, b.injected.disk_stalls);
  ASSERT_EQ(a.ok.num_buckets(), b.ok.num_buckets());
  for (size_t i = 0; i < a.ok.num_buckets(); i++) {
    EXPECT_EQ(a.ok.bucket(i), b.ok.bucket(i)) << "ok bucket " << i;
  }
  ASSERT_EQ(a.failed.num_buckets(), b.failed.num_buckets());
  for (size_t i = 0; i < a.failed.num_buckets(); i++) {
    EXPECT_EQ(a.failed.bucket(i), b.failed.bucket(i)) << "failed bucket " << i;
  }
}

TEST(SnapshotTest, ForkedChaosRunsMatchColdUnderArmedFaultPlan) {
  // The fault plan arms after the fork point, so the forked world runs the
  // full degraded/retry machinery; the injector must be re-disarmed and its
  // stats zeroed on every restore for the timelines to line up.
  for (auto kind :
       {engine::BufferPoolKind::kCxl, engine::BufferPoolKind::kTieredRdma}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const ChaosConfig c = SmallChaos(kind);
    const ChaosResult cold = RunChaos(c);
    EXPECT_FALSE(cold.snapshot_hit);

    WorldCache cache;
    const ChaosResult first = RunChaos(c, &cache);
    EXPECT_FALSE(first.snapshot_hit);
    ExpectChaosIdentical(cold, first);

    std::vector<ChaosResult> forks;
    for (int i = 0; i < 2; i++) {
      forks.push_back(RunChaos(c, &cache));
      EXPECT_TRUE(forks.back().snapshot_hit);
      ExpectChaosIdentical(cold, forks.back());
    }
    // Per-run deltas: two forks of one snapshot meter the same work.
    EXPECT_EQ(forks[0].sched_ops, forks[1].sched_ops);
    EXPECT_EQ(forks[0].window_advances, forks[1].window_advances);
  }
}

}  // namespace
}  // namespace polarcxl::harness
