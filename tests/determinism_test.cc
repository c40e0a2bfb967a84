// The entire simulation must be exactly reproducible: identical configs
// produce identical virtual-time results, across every experiment driver.
// (This is what makes regression comparisons between design variants
// meaningful — any drift is a real behavioural change, never noise.)
#include <gtest/gtest.h>

#include <vector>

#include "harness/instance_driver.h"
#include "harness/recovery_driver.h"
#include "harness/sharing_driver.h"
#include "harness/sweep_runner.h"

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

TEST(DeterminismTest, PoolingRunsAreBitIdentical) {
  for (auto kind :
       {engine::BufferPoolKind::kDram, engine::BufferPoolKind::kCxl,
        engine::BufferPoolKind::kTieredRdma}) {
    PoolingResult a = RunPooling(SmallPooling(kind));
    PoolingResult b = RunPooling(SmallPooling(kind));
    EXPECT_EQ(a.metrics.queries, b.metrics.queries);
    EXPECT_EQ(a.metrics.events, b.metrics.events);
    EXPECT_EQ(a.metrics.latency.max(), b.metrics.latency.max());
    EXPECT_DOUBLE_EQ(a.interconnect_gbps, b.interconnect_gbps);
    EXPECT_EQ(a.line_misses, b.line_misses);
  }
}

TEST(DeterminismTest, SharingRunsAreBitIdentical) {
  // Absolute pins beside the run-to-run equality: queries, lock waits and
  // invalidations per mode (same virtual-time purity as the lane_steps
  // pins below; update only alongside an explanation of what changed the
  // simulated execution).
  struct Pin {
    SharingMode mode;
    uint64_t queries, lock_waits, invalidations;
  };
  for (const Pin& pin : {Pin{SharingMode::kCxl, 3460, 238, 1448},
                         Pin{SharingMode::kRdma, 2200, 169, 959}}) {
    const SharingMode mode = pin.mode;
    SharingConfig c;
    c.mode = mode;
    c.nodes = 3;
    c.lanes_per_node = 2;
    c.sysbench.tables = 1;
    c.sysbench.rows_per_table = 1500;
    c.sysbench.num_nodes = 3;
    c.sysbench.shared_fraction = 0.5;
    c.warmup = Millis(20);
    c.measure = Millis(60);
    SharingResult a = RunSharing(c);
    SharingResult b = RunSharing(c);
    EXPECT_EQ(a.metrics.queries, b.metrics.queries);
    EXPECT_EQ(a.lock_waits, b.lock_waits);
    EXPECT_EQ(a.total_lock_wait, b.total_lock_wait);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.metrics.queries, pin.queries);
    EXPECT_EQ(a.lock_waits, pin.lock_waits);
    EXPECT_EQ(a.invalidations, pin.invalidations);
  }
}

TEST(DeterminismTest, RecoveryTimelinesAreBitIdentical) {
  RecoveryConfig c;
  c.scheme = RecoveryScheme::kPolarRecv;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 3000;
  c.lanes = 4;
  c.crash_at = Millis(300);
  c.total = Millis(700);
  c.bucket = Millis(25);
  c.checkpoint_interval = Millis(150);
  c.process_restart = Millis(50);
  RecoveryResult a = RunRecoveryExperiment(c);
  RecoveryResult b = RunRecoveryExperiment(c);
  EXPECT_EQ(a.serving_at, b.serving_at);
  EXPECT_EQ(a.warmed_at, b.warmed_at);
  ASSERT_EQ(a.qps.num_buckets(), b.qps.num_buckets());
  for (size_t i = 0; i < a.qps.num_buckets(); i++) {
    EXPECT_EQ(a.qps.bucket(i), b.qps.bucket(i)) << i;
  }
  EXPECT_EQ(a.polar.records_applied, b.polar.records_applied);
  // Absolute pins of the PolarRecv timeline (see the sharing pins).
  EXPECT_EQ(a.serving_at, 354667317);
  EXPECT_EQ(a.warmed_at, 375000000);
  EXPECT_EQ(a.polar.records_applied, 633u);
}

TEST(DeterminismTest, SerialLoopMatchesParallelSweepAtAnyThreadCount) {
  // The parallel sweep runner must be pure wall-clock parallelism: per-
  // experiment metrics are bit-identical between a plain serial loop and
  // RunSweep at any thread count.
  std::vector<PoolingConfig> configs = {
      SmallPooling(engine::BufferPoolKind::kCxl),
      SmallPooling(engine::BufferPoolKind::kTieredRdma),
      SmallPooling(engine::BufferPoolKind::kDram),
  };
  configs.push_back(SmallPooling(engine::BufferPoolKind::kCxl));
  configs.back().seed = 99;

  std::vector<PoolingResult> serial;
  for (const PoolingConfig& c : configs) serial.push_back(RunPooling(c));

  for (unsigned threads : {2u, 4u, 8u}) {
    const auto swept = RunSweep<PoolingConfig, PoolingResult>(
        configs, [](const PoolingConfig& c) { return RunPooling(c); },
        threads);
    ASSERT_EQ(swept.size(), serial.size());
    for (size_t i = 0; i < serial.size(); i++) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                        << " config=" << i);
      EXPECT_EQ(serial[i].metrics.queries, swept[i].metrics.queries);
      EXPECT_EQ(serial[i].metrics.events, swept[i].metrics.events);
      EXPECT_EQ(serial[i].metrics.latency.max(),
                swept[i].metrics.latency.max());
      EXPECT_EQ(serial[i].line_hits, swept[i].line_hits);
      EXPECT_EQ(serial[i].line_misses, swept[i].line_misses);
      EXPECT_EQ(serial[i].lane_steps, swept[i].lane_steps);
      EXPECT_EQ(serial[i].virtual_end, swept[i].virtual_end);
      EXPECT_EQ(serial[i].breakdown.total, swept[i].breakdown.total);
      EXPECT_DOUBLE_EQ(serial[i].interconnect_gbps,
                       swept[i].interconnect_gbps);
    }
  }
}

TEST(DeterminismTest, Fig7QuickScaleLaneStepsArePinned) {
  // Pins the exact lane_steps of the bench_sim_throughput workload at quick
  // scale (the POLAR_BENCH_SCALE=0.1 windows: 4 ms warmup, 12 ms measure).
  // lane_steps is pure virtual-time output — host speed cannot move it, so
  // any drift here is a semantic change to the simulation (RNG draw order,
  // latency arithmetic, cache state machine, eviction order, ...). Such a
  // change may be intentional, but it must never be an accident: update
  // these constants (and tools/check.sh) only alongside an explanation of
  // what changed the simulated execution.
  PoolingConfig cxl = Fig7PoolingConfig(engine::BufferPoolKind::kCxl);
  cxl.warmup = Millis(4);
  cxl.measure = Millis(12);
  EXPECT_EQ(RunPooling(cxl).lane_steps, 22105u);

  PoolingConfig rdma = Fig7PoolingConfig(engine::BufferPoolKind::kTieredRdma);
  rdma.warmup = Millis(4);
  rdma.measure = Millis(12);
  EXPECT_EQ(RunPooling(rdma).lane_steps, 17460u);
}

TEST(DeterminismTest, SeedChangesResultsButNotValidity) {
  PoolingConfig c = SmallPooling(engine::BufferPoolKind::kCxl);
  PoolingResult a = RunPooling(c);
  c.seed = 777;
  PoolingResult b = RunPooling(c);
  // Different key streams, same regime: the run stays valid and lands
  // within a few percent (counts may coincide for uniform workloads whose
  // per-event costs are key-independent).
  EXPECT_GT(b.metrics.Qps(), 0.0);
  EXPECT_NEAR(a.metrics.Qps() / b.metrics.Qps(), 1.0, 0.05);
}

}  // namespace
}  // namespace polarcxl::harness
