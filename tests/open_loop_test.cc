// Open-loop traffic layer tests: counter-mode arrival determinism (schedules
// bit-identical across sweep/world thread counts), admission queue caps and
// QoS weighting, TimeSeries bucket-edge accounting, the closed-loop
// (no-tenant) run's error_backoff path and accounting, the tiered pool's
// verbs retry budget, and the traffic driver's determinism +
// overload-protection contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/histogram.h"
#include "harness/open_loop.h"
#include "harness/sweep_runner.h"
#include "harness/traffic_driver.h"

namespace polarcxl::harness {
namespace {

// ---------- arrival processes ----------

TEST(ArrivalTest, SchedulesAreCounterModeDeterministic) {
  ArrivalSpec spec;
  spec.rate_per_sec = 200'000.0;
  const auto a = GenerateArrivals(spec, 42, 3, Millis(50));
  const auto b = GenerateArrivals(spec, 42, 3, Millis(50));
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  ASSERT_FALSE(a.empty());
  EXPECT_GE(a.front(), 0);
  EXPECT_LT(a.back(), Millis(50));

  // Different tenant or seed: a different (but equally deterministic)
  // schedule.
  EXPECT_NE(a, GenerateArrivals(spec, 42, 4, Millis(50)));
  EXPECT_NE(a, GenerateArrivals(spec, 43, 3, Millis(50)));
}

TEST(ArrivalTest, PoissonHonorsConfiguredRate) {
  ArrivalSpec spec;
  spec.rate_per_sec = 400'000.0;
  const auto a = GenerateArrivals(spec, 7, 0, Millis(100));
  // E[count] = 40000; a Poisson count is within 5% with overwhelming
  // probability at this mass.
  EXPECT_NEAR(static_cast<double>(a.size()), 40'000.0, 2'000.0);
}

TEST(ArrivalTest, BurstyOffWindowsAreQuieter) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kBurstyOnOff;
  spec.rate_per_sec = 400'000.0;
  spec.on_period = Millis(10);
  spec.off_period = Millis(10);
  spec.off_factor = 0.1;
  const auto a = GenerateArrivals(spec, 7, 0, Millis(100));
  uint64_t on = 0;
  uint64_t off = 0;
  for (Nanos t : a) {
    (t % Millis(20) < Millis(10) ? on : off)++;
  }
  // 10:1 configured ratio; allow generous sampling noise.
  EXPECT_GT(on, off * 5);
  EXPECT_GT(off, 0u);
}

// ---------- admission queue ----------

TEST(AdmissionQueueTest, CapsShedAtAdmissionAndFifoWithinClass) {
  AdmissionQueue::Options opt;
  opt.gold_cap = 2;
  opt.best_effort_cap = 1;
  AdmissionQueue q(opt);
  EXPECT_TRUE(q.Offer(QosClass::kGold, {10, 0}));
  EXPECT_TRUE(q.Offer(QosClass::kGold, {20, 0}));
  EXPECT_FALSE(q.Offer(QosClass::kGold, {30, 0}));  // gold full
  EXPECT_TRUE(q.Offer(QosClass::kBestEffort, {15, 1}));
  EXPECT_FALSE(q.Offer(QosClass::kBestEffort, {25, 1}));
  EXPECT_EQ(q.size(QosClass::kGold), 2u);
  EXPECT_EQ(q.size(QosClass::kBestEffort), 1u);

  AdmittedOp op;
  ASSERT_TRUE(q.Pop(&op));
  EXPECT_EQ(op.arrival, 10);  // FIFO within gold
  ASSERT_TRUE(q.Pop(&op));
  EXPECT_EQ(op.arrival, 20);
  ASSERT_TRUE(q.Pop(&op));
  EXPECT_EQ(op.arrival, 15);  // best-effort drains once gold is empty
  EXPECT_FALSE(q.Pop(&op));
}

TEST(AdmissionQueueTest, WeightedRoundRobinInterleavesClasses) {
  AdmissionQueue q;
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(q.Offer(QosClass::kGold, {i, 0}));
    ASSERT_TRUE(q.Offer(QosClass::kBestEffort, {i, 1}));
  }
  // With both classes backlogged: 4 gold pops per best-effort pop.
  std::vector<uint32_t> order;
  AdmittedOp op;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(q.Pop(&op));
    order.push_back(op.tenant);
  }
  const std::vector<uint32_t> expect = {0, 0, 0, 0, 1, 0, 0, 0, 0, 1};
  EXPECT_EQ(order, expect);
}

// ---------- TimeSeries bucket edges (satellite) ----------

TEST(TimeSeriesTest, BucketBoundaryLandsInUpperBucket) {
  TimeSeries ts(10);
  ts.Add(0);    // bucket 0
  ts.Add(9);    // bucket 0
  ts.Add(10);   // exactly on the boundary -> bucket 1, not 0
  ts.Add(19);   // bucket 1
  ts.Add(20);   // bucket 2
  EXPECT_EQ(ts.bucket(0), 2u);
  EXPECT_EQ(ts.bucket(1), 2u);
  EXPECT_EQ(ts.bucket(2), 1u);
  // Negative clamps to bucket 0; the far edge saturates, never resizes
  // past the cap.
  ts.Add(-5);
  EXPECT_EQ(ts.bucket(0), 3u);
  ts.Add(std::numeric_limits<Nanos>::max());
  EXPECT_LE(ts.num_buckets(), TimeSeries::kMaxBuckets);
}

// ---------- closed-loop error_backoff ----------

/// A closed-loop run (no tenants) under one CXL outage.
OpenLoopConfig OutageChaos(Nanos error_backoff) {
  OpenLoopConfig c;
  c.kind = engine::BufferPoolKind::kCxl;
  c.lanes_per_instance = 4;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 2000;
  c.warmup = Millis(20);
  c.measure = Millis(100);
  c.bucket = Millis(10);
  c.error_backoff = error_backoff;
  // All-write mix: during a CXL outage reads fall through to degraded
  // storage serves, but writes fail fast (the durable frame is
  // unreachable), so every op exercises the backoff path.
  c.closed_loop_write_fraction = 1.0;
  c.plan.Add({faults::FaultKind::kCxlDown, Millis(20), Millis(80)});
  return c;
}

TEST(ChaosDriverTest, ErrorBackoffThrottlesFailingLanes) {
  const OpenLoopResult fast = RunOpenLoop(OutageChaos(Micros(10)));
  const OpenLoopResult slow = RunOpenLoop(OutageChaos(Millis(2)));
  ASSERT_GT(fast.failed_ops, 0u);
  ASSERT_GT(slow.failed_ops, 0u);
  // A much longer backoff burns the outage window waiting instead of
  // hammering the dead device: far fewer failed attempts, fewer steps.
  // (Each failed write still pays the degraded B-tree descent, so the
  // ratio tracks (descent + backoff) rather than backoff alone.)
  EXPECT_GT(fast.failed_ops, slow.failed_ops * 4);
  EXPECT_GT(fast.lane_steps, slow.lane_steps);
  // And the backoff value is part of the determinism contract.
  const OpenLoopResult again = RunOpenLoop(OutageChaos(Millis(2)));
  EXPECT_EQ(slow.lane_steps, again.lane_steps);
  EXPECT_EQ(slow.failed_ops, again.failed_ops);
}

// ---------- traffic driver ----------

/// Small-but-real open-loop config: one gold + one best-effort tenant on a
/// single instance.
OpenLoopConfig QuickOpenLoop(engine::BufferPoolKind kind, double rate) {
  OpenLoopConfig c;
  c.kind = kind;
  c.instances = 1;
  c.lanes_per_instance = 4;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 2000;
  c.warmup = Millis(20);
  c.measure = Millis(50);
  c.bucket = Millis(10);
  c.world_threads = 0;  // explicit serial; tests override
  TenantSpec gold;
  gold.name = "gold";
  gold.qos = QosClass::kGold;
  gold.arrivals.rate_per_sec = rate;
  TenantSpec be;
  be.name = "be";
  be.qos = QosClass::kBestEffort;
  be.arrivals.kind = ArrivalKind::kBurstyOnOff;
  be.arrivals.rate_per_sec = rate;
  be.arrivals.on_period = Millis(10);
  be.arrivals.off_period = Millis(10);
  be.arrivals.off_factor = 0.2;
  c.tenants = {gold, be};
  return c;
}

void ExpectIdentical(const OpenLoopResult& x, const OpenLoopResult& y) {
  EXPECT_EQ(x.lane_steps, y.lane_steps);
  EXPECT_EQ(x.measure_steps, y.measure_steps);
  // Scale-cost counters are per-run window deltas, never zero for a run
  // that steps (they may differ between a cold world and a fork, whose
  // scheduler layout is rebuilt on restore; forks are compared directly).
  EXPECT_GT(x.sched_ops, 0u);
  EXPECT_GT(y.sched_ops, 0u);
  EXPECT_GT(x.window_advances, 0u);
  EXPECT_GT(y.window_advances, 0u);
  EXPECT_EQ(x.offered, y.offered);
  EXPECT_EQ(x.admitted, y.admitted);
  EXPECT_EQ(x.shed_queue, y.shed_queue);
  EXPECT_EQ(x.shed_deadline, y.shed_deadline);
  EXPECT_EQ(x.ok_ops, y.ok_ops);
  EXPECT_EQ(x.ok_in_slo, y.ok_in_slo);
  EXPECT_EQ(x.failed_ops, y.failed_ops);
  EXPECT_EQ(x.retried_ops, y.retried_ops);
  EXPECT_EQ(x.p99, y.p99);
  EXPECT_EQ(x.virtual_end, y.virtual_end);
  ASSERT_EQ(x.tenants.size(), y.tenants.size());
  for (size_t t = 0; t < x.tenants.size(); t++) {
    EXPECT_EQ(x.tenants[t].offered, y.tenants[t].offered) << t;
    EXPECT_EQ(x.tenants[t].ok_ops, y.tenants[t].ok_ops) << t;
    EXPECT_EQ(x.tenants[t].latency.count(), y.tenants[t].latency.count())
        << t;
    EXPECT_EQ(x.tenants[t].queue_wait.max(), y.tenants[t].queue_wait.max())
        << t;
  }
  ASSERT_EQ(x.ok.num_buckets(), y.ok.num_buckets());
  for (size_t b = 0; b < x.ok.num_buckets(); b++) {
    EXPECT_EQ(x.ok.bucket(b), y.ok.bucket(b)) << "ok bucket " << b;
  }
}

uint64_t BucketSum(const TimeSeries& ts) {
  uint64_t sum = 0;
  for (size_t b = 0; b < ts.num_buckets(); b++) sum += ts.bucket(b);
  return sum;
}

TEST(TrafficDriverTest, NoTenantRunIsClosedLoop) {
  // No tenants: the server lanes run the closed-loop mix through the
  // window, and only the op counts and their timelines are filled.
  const OpenLoopResult r = RunOpenLoop(OutageChaos(Micros(50)));
  EXPECT_TRUE(r.tenants.empty());
  EXPECT_EQ(r.offered, 0u);
  EXPECT_EQ(r.admitted, 0u);
  EXPECT_EQ(r.shed_queue, 0u);
  EXPECT_EQ(r.shed_deadline, 0u);
  EXPECT_EQ(r.shed.num_buckets(), 0u);
  EXPECT_FALSE(r.slo_met);
  EXPECT_GT(r.ok_ops, 0u);
  EXPECT_GT(r.failed_ops, 0u);
  EXPECT_EQ(r.ok_ops, BucketSum(r.ok));
  EXPECT_EQ(r.failed_ops, BucketSum(r.failed));

  // An open-loop run warms up with the same closed-loop body, but its
  // warm-up records nothing: with no arrivals its window stays empty.
  const OpenLoopResult idle =
      RunOpenLoop(QuickOpenLoop(engine::BufferPoolKind::kCxl, 0.0));
  EXPECT_GT(idle.lane_steps, 0u);
  EXPECT_EQ(idle.offered, 0u);
  EXPECT_EQ(idle.ok_ops, 0u);
  EXPECT_EQ(idle.failed_ops, 0u);
  EXPECT_EQ(idle.ok.num_buckets(), 0u);
  EXPECT_EQ(idle.failed.num_buckets(), 0u);
}

TEST(TrafficDriverTest, RepeatRunsAreBitIdentical) {
  const OpenLoopConfig c = QuickOpenLoop(engine::BufferPoolKind::kCxl,
                                         100'000.0);
  ExpectIdentical(RunOpenLoop(c), RunOpenLoop(c));
}

TEST(TrafficDriverTest, HealthyLoadMeetsSlo) {
  const OpenLoopConfig c = QuickOpenLoop(engine::BufferPoolKind::kCxl,
                                         100'000.0);
  const OpenLoopResult r = RunOpenLoop(c);
  ASSERT_GT(r.offered, 0u);
  EXPECT_EQ(r.offered, r.admitted);  // nothing shed at admission
  EXPECT_EQ(r.shed_deadline, 0u);
  EXPECT_EQ(r.failed_ops, 0u);
  // Ops either completed in-window or were still in flight at the cut.
  EXPECT_GT(r.ok_ops, r.offered * 9 / 10);
  EXPECT_TRUE(r.slo_met) << "p99=" << r.p99 << " loss=" << r.loss_fraction;
  EXPECT_GT(r.goodput, 0.0);
}

TEST(TrafficDriverTest, OverloadShedsInsteadOfCollapsing) {
  OpenLoopConfig c = QuickOpenLoop(engine::BufferPoolKind::kCxl,
                                   2'000'000.0);
  c.admission.gold_cap = 256;
  c.admission.best_effort_cap = 256;
  const OpenLoopResult r = RunOpenLoop(c);
  ASSERT_GT(r.offered, 0u);
  // The queues are bounded: overload surfaces as admission sheds, not an
  // unbounded backlog.
  EXPECT_GT(r.shed_queue, 0u);
  EXPECT_EQ(r.offered, r.admitted + r.shed_queue);
  EXPECT_FALSE(r.slo_met);
  EXPECT_GT(r.loss_fraction, 0.05);
  // Served ops still complete (the engine is healthy, just saturated).
  EXPECT_GT(r.ok_ops, 0u);
  // Gold outruns best-effort under the 4:1 service weights.
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_GT(r.tenants[0].ok_ops, r.tenants[1].ok_ops);
}

TEST(TrafficDriverTest, DeadlineSheddingDropsAgedRequests) {
  OpenLoopConfig c = QuickOpenLoop(engine::BufferPoolKind::kCxl,
                                   2'000'000.0);
  c.admission.gold_cap = 4096;
  c.admission.best_effort_cap = 4096;
  c.gold_deadline = Micros(200);
  c.best_effort_deadline = Micros(200);
  const OpenLoopResult r = RunOpenLoop(c);
  EXPECT_GT(r.shed_deadline, 0u);
  // Deadline-shed ops cost 200 ns each, far less than serving: the ops
  // that ARE served waited at most ~deadline, keeping their latency far
  // below the unshed backlog's.
  EXPECT_GT(r.ok_ops, 0u);
}

TEST(TrafficDriverTest, SweepAndWorldThreadCountsAreInvariant) {
  OpenLoopConfig serial = QuickOpenLoop(engine::BufferPoolKind::kCxl,
                                        150'000.0);
  OpenLoopConfig epoch = serial;
  epoch.world_threads = 4;
  const OpenLoopResult base = RunOpenLoop(serial);
  const OpenLoopResult par = RunOpenLoop(epoch);
  ExpectIdentical(base, par);
  EXPECT_EQ(par.drain_divergence, 0u);
  EXPECT_GT(par.epochs, 0u);

  // POLAR_SWEEP_THREADS axis: RunSweep(1) vs RunSweep(4) over both pool
  // kinds and both world-thread modes.
  std::vector<OpenLoopConfig> configs = {
      serial, epoch, QuickOpenLoop(engine::BufferPoolKind::kTieredRdma,
                                   150'000.0)};
  const auto run = [](const OpenLoopConfig& c) { return RunOpenLoop(c); };
  const auto one =
      RunSweep<OpenLoopConfig, OpenLoopResult>(configs, run, 1);
  const auto four =
      RunSweep<OpenLoopConfig, OpenLoopResult>(configs, run, 4);
  ASSERT_EQ(one.size(), four.size());
  for (size_t i = 0; i < one.size(); i++) {
    SCOPED_TRACE(i);
    ExpectIdentical(one[i], four[i]);
  }
  ExpectIdentical(one[0], base);
}

TEST(TrafficDriverTest, CachedForkIsBitIdenticalToCold) {
  const OpenLoopConfig c = QuickOpenLoop(engine::BufferPoolKind::kCxl,
                                         150'000.0);
  const OpenLoopResult cold = RunOpenLoop(c);
  WorldCache cache;
  const OpenLoopResult first = RunOpenLoop(c, &cache);
  const OpenLoopResult forked = RunOpenLoop(c, &cache);
  const OpenLoopResult forked_again = RunOpenLoop(c, &cache);
  EXPECT_FALSE(first.snapshot_hit);
  EXPECT_TRUE(forked.snapshot_hit);
  EXPECT_TRUE(forked_again.snapshot_hit);
  ExpectIdentical(cold, first);
  ExpectIdentical(cold, forked);
  ExpectIdentical(cold, forked_again);
  // Per-run deltas: two forks of one snapshot meter the same work.
  EXPECT_EQ(forked.sched_ops, forked_again.sched_ops);
  EXPECT_EQ(forked.window_advances, forked_again.window_advances);

  // The world key excludes rates: a different rate forks the same world.
  const OpenLoopResult scaled =
      RunOpenLoop(ScaleArrivals(c, 0.5), &cache);
  EXPECT_TRUE(scaled.snapshot_hit);
  EXPECT_LT(scaled.offered, cold.offered);
}

TEST(TrafficDriverTest, ChaosUnderPeakComposesWithFaultPlan) {
  OpenLoopConfig c = QuickOpenLoop(engine::BufferPoolKind::kCxl,
                                   300'000.0);
  c.plan.Add({faults::FaultKind::kCxlDown, Millis(10), Millis(30)});
  const OpenLoopResult r = RunOpenLoop(c);
  // The outage turns peak-load service into failures/degraded fetches,
  // and the run keeps serving after the window ends.
  EXPECT_GT(r.failed_ops + r.degraded_fetches + r.fault_rejections, 0u);
  const OpenLoopResult again = RunOpenLoop(c);
  ExpectIdentical(r, again);
}

TEST(TrafficDriverTest, VerbsRetryBudgetSurfacesExhaustion) {
  OpenLoopConfig c = QuickOpenLoop(engine::BufferPoolKind::kTieredRdma,
                                   150'000.0);
  c.plan.Add({faults::FaultKind::kNicDown, Millis(5), Millis(45)});
  OpenLoopConfig budgeted = c;
  budgeted.verbs_retry_budget = Micros(20);
  const OpenLoopResult r = RunOpenLoop(budgeted);
  // The budget converts unbounded backoff into fail-fast Unavailable: the
  // counter moves and misses fall through to degraded storage reads.
  EXPECT_GT(r.retries_exhausted, 0u);
  EXPECT_GT(r.degraded_fetches, 0u);
  // Unlimited budget (legacy) never trips the counter.
  const OpenLoopResult legacy = RunOpenLoop(c);
  EXPECT_EQ(legacy.retries_exhausted, 0u);
  // Fail-fast spends the brownout serving from storage instead of
  // sleeping in verbs backoff.
  EXPECT_LT(r.fault_retries, legacy.fault_retries);
}

TEST(TrafficDriverTest, CapacitySearchBracketsTheKnee) {
  OpenLoopConfig base = QuickOpenLoop(engine::BufferPoolKind::kCxl,
                                      100'000.0);
  base.measure = Millis(30);
  WorldCache cache;
  CapacitySearch search;
  search.lo_scale = 0.5;
  search.hi_scale = 4.0;
  search.iters = 4;
  std::vector<CapacityPoint> trace;
  const CapacityPoint cap = FindSloCapacity(base, search, &cache, &trace);
  ASSERT_GE(trace.size(), 2u);
  // The bracket must actually straddle the knee for the bisection to mean
  // anything: the floor passes, the ceiling fails.
  EXPECT_TRUE(trace[0].result.slo_met);
  EXPECT_FALSE(trace[1].result.slo_met);
  EXPECT_TRUE(cap.result.slo_met);
  EXPECT_GT(cap.scale, search.lo_scale);
  EXPECT_LT(cap.scale, search.hi_scale);
  EXPECT_GT(cap.offered_rate, 0.0);
}



}  // namespace
}  // namespace polarcxl::harness
