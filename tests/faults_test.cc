// Fault-subsystem tests: plan parsing/ordering/round-trip, injector
// arm/disarm pass-through, per-domain windows, seeded probability-draw
// determinism, and the determinism contract of the
// closed-loop fault run (the traffic driver with no tenants) — the
// canonical schedule must produce bit-identical timelines and lane_steps
// for any sweep thread count, with pinned values guarding against silent
// drift of the simulation or the fault model.
#include <gtest/gtest.h>

#include <vector>

#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "harness/sweep_runner.h"
#include "harness/traffic_driver.h"

namespace polarcxl::faults {
namespace {

using harness::OpenLoopConfig;
using harness::OpenLoopResult;
using harness::RunOpenLoop;
using sim::ExecContext;

// ---------- FaultPlan ----------

TEST(FaultPlanTest, ParsesDocumentedSyntax) {
  auto plan = FaultPlan::Parse(
      "# schedule\n"
      "seed 42\n"
      "cxl-down    at=10ms for=5ms\n"
      "cxl-flaky   at=20ms for=4ms p=0.25\n"
      "nic-degrade at=1ms  for=2ms add=3us perkb=40\n"
      "disk-stall  at=0    for=1ms add=300us target=2\n"
      "node-crash  at=30ms for=2ms target=1\n");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->seed, 42u);
  ASSERT_EQ(plan->events.size(), 5u);
  // Parse normalizes: events come back sorted by `at`.
  EXPECT_EQ(plan->events[0].kind, FaultKind::kDiskStall);
  EXPECT_EQ(plan->events[0].at, 0);
  EXPECT_EQ(plan->events[0].until, Millis(1));
  EXPECT_EQ(plan->events[0].extra_latency, Micros(300));
  EXPECT_EQ(plan->events[0].target, 2u);
  EXPECT_EQ(plan->events[1].kind, FaultKind::kNicDegrade);
  EXPECT_EQ(plan->events[1].extra_latency, Micros(3));
  EXPECT_DOUBLE_EQ(plan->events[1].per_kb_ns, 40.0);
  EXPECT_EQ(plan->events[2].kind, FaultKind::kCxlDown);
  EXPECT_EQ(plan->events[2].target, kAnyTarget);
  EXPECT_EQ(plan->events[3].kind, FaultKind::kCxlFlaky);
  EXPECT_DOUBLE_EQ(plan->events[3].probability, 0.25);
  EXPECT_EQ(plan->events[4].kind, FaultKind::kNodeCrash);
  EXPECT_EQ(plan->events[4].at, Millis(30));
  EXPECT_EQ(plan->events[4].until, Millis(32));
}

TEST(FaultPlanTest, RoundTripsThroughToString) {
  FaultPlan plan;
  plan.seed = 9;
  plan.Add({FaultKind::kCxlDown, Millis(2), Millis(3)});
  {
    FaultEvent e{FaultKind::kNicFlaky, Millis(1), Millis(4)};
    e.probability = 0.5;
    e.target = 7;
    plan.Add(e);
  }
  {
    FaultEvent e{FaultKind::kCxlDegrade, Micros(10), Micros(600)};
    e.extra_latency = 250;
    e.per_kb_ns = 12.5;
    plan.Add(e);
  }
  plan.Normalize();

  auto reparsed = FaultPlan::Parse(plan.ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->seed, plan.seed);
  ASSERT_EQ(reparsed->events.size(), plan.events.size());
  for (size_t i = 0; i < plan.events.size(); i++) {
    EXPECT_EQ(reparsed->events[i].kind, plan.events[i].kind) << i;
    EXPECT_EQ(reparsed->events[i].at, plan.events[i].at) << i;
    EXPECT_EQ(reparsed->events[i].until, plan.events[i].until) << i;
    EXPECT_EQ(reparsed->events[i].target, plan.events[i].target) << i;
    EXPECT_DOUBLE_EQ(reparsed->events[i].probability,
                     plan.events[i].probability)
        << i;
    EXPECT_EQ(reparsed->events[i].extra_latency, plan.events[i].extra_latency)
        << i;
    EXPECT_DOUBLE_EQ(reparsed->events[i].per_kb_ns, plan.events[i].per_kb_ns)
        << i;
  }
}

TEST(FaultPlanTest, RejectsMalformedInput) {
  EXPECT_FALSE(FaultPlan::Parse("warp-core-breach at=1ms for=1ms").ok());
  EXPECT_FALSE(FaultPlan::Parse("cxl-down for=1ms").ok());          // no at
  EXPECT_FALSE(FaultPlan::Parse("cxl-down at=1ms 5ms").ok());       // bare
  EXPECT_FALSE(FaultPlan::Parse("cxl-down at=1ms dur=5ms").ok());   // key
  EXPECT_FALSE(FaultPlan::Parse("cxl-down at=1parsec for=1ms").ok());
  EXPECT_FALSE(FaultPlan::Parse("seed banana").ok());
  EXPECT_FALSE(FaultPlan::Parse("cxl-down at=1ms").ok());  // empty window
  EXPECT_FALSE(FaultPlan::Parse("cxl-flaky at=1ms for=1ms p=1.5").ok());
  EXPECT_FALSE(FaultPlan::Parse("alloc-fail at=1ms for=1ms").ok());
}

TEST(FaultPlanTest, ValidateRejectsBadWindows) {
  FaultPlan inverted;
  inverted.Add({FaultKind::kCxlDown, 100, 50});
  EXPECT_TRUE(inverted.Validate().IsInvalidArgument());

  FaultPlan bad_p;
  {
    FaultEvent e{FaultKind::kNicFlaky, 0, 100};
    e.probability = -0.1;
    bad_p.Add(e);
  }
  EXPECT_TRUE(bad_p.Validate().IsInvalidArgument());

  FaultPlan ok;
  ok.Add({FaultKind::kCxlDown, 0, 1});
  EXPECT_TRUE(ok.Validate().ok());
}

TEST(FaultPlanTest, ParseErrorsNameLineAndToken) {
  auto bad_kind =
      FaultPlan::Parse("seed 1\nwarp-core-breach at=1ms for=1ms");
  ASSERT_FALSE(bad_kind.ok());
  EXPECT_NE(bad_kind.status().message().find("line 2"), std::string::npos)
      << bad_kind.status().ToString();
  EXPECT_NE(bad_kind.status().message().find("warp-core-breach"),
            std::string::npos);

  auto bad_value = FaultPlan::Parse("cxl-down at=1parsec for=1ms");
  ASSERT_FALSE(bad_value.ok());
  EXPECT_NE(bad_value.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(bad_value.status().message().find("1parsec"), std::string::npos)
      << bad_value.status().ToString();
  EXPECT_NE(bad_value.status().message().find("'at'"), std::string::npos);
}

TEST(FaultPlanTest, ValidateRejectsOverlappingWindowsForSameTarget) {
  // Same kind, both wildcard target, intersecting windows: rejected.
  FaultPlan overlap;
  overlap.Add({FaultKind::kCxlDown, Millis(1), Millis(3)});
  overlap.Add({FaultKind::kCxlDown, Millis(2), Millis(4)});
  const Status s = overlap.Validate();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("overlapping"), std::string::npos)
      << s.ToString();

  // A wildcard window overlaps every specific target of its kind.
  FaultPlan wild;
  wild.Add({FaultKind::kNicDown, Millis(1), Millis(3)});
  {
    FaultEvent e{FaultKind::kNicDown, Millis(2), Millis(4)};
    e.target = 1;
    wild.Add(e);
  }
  EXPECT_TRUE(wild.Validate().IsInvalidArgument());

  // Distinct targets may overlap freely.
  FaultPlan distinct;
  {
    FaultEvent e{FaultKind::kNicDown, Millis(1), Millis(3)};
    e.target = 1;
    distinct.Add(e);
  }
  {
    FaultEvent e{FaultKind::kNicDown, Millis(2), Millis(4)};
    e.target = 2;
    distinct.Add(e);
  }
  EXPECT_TRUE(distinct.Validate().ok());

  // Different kinds may overlap, and back-to-back windows ([1,2) then
  // [2,3)) do not intersect.
  FaultPlan adjacent;
  adjacent.Add({FaultKind::kCxlDown, Millis(1), Millis(2)});
  adjacent.Add({FaultKind::kCxlDown, Millis(2), Millis(3)});
  adjacent.Add({FaultKind::kNicDown, Millis(1), Millis(3)});
  EXPECT_TRUE(adjacent.Validate().ok());

  // Parse runs the same validation.
  EXPECT_FALSE(
      FaultPlan::Parse("cxl-down at=1ms for=5ms\ncxl-down at=2ms for=5ms")
          .ok());
}

TEST(FaultPlanTest, NormalizeOrdersByTimeKindTarget) {
  FaultPlan plan;
  FaultEvent b{FaultKind::kNicDown, 100, 200};
  b.target = 2;
  FaultEvent a{FaultKind::kCxlDown, 100, 200};
  FaultEvent c{FaultKind::kNicDown, 100, 200};
  c.target = 1;
  FaultEvent first{FaultKind::kNodeCrash, 50, 60};
  plan.Add(b).Add(a).Add(c).Add(first);
  plan.Normalize();
  EXPECT_EQ(plan.events[0].kind, FaultKind::kNodeCrash);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kCxlDown);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kNicDown);
  EXPECT_EQ(plan.events[2].target, 1u);
  EXPECT_EQ(plan.events[3].target, 2u);
}

TEST(FaultPlanTest, ShiftByRebasesEveryEvent) {
  FaultPlan plan;
  plan.Add({FaultKind::kCxlDown, 10, 20}).Add({FaultKind::kDiskStall, 0, 5});
  plan.ShiftBy(1000);
  EXPECT_EQ(plan.events[0].at, 1010);
  EXPECT_EQ(plan.events[0].until, 1020);
  EXPECT_EQ(plan.events[1].at, 1000);
  EXPECT_EQ(plan.events[1].until, 1005);
}

// ---------- FaultInjector ----------

TEST(FaultInjectorTest, HooksPassThroughWhenDisarmed) {
  FaultInjector inj;
  ExecContext ctx;
  ctx.now = 12345;
  EXPECT_TRUE(inj.OnCxlAccess(ctx, 0).ok());
  EXPECT_TRUE(inj.OnVerbsOp(ctx, 0, 1).ok());
  inj.OnCxlTransfer(ctx, 0, 1 << 20);
  inj.OnVerbsTransfer(ctx, 0, 1, 1 << 20);
  inj.OnDiskOp(ctx);
  EXPECT_EQ(ctx.now, 12345);  // nothing charged
  EXPECT_EQ(inj.stats().cxl_failures, 0u);
  EXPECT_TRUE(inj.EventsOfKind(FaultKind::kNodeCrash).empty());
}

TEST(FaultInjectorTest, DownWindowRejectsThenRecovers) {
  FaultInjector inj;
  FaultPlan plan;
  plan.Add({FaultKind::kCxlDown, 1000, 2000});
  ASSERT_TRUE(inj.Arm(plan).ok());

  ExecContext ctx;
  ctx.now = 500;
  EXPECT_TRUE(inj.OnCxlAccess(ctx, 0).ok());
  ctx.now = 1500;
  Status s = inj.OnCxlAccess(ctx, 0);
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(ctx.now, 1500);  // rejection is instantaneous
  ctx.now = 2000;  // half-open window: until is already healthy
  EXPECT_TRUE(inj.OnCxlAccess(ctx, 0).ok());
  EXPECT_EQ(inj.stats().cxl_failures, 1u);

  inj.Disarm();
  ctx.now = 1500;
  EXPECT_TRUE(inj.OnCxlAccess(ctx, 0).ok());
  EXPECT_FALSE(inj.armed());
  // Stats survive Disarm — drivers read them after the run ends.
  EXPECT_EQ(inj.stats().cxl_failures, 1u);
  inj.ResetStats();
  EXPECT_EQ(inj.stats().cxl_failures, 0u);
}

TEST(FaultInjectorTest, DegradeInflatesLatencyAndBandwidth) {
  FaultInjector inj;
  FaultPlan plan;
  {
    FaultEvent e{FaultKind::kCxlDegrade, 0, 10000};
    e.extra_latency = 300;
    e.per_kb_ns = 100.0;
    plan.Add(e);
  }
  ASSERT_TRUE(inj.Arm(plan).ok());

  ExecContext ctx;
  ctx.now = 100;
  ASSERT_TRUE(inj.OnCxlAccess(ctx, 0).ok());
  EXPECT_EQ(ctx.now, 400);    // +extra_latency
  EXPECT_EQ(ctx.t_mem, 300);
  inj.OnCxlTransfer(ctx, 0, 2048);  // 2 KiB * 100ns/KiB
  EXPECT_EQ(ctx.now, 600);
  EXPECT_EQ(inj.stats().cxl_degraded, 2u);

  // NIC degradation charges but never fails.
  FaultInjector nic;
  FaultPlan nic_plan;
  {
    FaultEvent e{FaultKind::kNicDegrade, 0, 10000};
    e.extra_latency = 1000;
    nic_plan.Add(e);
  }
  ASSERT_TRUE(nic.Arm(nic_plan).ok());
  ExecContext nctx;
  EXPECT_TRUE(nic.OnVerbsOp(nctx, 0, 1).ok());
  nic.OnVerbsTransfer(nctx, 0, 1, 0);
  EXPECT_EQ(nctx.now, 1000);
  EXPECT_EQ(nic.stats().nic_degraded, 1u);
  EXPECT_EQ(nic.stats().nic_failures, 0u);
}

TEST(FaultInjectorTest, TargetFiltering) {
  FaultInjector inj;
  FaultPlan plan;
  {
    FaultEvent e{FaultKind::kCxlDown, 0, 1000};
    e.target = 2;
    plan.Add(e);
  }
  {
    FaultEvent e{FaultKind::kNicDown, 0, 1000};
    e.target = 5;
    plan.Add(e);
  }
  ASSERT_TRUE(inj.Arm(plan).ok());

  ExecContext ctx;
  ctx.now = 500;
  EXPECT_TRUE(inj.OnCxlAccess(ctx, 3).ok());
  EXPECT_TRUE(inj.OnCxlAccess(ctx, 2).IsIOError());

  // Verbs ops fail when either endpoint is browned out.
  EXPECT_TRUE(inj.OnVerbsOp(ctx, 0, 4).ok());
  EXPECT_TRUE(inj.OnVerbsOp(ctx, 0, 5).IsIOError());
  EXPECT_TRUE(inj.OnVerbsOp(ctx, 5, 0).IsIOError());
}

TEST(FaultInjectorTest, FlakyDrawsDeterministicPerLane) {
  FaultPlan plan;
  {
    FaultEvent e{FaultKind::kCxlFlaky, 0, 1'000'000};
    e.probability = 0.5;
    plan.Add(e);
  }
  plan.seed = 1234;

  // The decision for (lane, draw index) must not depend on how draws from
  // different lanes interleave — that is what makes multi-lane runs
  // schedule-independent. Each lane keeps its draw index in its own
  // context, so a lane is one ExecContext for the whole sequence.
  const auto lane = [](uint32_t id) {
    ExecContext ctx;
    ctx.now = 500;
    ctx.lane_id = id;
    return ctx;
  };
  const auto draws = [](FaultInjector& inj, ExecContext& ctx, int n) {
    std::vector<bool> out;
    for (int i = 0; i < n; i++) {
      out.push_back(inj.OnCxlAccess(ctx, 0).IsIOError());
    }
    return out;
  };

  FaultInjector sequential;
  ASSERT_TRUE(sequential.Arm(plan).ok());
  ExecContext s0 = lane(0), s1 = lane(1);
  const std::vector<bool> lane0 = draws(sequential, s0, 32);
  const std::vector<bool> lane1 = draws(sequential, s1, 32);

  FaultInjector interleaved;
  ASSERT_TRUE(interleaved.Arm(plan).ok());
  ExecContext i0 = lane(0), i1 = lane(1);
  std::vector<bool> lane0_i, lane1_i;
  for (int i = 0; i < 32; i++) {
    lane1_i.push_back(draws(interleaved, i1, 1)[0]);  // opposite order
    lane0_i.push_back(draws(interleaved, i0, 1)[0]);
  }
  EXPECT_EQ(lane0, lane0_i);
  EXPECT_EQ(lane1, lane1_i);
  EXPECT_NE(lane0, lane1);  // lanes draw from distinct streams

  // A different seed yields a different decision sequence.
  FaultPlan reseeded = plan;
  reseeded.seed = 99;
  FaultInjector other;
  ASSERT_TRUE(other.Arm(reseeded).ok());
  ExecContext o0 = lane(0);
  EXPECT_NE(draws(other, o0, 32), lane0);

  // Re-arming the same plan replays it in full for a fresh run's lanes.
  ASSERT_TRUE(sequential.Arm(plan).ok());
  ExecContext r0 = lane(0);
  EXPECT_EQ(draws(sequential, r0, 32), lane0);
}

TEST(FaultInjectorTest, DiskStallWindow) {
  FaultInjector inj;
  FaultPlan plan;
  {
    FaultEvent e{FaultKind::kDiskStall, 1000, 2000};
    e.extra_latency = 777;
    plan.Add(e);
  }
  ASSERT_TRUE(inj.Arm(plan).ok());

  ExecContext ctx;
  ctx.now = 1500;
  inj.OnDiskOp(ctx);
  EXPECT_EQ(ctx.now, 1500 + 777);
  ctx.now = 500;
  inj.OnDiskOp(ctx);
  EXPECT_EQ(ctx.now, 500);
  EXPECT_EQ(inj.stats().disk_stalls, 1u);
}

TEST(FaultInjectorTest, EventsOfKindReturnsScheduleOrder) {
  FaultInjector inj;
  FaultPlan plan;
  {
    FaultEvent e{FaultKind::kNodeCrash, 500, 600};
    e.target = 1;
    plan.Add(e);
  }
  plan.Add({FaultKind::kCxlDown, 50, 80});
  {
    FaultEvent e{FaultKind::kNodeCrash, 100, 150};
    e.target = 2;
    plan.Add(e);
  }
  ASSERT_TRUE(inj.Arm(plan).ok());

  const auto crashes = inj.EventsOfKind(FaultKind::kNodeCrash);
  ASSERT_EQ(crashes.size(), 2u);
  EXPECT_EQ(crashes[0].at, 100);
  EXPECT_EQ(crashes[0].target, 2u);
  EXPECT_EQ(crashes[1].at, 500);
  inj.Disarm();
  EXPECT_TRUE(inj.EventsOfKind(FaultKind::kNodeCrash).empty());
}

// ---------- closed-loop fault run determinism ----------

/// Small-but-real closed-loop fault run (no tenants): same shape as
/// bench_fig14, scaled down so the whole determinism battery stays in test
/// time.
OpenLoopConfig QuickChaos(engine::BufferPoolKind kind) {
  OpenLoopConfig c;
  c.kind = kind;
  c.lanes_per_instance = 4;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 2000;
  c.warmup = Millis(20);
  c.measure = Millis(200);
  c.bucket = Millis(20);
  c.checkpoint_interval = Millis(10);
  c.plan = harness::CanonicalChaosPlan(c.measure);
  return c;
}

void ExpectIdentical(const OpenLoopResult& x, const OpenLoopResult& y) {
  EXPECT_EQ(x.lane_steps, y.lane_steps);
  EXPECT_EQ(x.ok_ops, y.ok_ops);
  EXPECT_EQ(x.failed_ops, y.failed_ops);
  EXPECT_EQ(x.degraded_fetches, y.degraded_fetches);
  EXPECT_EQ(x.fault_retries, y.fault_retries);
  EXPECT_EQ(x.fault_rejections, y.fault_rejections);
  EXPECT_EQ(x.virtual_end, y.virtual_end);
  ASSERT_EQ(x.ok.num_buckets(), y.ok.num_buckets());
  for (size_t b = 0; b < x.ok.num_buckets(); b++) {
    EXPECT_EQ(x.ok.bucket(b), y.ok.bucket(b)) << "ok bucket " << b;
  }
  ASSERT_EQ(x.failed.num_buckets(), y.failed.num_buckets());
  for (size_t b = 0; b < x.failed.num_buckets(); b++) {
    EXPECT_EQ(x.failed.bucket(b), y.failed.bucket(b)) << "failed bucket " << b;
  }
}

TEST(ChaosDriverTest, RepeatRunsAreBitIdentical) {
  const OpenLoopConfig config = QuickChaos(engine::BufferPoolKind::kCxl);
  ExpectIdentical(RunOpenLoop(config), RunOpenLoop(config));
}

TEST(ChaosDriverTest, SweepThreadCountInvariant) {
  std::vector<OpenLoopConfig> configs = {
      QuickChaos(engine::BufferPoolKind::kCxl),
      QuickChaos(engine::BufferPoolKind::kDram),
      QuickChaos(engine::BufferPoolKind::kTieredRdma),
  };
  const auto run = [](const OpenLoopConfig& c) { return RunOpenLoop(c); };
  const auto serial =
      harness::RunSweep<OpenLoopConfig, OpenLoopResult>(configs, run, 1);
  const auto parallel =
      harness::RunSweep<OpenLoopConfig, OpenLoopResult>(configs, run, 3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); i++) {
    SCOPED_TRACE(engine::PoolKindName(configs[i].kind));
    ExpectIdentical(serial[i], parallel[i]);
  }
}

TEST(ChaosDriverTest, CanonicalScheduleGracefulDegradation) {
  const OpenLoopResult r =
      RunOpenLoop(QuickChaos(engine::BufferPoolKind::kCxl));

  // The CXL outage degrades the pool instead of killing it: storage
  // fallbacks happen, some writes are rejected, but work keeps completing
  // in every bucket of the measurement window — including the outage.
  EXPECT_GT(r.degraded_fetches, 0u);
  EXPECT_GT(r.fault_rejections, 0u);
  EXPECT_GT(r.injected.cxl_failures, 0u);
  EXPECT_GT(r.ok_ops, r.failed_ops);
  const size_t window_buckets =
      static_cast<size_t>(r.window / r.ok.bucket_width());
  ASSERT_GE(r.ok.num_buckets(), window_buckets);
  for (size_t b = 0; b < window_buckets; b++) {
    EXPECT_GT(r.ok.bucket(b), 0u) << "no progress in bucket " << b;
  }
  // Failures are confined to fault windows: the first bucket (before any
  // fault fires at 20% of the window) must be clean.
  EXPECT_EQ(r.failed.bucket(0), 0u);
}

TEST(ChaosDriverTest, CanonicalScheduleLaneStepsPinned) {
  // Pinned bit-determinism guard for the canonical quick schedule. These
  // move only when the simulation's cost model or the fault subsystem
  // changes semantically; host speed, thread count and reruns must not
  // move them. Update deliberately alongside BENCH_fault_resilience.json.
  const OpenLoopResult cxl =
      RunOpenLoop(QuickChaos(engine::BufferPoolKind::kCxl));
  const OpenLoopResult dram =
      RunOpenLoop(QuickChaos(engine::BufferPoolKind::kDram));
  const OpenLoopResult rdma =
      RunOpenLoop(QuickChaos(engine::BufferPoolKind::kTieredRdma));
  EXPECT_EQ(cxl.lane_steps, 37619u);
  EXPECT_EQ(dram.lane_steps, 47724u);
  EXPECT_EQ(rdma.lane_steps, 36399u);
}

TEST(ChaosDriverTest, NodeCrashFreezesLanesThenRecovers) {
  OpenLoopConfig config = QuickChaos(engine::BufferPoolKind::kDram);
  // Replace the canonical schedule with a single instance-node freeze over
  // [30%, 50%) of the window.
  config.plan = faults::FaultPlan{};
  config.plan.seed = 7;
  {
    FaultEvent e{FaultKind::kNodeCrash, Millis(60), Millis(100)};
    e.target = 1;  // the node of instance 0
    config.plan.Add(e);
  }

  const OpenLoopResult crashed = RunOpenLoop(config);

  OpenLoopConfig baseline = config;
  baseline.plan = faults::FaultPlan{};
  const OpenLoopResult healthy = RunOpenLoop(baseline);

  // The freeze removes throughput (no failures — the node is gone, not
  // erroring), and the instance resumes at full rate afterwards.
  EXPECT_LT(crashed.ok_ops, healthy.ok_ops);
  EXPECT_EQ(crashed.failed_ops, 0u);
  const size_t frozen_bucket = static_cast<size_t>(Millis(70) /
                                                   crashed.ok.bucket_width());
  EXPECT_LT(crashed.ok.bucket(frozen_bucket),
            healthy.ok.bucket(frozen_bucket) / 4);
  const size_t last = static_cast<size_t>(crashed.window /
                                          crashed.ok.bucket_width()) - 1;
  EXPECT_GT(crashed.ok.bucket(last), 0u);

  // Crash handling is part of the deterministic contract too.
  ExpectIdentical(crashed, RunOpenLoop(config));
}

// Two instances are two shard groups, so at world threads 2 and 4 the
// canonical schedule's flaky window draws on several threads at once. Each
// lane's draw index lives in its own context and the injected-fault counts
// are atomics, so every thread count must agree exactly.
TEST(ChaosDriverTest, TwoInstanceChaosIsThreadCountInvariant) {
  OpenLoopConfig config = QuickChaos(engine::BufferPoolKind::kCxl);
  config.instances = 2;
  std::vector<OpenLoopResult> runs;
  for (int threads : {1, 2, 4}) {
    config.world_threads = threads;
    runs.push_back(RunOpenLoop(config));
  }
  EXPECT_GT(runs[0].epochs, 0u);
  EXPECT_GT(runs[0].injected.cxl_failures, 0u);
  for (size_t i = 1; i < runs.size(); i++) {
    SCOPED_TRACE(i);
    ExpectIdentical(runs[0], runs[i]);
    EXPECT_EQ(runs[0].epochs, runs[i].epochs);
    const FaultInjector::Stats& a = runs[0].injected;
    const FaultInjector::Stats& b = runs[i].injected;
    EXPECT_EQ(a.cxl_failures, b.cxl_failures);
    EXPECT_EQ(a.cxl_degraded, b.cxl_degraded);
    EXPECT_EQ(a.nic_failures, b.nic_failures);
    EXPECT_EQ(a.nic_degraded, b.nic_degraded);
    EXPECT_EQ(a.disk_stalls, b.disk_stalls);
  }
}

// The crash freeze parks and resumes lanes between RunUntil calls; on an
// epoch-parallel executor the result must not depend on the thread count.
TEST(ChaosDriverTest, NodeCrashUnderEpochExecutionIsThreadCountInvariant) {
  OpenLoopConfig config = QuickChaos(engine::BufferPoolKind::kCxl);
  config.instances = 2;
  config.plan = faults::FaultPlan{};
  config.plan.seed = 7;
  {
    FaultEvent e{FaultKind::kNodeCrash, Millis(60), Millis(100)};
    e.target = 1;  // the node of instance 0
    config.plan.Add(e);
  }
  OpenLoopConfig baseline = config;
  baseline.plan = faults::FaultPlan{};
  baseline.world_threads = 1;
  const OpenLoopResult healthy = RunOpenLoop(baseline);

  std::vector<OpenLoopResult> runs;
  for (int threads : {1, 2, 4}) {
    config.world_threads = threads;
    runs.push_back(RunOpenLoop(config));
  }
  EXPECT_GT(runs[0].epochs, 0u);
  for (size_t i = 1; i < runs.size(); i++) {
    SCOPED_TRACE(i);
    ExpectIdentical(runs[0], runs[i]);
    EXPECT_EQ(runs[0].epochs, runs[i].epochs);
  }
  // One of the two instances is frozen at 70 ms.
  const size_t frozen_bucket =
      static_cast<size_t>(Millis(70) / runs[0].ok.bucket_width());
  EXPECT_LT(runs[0].ok.bucket(frozen_bucket) * 4,
            healthy.ok.bucket(frozen_bucket) * 3);
}

}  // namespace
}  // namespace polarcxl::faults
