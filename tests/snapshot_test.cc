// World snapshot/fork determinism: a run that forks a captured post-warmup
// world must be bit-identical to one that builds the world cold — same
// lane_steps, metrics, histograms and bandwidth probes — for every buffer
// pool kind, across repeated forks, across sweep thread counts, and with an
// armed fault plan mutating the forked world. The CXL devices' copy-on-write
// images must restore every byte, keep device addresses fixed, and leave
// unwritten capacity unbacked.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "cxl/cxl_device.h"
#include "cxl/cxl_fabric.h"
#include "cxl/cxl_memory_manager.h"
#include "harness/instance_driver.h"
#include "harness/sweep_runner.h"
#include "harness/traffic_driver.h"
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
  // Each key misses once and hits on every repeat, at any thread count. The
  // serial sweep builds in index order: points 0-1 miss, 2-5 hit. In the
  // parallel sweep a key's points race for its lease, so any one of them
  // may be the one that builds.
  for (size_t i = 0; i < serial.size(); i++) {
    EXPECT_EQ(serial[i].snapshot_hit, i >= 2) << "serial point " << i;
  }
  for (size_t key = 0; key < 2; key++) {
    int misses = 0;
    for (size_t i = key; i < parallel.size(); i += 2) {
      if (!parallel[i].snapshot_hit) misses++;
    }
    EXPECT_EQ(misses, 1) << "key " << key;
  }
}

/// A closed-loop fault run: the traffic driver with no tenants.
OpenLoopConfig SmallChaos(engine::BufferPoolKind kind) {
  OpenLoopConfig c;
  c.kind = kind;
  c.lanes_per_instance = 4;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 2000;
  c.warmup = Millis(20);
  c.measure = Millis(200);
  c.bucket = Millis(10);
  c.checkpoint_interval = Millis(50);
  c.plan = CanonicalChaosPlan(Millis(200));
  return c;
}

void ExpectChaosIdentical(const OpenLoopResult& a, const OpenLoopResult& b) {
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
    const OpenLoopConfig c = SmallChaos(kind);
    const OpenLoopResult cold = RunOpenLoop(c);
    EXPECT_FALSE(cold.snapshot_hit);

    WorldCache cache;
    const OpenLoopResult first = RunOpenLoop(c, &cache);
    EXPECT_FALSE(first.snapshot_hit);
    ExpectChaosIdentical(cold, first);

    std::vector<OpenLoopResult> forks;
    for (int i = 0; i < 2; i++) {
      forks.push_back(RunOpenLoop(c, &cache));
      EXPECT_TRUE(forks.back().snapshot_hit);
      ExpectChaosIdentical(cold, forks.back());
    }
    // Per-run deltas: two forks of one snapshot meter the same work.
    EXPECT_EQ(forks[0].sched_ops, forks[1].sched_ops);
    EXPECT_EQ(forks[0].window_advances, forks[1].window_advances);
  }
}

// ---------------------------------------------------------------------------
// CXL device images
// ---------------------------------------------------------------------------

constexpr uint64_t kChunk = 4096;

std::vector<uint8_t> FabricBytes(cxl::CxlFabric& fab) {
  std::vector<uint8_t> out(fab.capacity());
  fab.CopyOut(0, out.data(), out.size());
  return out;
}

/// Index of the first byte where `a` and `b` differ, -1 when equal.
int64_t FirstDiff(const std::vector<uint8_t>& a,
                  const std::vector<uint8_t>& b) {
  if (a.size() != b.size()) return 0;
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i] != b[i]) return static_cast<int64_t>(i);
  }
  return -1;
}

/// Fills the chunks of [0, len) whose index has parity `parity` with a
/// non-zero pattern and zeroes the others.
void WritePattern(cxl::CxlFabric& fab, uint64_t len, uint64_t parity) {
  std::vector<uint8_t> chunk(kChunk);
  for (uint64_t c = 0; c * kChunk < len; c++) {
    for (uint64_t i = 0; i < kChunk; i++) {
      chunk[i] = c % 2 == parity
                     ? static_cast<uint8_t>((c * kChunk + i) * 2654435761u >>
                                            13) | 1
                     : 0;
    }
    fab.CopyIn(c * kChunk, chunk.data(), kChunk);
  }
}

/// Two capture/restore cycles over a fabric with one tenant region at its
/// start. Each cycle writes a pattern into the region and captures; the
/// second capture replaces the first image and swaps which chunks are zero.
/// Then, twice per cycle, it overwrites a written chunk, an all-zero chunk
/// and a byte above the region, restores, and compares every byte with the
/// captured image.
void ExpectRestoreRewindsEveryByte(cxl::CxlFabric& fab) {
  cxl::CxlMemoryManager manager(fab.capacity());
  sim::ExecContext ctx;
  auto region = manager.Allocate(ctx, /*client=*/1, 40 * kChunk);
  ASSERT_TRUE(region.ok());
  const uint64_t region_end = *region + 40 * kChunk;
  ASSERT_LT(region_end + kChunk, fab.capacity());
  const uint8_t junk[24] = {0xAB, 0xCD, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89,
                            0xAB, 0xCD, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89,
                            0xAB, 0xCD, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89};
  for (uint64_t cycle = 0; cycle < 2; cycle++) {
    SCOPED_TRACE(cycle);
    WritePattern(fab, region_end, cycle);
    const std::vector<uint8_t> image = FabricBytes(fab);
    fab.CaptureDeviceImages();
    ASSERT_EQ(FirstDiff(FabricBytes(fab), image), -1);

    const MemOffset written = (10 + cycle) * kChunk + 100;
    const MemOffset zero = (11 - cycle) * kChunk + 200;
    const MemOffset above = region_end + kChunk / 2;
    for (int round = 0; round < 2; round++) {
      SCOPED_TRACE(round);
      fab.CopyIn(written, junk, sizeof(junk));
      fab.CopyIn(zero, junk, sizeof(junk));
      fab.CopyIn(above, junk, 1);
      ASSERT_EQ(FirstDiff(FabricBytes(fab), image),
                static_cast<int64_t>(std::min(written, zero)));
      fab.RestoreDeviceImages();
      EXPECT_EQ(FirstDiff(FabricBytes(fab), image), -1);
    }
  }
}

TEST(DeviceImageTest, RestoreRewindsEveryByteToTheCapturedImage) {
  cxl::CxlFabric fab;
  ASSERT_TRUE(fab.AddDevice(1 << 20).ok());
  ExpectRestoreRewindsEveryByte(fab);
}

TEST(DeviceImageTest, InterleavedTwoDeviceFabricRoundTrips) {
  cxl::CxlFabric::Options o;
  o.interleave.mode = fabric::InterleaveMode::kRoundRobin;
  o.interleave.granule = kChunk;
  cxl::CxlFabric fab(std::move(o));
  ASSERT_TRUE(fab.AddDevice(512 << 10).ok());
  ASSERT_TRUE(fab.AddDevice(512 << 10).ok());
  ASSERT_EQ(fab.num_devices(), 2u);
  ExpectRestoreRewindsEveryByte(fab);
}

TEST(DeviceImageTest, PointersTakenBeforeCaptureStayValid) {
  cxl::CxlFabric fab;
  ASSERT_TRUE(fab.AddDevice(1 << 20).ok());
  auto acc = fab.AttachHost(/*node=*/1);
  ASSERT_TRUE(acc.ok());
  const MemOffset off = 3 * kChunk + 17;
  uint8_t* raw = (*acc)->Raw(off);
  uint8_t* translated = fab.Translate(off);
  ASSERT_EQ(raw, translated);
  *raw = 0x5A;

  fab.CaptureDeviceImages();
  EXPECT_EQ((*acc)->Raw(off), raw);
  EXPECT_EQ(fab.Translate(off), translated);
  EXPECT_EQ(*raw, 0x5A);
  *raw = 0x77;  // a store through the old pointer reaches the device
  uint8_t v = 0;
  fab.CopyOut(off, &v, 1);
  EXPECT_EQ(v, 0x77);

  fab.RestoreDeviceImages();
  EXPECT_EQ((*acc)->Raw(off), raw);
  EXPECT_EQ(fab.Translate(off), translated);
  EXPECT_EQ(*translated, 0x5A);
}

int64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    ADD_FAILURE() << "cannot open /proc/self/statm";
    return 0;
  }
  long size = 0;
  long resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  EXPECT_EQ(n, 2);
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

TEST(DeviceImageTest, UnwrittenCapacityIsNotResident) {
  const int64_t before = ResidentBytes();
  cxl::CxlMemoryDevice device(1ULL << 30);
  device.data()[0] = 1;
  EXPECT_LT(ResidentBytes() - before, 16 << 20);
}

}  // namespace
}  // namespace polarcxl::harness
