// Tests for the CXL fabric: devices, switch, accessor cost charging,
// crash-survivability, and the multi-tenant memory manager.
#include <gtest/gtest.h>

#include <cstring>

#include "cxl/cxl_fabric.h"
#include "cxl/cxl_memory_manager.h"
#include "sim/cpu_cache.h"

namespace polarcxl::cxl {
namespace {

using sim::CpuCacheSim;
using sim::ExecContext;

class CxlFabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fabric_.AddDevice(4 << 20).ok());
    ASSERT_TRUE(fabric_.AddDevice(4 << 20).ok());
    auto host = fabric_.AttachHost(/*node=*/0);
    ASSERT_TRUE(host.ok());
    acc_ = *host;
  }

  CxlFabric fabric_;
  CxlAccessor* acc_ = nullptr;
};

TEST_F(CxlFabricTest, CapacityAggregatesDevices) {
  EXPECT_EQ(fabric_.capacity(), 8u << 20);
  EXPECT_EQ(fabric_.num_devices(), 2u);
}

TEST_F(CxlFabricTest, LoadStoreRoundTrip) {
  ExecContext ctx;
  const char msg[] = "polarcxlmem";
  acc_->Store(ctx, 1000, msg, sizeof(msg));
  char out[sizeof(msg)] = {};
  acc_->Load(ctx, 1000, out, sizeof(msg));
  EXPECT_STREQ(out, msg);
}

TEST_F(CxlFabricTest, UncachedLoadPaysSwitchLatency) {
  ExecContext ctx;  // no CPU cache: always misses
  uint64_t v = 0;
  acc_->Load(ctx, 64, &v, sizeof(v));
  EXPECT_NEAR(static_cast<double>(ctx.now),
              static_cast<double>(fabric_.latency().line.cxl_switch_local), 5);
}

TEST_F(CxlFabricTest, RemoteNumaHostPaysMore) {
  auto remote = fabric_.AttachHost(/*node=*/1, /*remote_numa=*/true);
  ASSERT_TRUE(remote.ok());
  ExecContext ctx;
  uint64_t v = 0;
  (*remote)->Load(ctx, 64, &v, sizeof(v));
  EXPECT_NEAR(static_cast<double>(ctx.now),
              static_cast<double>(fabric_.latency().line.cxl_switch_remote), 5);
}

TEST_F(CxlFabricTest, CachedLoadIsCheap) {
  CpuCacheSim cache(1 << 20);
  ExecContext ctx;
  ctx.cache = &cache;
  uint64_t v = 0;
  acc_->Load(ctx, 64, &v, sizeof(v));
  const Nanos first = ctx.now;
  acc_->Load(ctx, 64, &v, sizeof(v));
  EXPECT_LT(ctx.now - first, 10);
}

TEST_F(CxlFabricTest, CrossDeviceCopyIsSafe) {
  ExecContext ctx;
  // Write a run straddling the 4 MiB device boundary.
  std::vector<uint8_t> in(8192);
  for (size_t i = 0; i < in.size(); i++) in[i] = static_cast<uint8_t>(i);
  const MemOffset off = (4 << 20) - 4096;
  acc_->Store(ctx, off, in.data(), static_cast<uint32_t>(in.size()));
  std::vector<uint8_t> out(in.size());
  acc_->Load(ctx, off, out.data(), static_cast<uint32_t>(out.size()));
  EXPECT_EQ(in, out);
}

TEST_F(CxlFabricTest, ContentsSurviveHostSideReset) {
  ExecContext ctx;
  const uint32_t sentinel = 0xDEADBEEF;
  acc_->StorePod(ctx, 128, sentinel);
  // "Crash": the host's cache and all DRAM state go away; the fabric stays.
  CpuCacheSim cache(1 << 20);
  cache.InvalidateAll();
  auto host2 = fabric_.AttachHost(/*node=*/7);
  ASSERT_TRUE(host2.ok());
  ExecContext ctx2;
  EXPECT_EQ((*host2)->LoadPod<uint32_t>(ctx2, 128), sentinel);
}

TEST_F(CxlFabricTest, FlushWritesDirtyLinesOnly) {
  CpuCacheSim cache(1 << 20);
  ExecContext ctx;
  ctx.cache = &cache;
  uint64_t v = 42;
  acc_->Store(ctx, 0, &v, sizeof(v));        // 1 dirty line
  acc_->Load(ctx, 4096, &v, sizeof(v));      // 1 clean line
  EXPECT_EQ(acc_->Flush(ctx, 0, kPageSize), 1u);
}

TEST_F(CxlFabricTest, InvalidateForcesRefetchOfRemoteUpdate) {
  CpuCacheSim cache(1 << 20);
  ExecContext ctx;
  ctx.cache = &cache;
  uint32_t v = 1;
  acc_->Store(ctx, 256, &v, sizeof(v));
  acc_->Flush(ctx, 256, 64);
  acc_->Load(ctx, 256, &v, sizeof(v));  // now cached clean

  // Another host updates the line in device memory.
  auto other = fabric_.AttachHost(8);
  ExecContext octx;
  uint32_t nv = 2;
  (*other)->Store(octx, 256, &nv, sizeof(nv));
  (*other)->Flush(octx, 256, 64);

  // Without invalidation this host's *simulated* cache would be stale; the
  // protocol invalidates and the next load fetches the new value.
  acc_->InvalidateCache(ctx, 256, 64);
  const Nanos before = ctx.now;
  acc_->Load(ctx, 256, &v, sizeof(v));
  EXPECT_EQ(v, 2u);
  EXPECT_GE(ctx.now - before, fabric_.latency().line.cxl_switch_local);
}

TEST_F(CxlFabricTest, SwitchPortExhaustion) {
  CxlSwitch::Options so;
  so.lanes_per_port = 128;  // two ports fill the switch's 256 lanes
  CxlFabric::Options fo;
  fo.switch_options = so;
  CxlFabric small(fo);
  ASSERT_TRUE(small.AddDevice(1 << 20).ok());
  ASSERT_TRUE(small.AttachHost(0).ok());
  EXPECT_FALSE(small.AttachHost(1).ok());
}

TEST(CxlSwitchTest, PortRateScalesWithLanes) {
  const uint64_t x16 = sim::BandwidthModel{}.cxl_host_link_bps;
  for (const uint32_t lanes : {16u, 8u, 4u}) {
    CxlSwitch::Options o;
    o.lanes_per_port = lanes;
    CxlSwitch sw("sw", o);
    auto host = sw.BindPort(CxlSwitch::PortKind::kHost);
    auto dev = sw.BindPort(CxlSwitch::PortKind::kDevice);
    ASSERT_TRUE(host.ok() && dev.ok());
    EXPECT_EQ(sw.port_channel(*host)->bytes_per_sec(), x16 * lanes / 16);
    EXPECT_EQ(sw.port_channel(*dev)->bytes_per_sec(), x16 * lanes / 16);
  }
  EXPECT_EQ(x16 * 8 / 16, 28ULL * 1000 * 1000 * 1000);  // the sharing x8
  // A narrowed device port keeps its own rate; host ports keep the width's.
  CxlSwitch::Options o;
  o.device_port_bps = 1000;
  CxlSwitch sw("sw", o);
  auto host = sw.BindPort(CxlSwitch::PortKind::kHost);
  auto dev = sw.BindPort(CxlSwitch::PortKind::kDevice);
  ASSERT_TRUE(host.ok() && dev.ok());
  EXPECT_EQ(sw.port_channel(*host)->bytes_per_sec(), x16);
  EXPECT_EQ(sw.port_channel(*dev)->bytes_per_sec(), 1000u);
}

TEST(CxlSwitchTest, PortChannelsAreIndependent) {
  CxlSwitch sw("sw");
  auto p0 = sw.BindPort(CxlSwitch::PortKind::kHost);
  auto p1 = sw.BindPort(CxlSwitch::PortKind::kHost);
  ASSERT_TRUE(p0.ok() && p1.ok());
  sw.port_channel(*p0)->Transfer(0, 1 << 20);
  EXPECT_EQ(sw.port_channel(*p1)->total_bytes(), 0u);
}

// ---------- CxlMemoryManager ----------

TEST(CxlMemoryManagerTest, AllocateChargesRpcAndAligns) {
  CxlMemoryManager mgr(1 << 24);
  ExecContext ctx;
  auto r = mgr.Allocate(ctx, 1, 1000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ctx.now, 2600);
  EXPECT_EQ(mgr.allocated(), kPageSize);  // rounded up
}

TEST(CxlMemoryManagerTest, RegionsNeverOverlap) {
  CxlMemoryManager mgr(1 << 24);
  ExecContext ctx;
  auto a = mgr.Allocate(ctx, 1, 3 * kPageSize);
  auto b = mgr.Allocate(ctx, 2, 5 * kPageSize);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a + 3 * kPageSize <= *b || *b + 5 * kPageSize <= *a);
  EXPECT_TRUE(mgr.Owns(1, *a, 3 * kPageSize));
  EXPECT_TRUE(mgr.Owns(2, *b, 5 * kPageSize));
  EXPECT_FALSE(mgr.Owns(1, *b, kPageSize));
  EXPECT_FALSE(mgr.Owns(2, *a, kPageSize));
}

TEST(CxlMemoryManagerTest, FirstFitReusesReleasedGap) {
  CxlMemoryManager mgr(16 * kPageSize);
  ExecContext ctx;
  auto a = mgr.Allocate(ctx, 1, 4 * kPageSize);
  auto b = mgr.Allocate(ctx, 2, 4 * kPageSize);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(mgr.Release(ctx, 1, *a).ok());
  auto c = mgr.Allocate(ctx, 3, 2 * kPageSize);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // fills the gap
}

TEST(CxlMemoryManagerTest, ExhaustionReturnsOutOfMemory) {
  CxlMemoryManager mgr(4 * kPageSize);
  ExecContext ctx;
  ASSERT_TRUE(mgr.Allocate(ctx, 1, 4 * kPageSize).ok());
  auto r = mgr.Allocate(ctx, 2, kPageSize);
  EXPECT_TRUE(r.status().IsOutOfMemory());
}

TEST(CxlMemoryManagerTest, TenantCannotReleaseForeignRegion) {
  CxlMemoryManager mgr(1 << 24);
  ExecContext ctx;
  auto a = mgr.Allocate(ctx, 1, kPageSize);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(mgr.Release(ctx, 2, *a).IsInvalidArgument());
  EXPECT_TRUE(mgr.Release(ctx, 1, *a).ok());
}

TEST(CxlMemoryManagerTest, ReleaseAllFreesEverything) {
  CxlMemoryManager mgr(1 << 24);
  ExecContext ctx;
  mgr.Allocate(ctx, 1, kPageSize);
  mgr.Allocate(ctx, 1, kPageSize);
  mgr.Allocate(ctx, 2, kPageSize);
  mgr.ReleaseAll(ctx, 1);
  EXPECT_EQ(mgr.allocated(), kPageSize);
  EXPECT_EQ(mgr.RegionsOf(1).size(), 0u);
  EXPECT_EQ(mgr.RegionsOf(2).size(), 1u);
}

TEST(CxlMemoryManagerTest, ZeroSizeRejected) {
  CxlMemoryManager mgr(1 << 24);
  ExecContext ctx;
  EXPECT_TRUE(mgr.Allocate(ctx, 1, 0).status().IsInvalidArgument());
}

}  // namespace
}  // namespace polarcxl::cxl
