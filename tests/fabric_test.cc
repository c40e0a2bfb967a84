// The fabric topology subsystem: deterministic multi-switch routing, HDM
// interleave decoding, placement policy, and their integration into the
// pooling world. The topology layer must be invisible until a world opts
// in: determinism_test pins the single-switch default to the historical
// fig7 lane_steps of bench/pins.h.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "cxl/cxl_fabric.h"
#include "cxl/cxl_memory_manager.h"
#include "fabric/fabric_topology.h"
#include "fabric/hdm_decoder.h"
#include "fabric/placement_policy.h"
#include "harness/instance_driver.h"

namespace polarcxl {
namespace {

using fabric::FabricTopology;
using fabric::HdmDecoder;
using fabric::InterleaveMode;
using fabric::InterleaveSpec;
using fabric::PlacementMode;
using fabric::PlacementPolicy;
using fabric::TopologySpec;

// ---------------------------------------------------------------------------
// Routing oracles
// ---------------------------------------------------------------------------

TEST(FabricTopologyTest, ChainRoutesChargeEveryCrossedHop) {
  cxl::CxlSwitch::Options sw;  // traversal_latency = 284
  FabricTopology topo(TopologySpec::Chain(3, sw, 56ULL * 1000 * 1000 * 1000,
                                          /*uplink_latency=*/100));
  ASSERT_EQ(topo.num_switches(), 3u);
  ASSERT_EQ(topo.num_uplinks(), 2u);

  EXPECT_EQ(topo.hops(0, 0), 0u);
  EXPECT_EQ(topo.hops(0, 1), 1u);
  EXPECT_EQ(topo.hops(0, 2), 2u);
  EXPECT_EQ(topo.hops(2, 0), 2u);
  EXPECT_EQ(topo.Path(0, 2), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(topo.Path(2, 0), (std::vector<uint32_t>{2, 1, 0}));

  // Zero-hop route: no channels, no latency.
  sim::RouteCost local;
  topo.AppendRouteCost(1, 1, &local);
  EXPECT_EQ(local.num_channels, 0u);
  EXPECT_EQ(local.extra_latency, 0);

  // 0 -> 2 crosses uplink0, enters sw1, crosses uplink1, enters sw2. Each
  // hop pays the uplink's propagation plus the entered switch's traversal.
  sim::RouteCost rc;
  topo.AppendRouteCost(0, 2, &rc);
  ASSERT_EQ(rc.num_channels, 4u);
  EXPECT_EQ(rc.channels[0], topo.uplink(0));
  EXPECT_EQ(rc.channels[1], topo.sw(1).fabric_channel());
  EXPECT_EQ(rc.channels[2], topo.uplink(1));
  EXPECT_EQ(rc.channels[3], topo.sw(2).fabric_channel());
  EXPECT_EQ(rc.extra_latency, 2 * (100 + 284));

  // The reverse route crosses the same links in the opposite order but
  // enters sw1 then sw0.
  sim::RouteCost back;
  topo.AppendRouteCost(2, 0, &back);
  ASSERT_EQ(back.num_channels, 4u);
  EXPECT_EQ(back.channels[0], topo.uplink(1));
  EXPECT_EQ(back.channels[1], topo.sw(1).fabric_channel());
  EXPECT_EQ(back.channels[2], topo.uplink(0));
  EXPECT_EQ(back.channels[3], topo.sw(0).fabric_channel());
}

TEST(FabricTopologyTest, RingTieBreaksThroughLowestIndexNeighbor) {
  FabricTopology topo(TopologySpec::Ring(4));
  ASSERT_EQ(topo.num_uplinks(), 4u);
  // 0 -> 2 has two equal 2-hop routes (via 1 or via 3); the deterministic
  // choice is the lowest-index neighbor.
  EXPECT_EQ(topo.hops(0, 2), 2u);
  EXPECT_EQ(topo.Path(0, 2), (std::vector<uint32_t>{0, 1, 2}));
  // Same the other way: 2's neighbors are 1 and 3, lowest wins.
  EXPECT_EQ(topo.Path(2, 0), (std::vector<uint32_t>{2, 1, 0}));
  EXPECT_EQ(topo.hops(3, 0), 1u);  // the closing 3-0 link exists
}

TEST(FabricTopologyTest, TwoSwitchRingHasOneUplink) {
  FabricTopology topo(TopologySpec::Ring(2));
  EXPECT_EQ(topo.num_uplinks(), 1u);
  EXPECT_EQ(topo.hops(0, 1), 1u);
  EXPECT_EQ(topo.hops(1, 0), 1u);
}

// ---------------------------------------------------------------------------
// HDM decoder
// ---------------------------------------------------------------------------

/// Every fabric byte must map to exactly one (device, offset) and back.
void CheckBijection(const HdmDecoder& dec,
                    const std::vector<uint64_t>& caps) {
  std::vector<std::vector<uint8_t>> seen(caps.size());
  for (size_t d = 0; d < caps.size(); d++) seen[d].assign(caps[d], 0);
  // Walk in decoder-reported contiguous runs; each run must stay on one
  // device with consecutive device offsets.
  MemOffset off = 0;
  while (off < dec.capacity()) {
    const uint64_t run = dec.ContiguousAt(off);
    ASSERT_GT(run, 0u);
    const HdmDecoder::Target head = dec.Decode(off);
    for (uint64_t i = 0; i < run; i += 64) {  // line-granular sampling
      const HdmDecoder::Target t = dec.Decode(off + i);
      ASSERT_EQ(t.device, head.device);
      ASSERT_EQ(t.offset, head.offset + i);
      ASSERT_LT(t.offset, caps[t.device]);
      ASSERT_EQ(seen[t.device][t.offset], 0) << "double-mapped byte";
      seen[t.device][t.offset] = 1;
      ASSERT_EQ(dec.Encode(t.device, t.offset), off + i) << "Encode != inv";
    }
    off += run;
  }
  // Line-granular sampling still covers every 64th byte of every device.
  for (size_t d = 0; d < caps.size(); d++) {
    uint64_t covered = 0;
    for (uint64_t b = 0; b < caps[d]; b += 64) covered += seen[d][b];
    EXPECT_EQ(covered, caps[d] / 64) << "device " << d;
  }
}

TEST(HdmDecoderTest, AllModesAreBijections) {
  const std::vector<uint64_t> caps = {16384, 16384, 16384, 16384};
  const std::vector<uint32_t> one_group = {0, 0, 0, 0};
  const std::vector<uint32_t> two_groups = {0, 0, 1, 1};
  for (InterleaveMode mode :
       {InterleaveMode::kContiguous, InterleaveMode::kRoundRobin,
        InterleaveMode::kSkewed}) {
    for (uint64_t granule : {256ULL, 4096ULL}) {
      for (const auto& groups : {one_group, two_groups}) {
        InterleaveSpec spec;
        spec.mode = mode;
        spec.granule = granule;
        HdmDecoder dec(caps, groups, spec);
        SCOPED_TRACE(::testing::Message()
                     << InterleaveModeName(mode) << " granule=" << granule
                     << " groups=" << (groups == one_group ? 1 : 2));
        ASSERT_EQ(dec.capacity(), 4 * 16384u);
        CheckBijection(dec, caps);
      }
    }
  }
}

TEST(HdmDecoderTest, ContiguousModeMatchesLegacyLayout) {
  // One group, contiguous: device d starts at sum of previous capacities —
  // the historical back-to-back CxlFabric map.
  const std::vector<uint64_t> caps = {32768, 16384, 65536};
  HdmDecoder dec(caps, {0, 0, 0}, InterleaveSpec{});
  EXPECT_EQ(dec.Decode(0).device, 0u);
  EXPECT_EQ(dec.Decode(32767).device, 0u);
  EXPECT_EQ(dec.Decode(32768).device, 1u);
  EXPECT_EQ(dec.Decode(32768).offset, 0u);
  EXPECT_EQ(dec.Decode(32768 + 16384).device, 2u);
  EXPECT_EQ(dec.ContiguousAt(0), 32768u);
  EXPECT_EQ(dec.ContiguousAt(40000), 32768 + 16384 - 40000u);
}

TEST(HdmDecoderTest, RoundRobinRotatesAcrossDevices) {
  InterleaveSpec spec;
  spec.mode = InterleaveMode::kRoundRobin;
  spec.granule = 256;
  HdmDecoder dec({4096, 4096}, {0, 0}, spec);
  // Stripes alternate 0,1,0,1...; skew would shift each row.
  for (uint32_t s = 0; s < 16; s++) {
    EXPECT_EQ(dec.Decode(s * 256).device, s % 2) << s;
  }
  EXPECT_EQ(dec.ContiguousAt(100), 156u);  // to the stripe boundary
}

TEST(HdmDecoderTest, SkewShiftsLanePerRow) {
  InterleaveSpec spec;
  spec.mode = InterleaveMode::kSkewed;
  spec.granule = 256;
  HdmDecoder dec({4096, 4096, 4096, 4096}, {0, 0, 0, 0}, spec);
  // Row r of 4 ways starts on device r % 4 — a page-strided walker that
  // would hammer one device under plain round robin touches all four.
  for (uint32_t row = 0; row < 4; row++) {
    const MemOffset row_base = static_cast<MemOffset>(row) * 4 * 256;
    EXPECT_EQ(dec.Decode(row_base).device, row % 4) << row;
  }
}

TEST(HdmDecoderTest, GroupsOccupyDisjointRanges) {
  InterleaveSpec spec;
  spec.mode = InterleaveMode::kRoundRobin;
  spec.granule = 4096;
  HdmDecoder dec({16384, 16384, 16384, 16384}, {0, 0, 1, 1}, spec);
  ASSERT_EQ(dec.groups().size(), 2u);
  EXPECT_EQ(dec.groups()[0].base, 0u);
  EXPECT_EQ(dec.groups()[0].size, 32768u);
  EXPECT_EQ(dec.groups()[1].base, 32768u);
  EXPECT_EQ(dec.groups()[1].size, 32768u);
  // Group 0's range only ever decodes to devices 0/1, group 1's to 2/3.
  for (MemOffset off = 0; off < dec.capacity(); off += 4096) {
    const uint32_t dev = dec.DeviceOf(off);
    EXPECT_EQ(dev / 2, off < 32768 ? 0u : 1u) << off;
  }
}

TEST(CxlFabricTest, InterleavedFabricCopiesRoundTrip) {
  cxl::CxlFabric::Options o;
  o.topology = TopologySpec::Ring(2);
  o.interleave.mode = InterleaveMode::kRoundRobin;
  o.interleave.granule = 4096;
  cxl::CxlFabric fab(std::move(o));
  for (uint32_t s = 0; s < 2; s++) {
    ASSERT_TRUE(fab.AddDevice(64 * 1024, s).ok());
    ASSERT_TRUE(fab.AddDevice(64 * 1024, s).ok());
  }
  ASSERT_EQ(fab.capacity(), 4 * 64 * 1024u);
  EXPECT_TRUE(fab.routing_enabled());

  // Pattern that crosses many stripe boundaries; CopyIn/CopyOut must be
  // byte-exact across the interleaved layout.
  std::vector<uint8_t> in(fab.capacity());
  for (size_t i = 0; i < in.size(); i++) {
    in[i] = static_cast<uint8_t>(i * 2654435761u >> 13);
  }
  fab.CopyIn(0, in.data(), in.size());
  std::vector<uint8_t> out(fab.capacity());
  fab.CopyOut(0, out.data(), out.size());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), in.size()), 0);

  // Translate agrees with the decoder at stripe heads.
  for (MemOffset off = 0; off < fab.capacity(); off += 4096) {
    EXPECT_EQ(*fab.Translate(off), in[off]) << off;
  }
}

// ---------------------------------------------------------------------------
// Placement policy + manager
// ---------------------------------------------------------------------------

TEST(PlacementPolicyTest, OrdersAreDeterministicPerMode) {
  PlacementPolicy::GroupView views[3];
  views[0] = {1000, 2};  // free_bytes, hops_from_home
  views[1] = {3000, 0};
  views[2] = {2000, 1};
  uint32_t order[3];

  PlacementPolicy(PlacementMode::kLocalFirst).Order(1, 7, views, 3, order);
  EXPECT_EQ(order[0], 1u);  // home first
  EXPECT_EQ(order[1], 2u);  // then by hops
  EXPECT_EQ(order[2], 0u);

  PlacementPolicy(PlacementMode::kSpread).Order(1, 7, views, 3, order);
  EXPECT_EQ(order[0], 7 % 3);  // rotation by tenant id
  EXPECT_EQ(order[1], (7 + 1) % 3);
  EXPECT_EQ(order[2], (7 + 2) % 3);

  PlacementPolicy(PlacementMode::kCapacityBalanced)
      .Order(1, 7, views, 3, order);
  EXPECT_EQ(order[0], 1u);  // most free bytes first
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

TEST(CxlMemoryManagerTest, LocalFirstPlacementAnchorsToTenantHome) {
  FabricTopology topo(TopologySpec::Ring(2));
  cxl::CxlMemoryManager mgr(4 * kPageSize * 16);
  mgr.ConfigurePlacement({{0, 2 * kPageSize * 16, 0},
                          {2 * kPageSize * 16, 2 * kPageSize * 16, 1}},
                         PlacementMode::kLocalFirst, &topo);
  mgr.SetTenantHome(1, 0);
  mgr.SetTenantHome(2, 1);

  sim::ExecContext ctx;
  auto a = mgr.Allocate(ctx, 1, kPageSize);
  auto b = mgr.Allocate(ctx, 2, kPageSize);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(*a, 2 * kPageSize * 16u);   // group 0
  EXPECT_GE(*b, 2 * kPageSize * 16u);   // group 1

  // Exhaust tenant 1's home group: the policy spills to the next-nearest.
  auto big = mgr.Allocate(ctx, 1, 2 * kPageSize * 15);
  ASSERT_TRUE(big.ok());
  auto spill = mgr.Allocate(ctx, 1, 2 * kPageSize * 8);
  ASSERT_TRUE(spill.ok());
  EXPECT_GE(*spill, 2 * kPageSize * 16u);
}

TEST(CxlMemoryManagerTest, ReleaseCoalescesFreeSpans) {
  cxl::CxlMemoryManager mgr(16 * kPageSize);
  sim::ExecContext ctx;
  auto a = mgr.Allocate(ctx, 1, kPageSize);
  auto b = mgr.Allocate(ctx, 1, kPageSize);
  auto c = mgr.Allocate(ctx, 1, kPageSize);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(mgr.num_free_spans(), 1u);  // the tail
  EXPECT_DOUBLE_EQ(mgr.fragmentation(), 0.0);

  // Freeing the middle region leaves a hole.
  ASSERT_TRUE(mgr.Release(ctx, 1, *b).ok());
  EXPECT_EQ(mgr.num_free_spans(), 2u);
  EXPECT_GT(mgr.fragmentation(), 0.0);

  // Freeing its neighbors merges everything back into one maximal span.
  ASSERT_TRUE(mgr.Release(ctx, 1, *a).ok());
  ASSERT_TRUE(mgr.Release(ctx, 1, *c).ok());
  EXPECT_EQ(mgr.num_free_spans(), 1u);
  EXPECT_DOUBLE_EQ(mgr.fragmentation(), 0.0);
  EXPECT_EQ(mgr.allocated(), 0u);

  // The coalesced span serves a full-capacity request — churn did not
  // shatter the space.
  auto all = mgr.Allocate(ctx, 1, 16 * kPageSize);
  EXPECT_TRUE(all.ok());
}

TEST(CxlMemoryManagerTest, SpansNeverMergeAcrossGroupBoundaries) {
  cxl::CxlMemoryManager mgr(4 * kPageSize);
  mgr.ConfigurePlacement(
      {{0, 2 * kPageSize, 0}, {2 * kPageSize, 2 * kPageSize, 1}},
      PlacementMode::kLocalFirst);
  EXPECT_EQ(mgr.num_free_spans(), 2u);  // one per group, touching but apart
  sim::ExecContext ctx;
  mgr.SetTenantHome(1, 0);
  mgr.SetTenantHome(2, 1);
  auto a = mgr.Allocate(ctx, 1, 2 * kPageSize);  // fills group 0
  auto b = mgr.Allocate(ctx, 2, 2 * kPageSize);  // fills group 1
  ASSERT_TRUE(a.ok() && b.ok());
  mgr.ReleaseAll(ctx, 1);
  mgr.ReleaseAll(ctx, 2);
  EXPECT_EQ(mgr.num_free_spans(), 2u);  // still two: no cross-group merge
}

TEST(CxlSwitchTest, PortExhaustionNamesSwitchAndLanes) {
  cxl::CxlSwitch::Options o;
  o.total_lanes = 32;
  o.lanes_per_port = 16;
  cxl::CxlSwitch sw("edge-sw", o);
  ASSERT_TRUE(sw.BindPort(cxl::CxlSwitch::PortKind::kDevice).ok());
  ASSERT_TRUE(sw.BindPort(cxl::CxlSwitch::PortKind::kHost).ok());
  EXPECT_EQ(sw.ports_bound(), 2u);
  EXPECT_EQ(sw.ports_bound(cxl::CxlSwitch::PortKind::kHost), 1u);
  EXPECT_EQ(sw.lanes_in_use(), 32u);

  auto fail = sw.BindPort(cxl::CxlSwitch::PortKind::kHost);
  ASSERT_FALSE(fail.ok());
  const std::string msg = fail.status().message();
  EXPECT_NE(msg.find("edge-sw"), std::string::npos) << msg;
  EXPECT_NE(msg.find("32/32"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// World integration: bit-identity + multi-switch determinism
// ---------------------------------------------------------------------------

harness::PoolingConfig MultiSwitchPooling(int world_threads) {
  harness::PoolingConfig c = harness::Fig7PoolingConfig(
      engine::BufferPoolKind::kCxl);
  c.instances = 4;
  c.lanes_per_instance = 2;
  c.sysbench.tables = 1;
  c.sysbench.rows_per_table = 1500;
  c.warmup = Millis(10);
  c.measure = Millis(30);
  // Small enough that the working set spills out of the LLC: placement and
  // routing only matter when accesses actually reach the fabric.
  c.cpu_cache_bytes = 256ULL << 10;
  c.world_threads = world_threads;
  c.fabric.switches = 2;
  c.fabric.devices_per_switch = 2;
  c.fabric.interleave.mode = InterleaveMode::kRoundRobin;
  c.fabric.interleave.granule = kPageSize;  // page frames stay on one device
  return c;
}

TEST(FabricWorldTest, MultiSwitchWorldIsThreadCountInvariant) {
  // The epoch-parallel contract: identical results for EVERY epoch thread
  // count (the serial executor legitimately differs by bounded
  // epoch-boundary re-steps on shared channels — the same serial vs epoch
  // relationship the fig7 pins in bench/pins.h encode). The new uplink and
  // multi-port channels must not break that.
  const harness::PoolingResult serial = RunPooling(MultiSwitchPooling(0));
  EXPECT_GT(serial.metrics.queries, 0u);
  const harness::PoolingResult base = RunPooling(MultiSwitchPooling(1));
  EXPECT_GT(base.metrics.queries, 0u);
  for (int threads : {2, 4}) {
    const harness::PoolingResult par =
        RunPooling(MultiSwitchPooling(threads));
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    EXPECT_EQ(base.metrics.queries, par.metrics.queries);
    EXPECT_EQ(base.metrics.events, par.metrics.events);
    EXPECT_EQ(base.metrics.latency.max(), par.metrics.latency.max());
    EXPECT_EQ(base.line_misses, par.line_misses);
    EXPECT_EQ(base.lane_steps, par.lane_steps);
    EXPECT_EQ(base.virtual_end, par.virtual_end);
    EXPECT_DOUBLE_EQ(base.cxl_gbps, par.cxl_gbps);
    EXPECT_DOUBLE_EQ(base.uplink_gbps, par.uplink_gbps);
  }
}

TEST(FabricWorldTest, PlacementDecidesUplinkTraffic) {
  // Local-first keeps every instance's region behind its home switch: no
  // uplink crossings. Spread rotates regions onto the other switch (node id
  // = instance + 1, so the rotation start is always the non-home group) and
  // every access crosses the ring.
  harness::PoolingConfig local = MultiSwitchPooling(0);
  local.fabric.placement = PlacementMode::kLocalFirst;
  const harness::PoolingResult l = RunPooling(local);

  harness::PoolingConfig spread = MultiSwitchPooling(0);
  spread.fabric.placement = PlacementMode::kSpread;
  const harness::PoolingResult s = RunPooling(spread);

  EXPECT_GT(l.metrics.queries, 0u);
  EXPECT_GT(s.metrics.queries, 0u);
  EXPECT_EQ(l.uplink_gbps, 0.0);
  EXPECT_GT(s.uplink_gbps, 0.0);
  // Crossing two extra channels and two extra hops per miss cannot be free.
  EXPECT_LT(s.metrics.queries, l.metrics.queries);
}

TEST(FabricWorldTest, MultiSwitchSnapshotForksBitIdentically) {
  // A forked multi-switch world (snapshot restore) must replay exactly like
  // a cold build: fabric-wide channel state round-trips.
  harness::WorldCache cache;
  const harness::PoolingResult cold = RunPooling(MultiSwitchPooling(0));
  const harness::PoolingResult first =
      RunPooling(MultiSwitchPooling(0), &cache);
  const harness::PoolingResult forked =
      RunPooling(MultiSwitchPooling(0), &cache);
  EXPECT_FALSE(first.snapshot_hit);
  EXPECT_TRUE(forked.snapshot_hit);
  for (const harness::PoolingResult* r : {&first, &forked}) {
    EXPECT_EQ(cold.metrics.queries, r->metrics.queries);
    EXPECT_EQ(cold.metrics.latency.max(), r->metrics.latency.max());
    EXPECT_EQ(cold.lane_steps, r->lane_steps);
    EXPECT_EQ(cold.virtual_end, r->virtual_end);
    EXPECT_DOUBLE_EQ(cold.uplink_gbps, r->uplink_gbps);
  }
}

}  // namespace
}  // namespace polarcxl
