// Tests for the RDMA network model and the remote memory pool.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "rdma/rdma_network.h"
#include "rdma/remote_memory_pool.h"

namespace polarcxl::rdma {
namespace {

using sim::ExecContext;

class RdmaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_.RegisterHost(0);
    net_.RegisterHost(1);
  }
  RdmaNetwork net_;
};

TEST_F(RdmaTest, ReadLatencyMatchesTable2) {
  ExecContext ctx;
  net_.Read(ctx, 0, 1, 64);
  EXPECT_NEAR(static_cast<double>(ctx.now), 4550, 40);
  ExecContext ctx2;
  net_.Read(ctx2, 0, 1, 16384);
  EXPECT_NEAR(static_cast<double>(ctx2.now), 7130, 80);
}

TEST_F(RdmaTest, WriteLatencyMatchesTable2) {
  ExecContext ctx;
  net_.Write(ctx, 0, 1, 64);
  EXPECT_NEAR(static_cast<double>(ctx.now), 4480, 40);
  ExecContext ctx2;
  net_.Write(ctx2, 0, 1, 16384);
  EXPECT_NEAR(static_cast<double>(ctx2.now), 6120, 80);
}

TEST_F(RdmaTest, BandwidthSaturationQueues) {
  // Pump 10000 x 16 KB reads at t=0: 160 MB at 12 GB/s needs ~13 ms.
  ExecContext last;
  for (int i = 0; i < 10000; i++) {
    ExecContext ctx;
    net_.Read(ctx, 0, 1, 16384);
    last = ctx;
  }
  EXPECT_GT(last.now, Millis(12));
  EXPECT_LT(last.now, Millis(20));
}

TEST_F(RdmaTest, UnsaturatedOpsDoNotQueue) {
  ExecContext a;
  net_.Read(a, 0, 1, 64);
  ExecContext b;
  b.now = Millis(1);
  net_.Read(b, 0, 1, 64);
  EXPECT_NEAR(static_cast<double>(b.now - Millis(1)), 4550, 40);
}

TEST_F(RdmaTest, RpcRoundTrip) {
  ExecContext ctx;
  net_.Rpc(ctx, 0, 1);
  EXPECT_EQ(ctx.now, net_.latency().rdma_rpc_round_trip);
}

TEST_F(RdmaTest, StatsCount) {
  ExecContext ctx;
  net_.Read(ctx, 0, 1, 100);
  net_.Write(ctx, 0, 1, 200);
  EXPECT_EQ(net_.total_ops(), 2u);
  EXPECT_EQ(net_.total_bytes(), 300u);
  net_.ResetStats();
  EXPECT_EQ(net_.total_bytes(), 0u);
}

TEST_F(RdmaTest, DoorbellLimitsIops) {
  RdmaNic::Options slow;
  slow.iops = 1000;  // 1 K verbs ops/sec
  RdmaNetwork net;
  net.RegisterHost(0, slow);
  net.RegisterHost(1);
  ExecContext last;
  for (int i = 0; i < 100; i++) {
    ExecContext ctx;
    net.Read(ctx, 0, 1, 64);
    last = ctx;
  }
  // 100 ops at 1 K IOPS occupy ~100 ms of doorbell time.
  EXPECT_GT(last.now, Millis(20));
}

// ---------- RemoteMemoryPool ----------

class RemotePoolTest : public ::testing::Test {
 protected:
  RemotePoolTest() : pool_(&net_, /*server_node=*/99, /*capacity=*/8) {
    net_.RegisterHost(0);
  }
  RdmaNetwork net_;
  RemoteMemoryPool pool_;
};

/// A page image filled with `fill`, as a client frame hands it over.
PageImageRef FilledImage(uint8_t fill) {
  auto image = std::make_shared<PageImage>();
  image->fill(fill);
  return image;
}

TEST_F(RemotePoolTest, WriteThenReadRoundTrips) {
  const PageImageRef in = FilledImage(0xAB);
  ExecContext ctx;
  ASSERT_TRUE(pool_.WritePage(ctx, 0, 1, 42, in).ok());
  auto out = pool_.ReadPage(ctx, 0, 1, 42);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*in, **out);
  EXPECT_TRUE(pool_.Contains(1, 42));
}

TEST_F(RemotePoolTest, MissingPageIsNotFound) {
  ExecContext ctx;
  EXPECT_TRUE(pool_.ReadPage(ctx, 0, 1, 7).status().IsNotFound());
}

TEST_F(RemotePoolTest, TenantsAreIsolated) {
  ExecContext ctx;
  ASSERT_TRUE(pool_.WritePage(ctx, 0, /*tenant=*/1, 5, FilledImage(1)).ok());
  EXPECT_FALSE(pool_.Contains(2, 5));
  EXPECT_TRUE(
      pool_.ReadPage(ctx, 0, /*tenant=*/2, 5).status().IsNotFound());
}

TEST_F(RemotePoolTest, CapacityEnforced) {
  const PageImageRef page = FilledImage(0);
  ExecContext ctx;
  for (PageId p = 0; p < 8; p++) {
    ASSERT_TRUE(pool_.WritePage(ctx, 0, 1, p, page).ok());
  }
  EXPECT_TRUE(pool_.WritePage(ctx, 0, 1, 100, page).IsOutOfMemory());
  // Overwriting an existing page is fine.
  EXPECT_TRUE(pool_.WritePage(ctx, 0, 1, 3, page).ok());
}

TEST_F(RemotePoolTest, TransfersChargeFullPages) {
  ExecContext ctx;
  net_.ResetStats();
  pool_.WritePage(ctx, 0, 1, 9, FilledImage(0)).ok();
  EXPECT_EQ(net_.total_bytes(), static_cast<uint64_t>(kPageSize));
}

TEST_F(RemotePoolTest, DropTenantRemovesAll) {
  const PageImageRef page = FilledImage(0);
  ExecContext ctx;
  pool_.WritePage(ctx, 0, 1, 1, page).ok();
  pool_.WritePage(ctx, 0, 1, 2, page).ok();
  pool_.WritePage(ctx, 0, 2, 3, page).ok();
  pool_.DropTenant(1);
  EXPECT_FALSE(pool_.Contains(1, 1));
  EXPECT_TRUE(pool_.Contains(2, 3));
  EXPECT_EQ(pool_.pages_stored(), 1u);
}

TEST_F(RemotePoolTest, PagesMoveByReference) {
  // The transfer is charged, but the pool stores the writer's image and a
  // read hands back that same image: no bytes are copied either way.
  const PageImageRef in = FilledImage(0x3C);
  ExecContext ctx;
  net_.ResetStats();
  ASSERT_TRUE(pool_.WritePage(ctx, 0, 1, 4, in).ok());
  auto out = pool_.ReadPage(ctx, 0, 1, 4);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->get(), in.get());
  EXPECT_EQ(pool_.Peek(1, 4), in);
  EXPECT_EQ(net_.total_bytes(), 2ULL * kPageSize);
  EXPECT_EQ(pool_.Peek(1, 5), nullptr);
}

TEST_F(RemotePoolTest, OverwriteKeepsReadersImage) {
  ExecContext ctx;
  ASSERT_TRUE(pool_.WritePage(ctx, 0, 1, 6, FilledImage(0x11)).ok());
  auto held = pool_.ReadPage(ctx, 0, 1, 6);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(pool_.WritePage(ctx, 0, 1, 6, FilledImage(0x22)).ok());
  // The overwrite replaced the stored image; the reader's is untouched.
  EXPECT_EQ((**held)[0], 0x11);
  EXPECT_EQ((*pool_.Peek(1, 6))[0], 0x22);
}

TEST_F(RemotePoolTest, RestoreBringsBackCapturedImages) {
  ExecContext ctx;
  ASSERT_TRUE(pool_.WritePage(ctx, 0, 1, 2, FilledImage(0x01)).ok());
  const RemoteMemoryPool::State snap = pool_.Capture();
  ASSERT_TRUE(pool_.WritePage(ctx, 0, 1, 2, FilledImage(0x02)).ok());
  ASSERT_TRUE(pool_.WritePage(ctx, 0, 1, 3, FilledImage(0x03)).ok());
  pool_.Restore(snap);
  EXPECT_EQ((*pool_.Peek(1, 2))[0], 0x01);
  EXPECT_FALSE(pool_.Contains(1, 3));
}

}  // namespace
}  // namespace polarcxl::rdma
