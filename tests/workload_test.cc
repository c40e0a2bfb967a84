// Tests for the workload generators: sysbench (all ops + sharing
// adaptation), TPC-C (mix, remote accesses, consistency), TATP (mix,
// partitioning).
#include <gtest/gtest.h>

#include <memory>

#include "engine/database.h"
#include "workload/sysbench.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

namespace polarcxl::workload {
namespace {

using engine::BufferPoolKind;
using engine::Database;
using sim::ExecContext;

struct WorkloadEnv {
  WorkloadEnv() : disk("disk"), store(&disk), log(&disk) {}

  std::unique_ptr<Database> MakeDb(uint64_t pool_pages = 16384) {
    engine::DatabaseEnv env;
    env.store = &store;
    env.log = &log;
    engine::DatabaseOptions opt;
    opt.pool_kind = BufferPoolKind::kDram;
    opt.pool_pages = pool_pages;
    ExecContext ctx;
    auto db = Database::Create(ctx, env, opt);
    POLAR_CHECK(db.ok());
    return std::move(*db);
  }

  storage::SimDisk disk;
  storage::PageStore store;
  storage::RedoLog log;
};

SysbenchConfig SmallSysbench() {
  SysbenchConfig c;
  c.tables = 2;
  c.rows_per_table = 2000;
  return c;
}

TEST(SysbenchTest, LoadCreatesTablesWithRows) {
  WorkloadEnv env;
  auto db = env.MakeDb();
  ExecContext ctx;
  const SysbenchConfig c = SmallSysbench();
  ASSERT_TRUE(LoadSysbenchTables(ctx, db.get(), c).ok());
  ASSERT_EQ(db->num_tables(), 2u);
  for (size_t t = 0; t < 2; t++) {
    auto count = db->table(t)->tree()->CountAll(ctx);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, c.rows_per_table);
  }
}

TEST(SysbenchTest, EventQueryCountsMatchMix) {
  WorkloadEnv env;
  auto db = env.MakeDb();
  ExecContext ctx;
  const SysbenchConfig c = SmallSysbench();
  ASSERT_TRUE(LoadSysbenchTables(ctx, db.get(), c).ok());
  SysbenchWorkload wl(db.get(), c, 0, 1);
  EXPECT_EQ(wl.RunEvent(ctx, SysbenchOp::kPointSelect), 1u);
  EXPECT_EQ(wl.RunEvent(ctx, SysbenchOp::kRangeSelect), 1u);
  EXPECT_EQ(wl.RunEvent(ctx, SysbenchOp::kReadOnly), 11u);
  EXPECT_EQ(wl.RunEvent(ctx, SysbenchOp::kReadWrite), 15u);
  EXPECT_EQ(wl.RunEvent(ctx, SysbenchOp::kWriteOnly), 4u);
  EXPECT_EQ(wl.RunEvent(ctx, SysbenchOp::kPointUpdate), 10u);
}

TEST(SysbenchTest, ReadWritePreservesRowCount) {
  WorkloadEnv env;
  auto db = env.MakeDb();
  ExecContext ctx;
  const SysbenchConfig c = SmallSysbench();
  ASSERT_TRUE(LoadSysbenchTables(ctx, db.get(), c).ok());
  SysbenchWorkload wl(db.get(), c, 0, 2);
  for (int i = 0; i < 300; i++) wl.RunEvent(ctx, SysbenchOp::kReadWrite);
  uint64_t total = 0;
  for (size_t t = 0; t < 2; t++) {
    auto count = db->table(t)->tree()->CountAll(ctx);
    ASSERT_TRUE(count.ok());
    total += *count;
  }
  // delete+insert pairs keep the row population stable.
  EXPECT_EQ(total, 2ull * c.rows_per_table);
}

TEST(SysbenchTest, EventsAdvanceVirtualTime) {
  WorkloadEnv env;
  auto db = env.MakeDb();
  ExecContext ctx;
  const SysbenchConfig c = SmallSysbench();
  ASSERT_TRUE(LoadSysbenchTables(ctx, db.get(), c).ok());
  SysbenchWorkload wl(db.get(), c, 0, 3);
  const Nanos before = ctx.now;
  wl.RunEvent(ctx, SysbenchOp::kPointSelect);
  // At least the base CPU cost must be charged.
  EXPECT_GE(ctx.now - before, sim::kCpuCosts.point_query_base);
}

TEST(SysbenchTest, SharedFractionIsRespected) {
  WorkloadEnv env;
  auto db = env.MakeDb(32768);
  ExecContext ctx;
  SysbenchConfig c;
  c.tables = 1;
  c.rows_per_table = 500;
  c.num_nodes = 4;          // 5 groups x 1 table
  c.shared_fraction = 0.4;
  ASSERT_TRUE(LoadSysbenchTables(ctx, db.get(), c).ok());
  ASSERT_EQ(db->num_tables(), 5u);

  SysbenchWorkload wl(db.get(), c, /*node=*/2, 7);
  for (int i = 0; i < 2000; i++) wl.RunEvent(ctx, SysbenchOp::kPointSelect);
  const double frac = static_cast<double>(wl.shared_queries()) /
                      static_cast<double>(wl.total_queries());
  EXPECT_NEAR(frac, 0.4, 0.05);
}

TEST(SysbenchTest, ClientNetworkCharged) {
  WorkloadEnv env;
  auto db = env.MakeDb();
  ExecContext ctx;
  const SysbenchConfig c = SmallSysbench();
  ASSERT_TRUE(LoadSysbenchTables(ctx, db.get(), c).ok());
  sim::BandwidthChannel client("client", 12ULL * 1000 * 1000 * 1000);
  SysbenchWorkload wl(db.get(), c, 0, 4, &client);
  wl.RunEvent(ctx, SysbenchOp::kRangeSelect);
  // 100 rows x 184 B ~ 18 KB crossed the client network.
  EXPECT_GT(client.total_bytes(), 100u * 150);
}

TEST(SysbenchTest, ZipfianDistributionSkewsRows) {
  WorkloadEnv env;
  auto db = env.MakeDb();
  ExecContext ctx;
  SysbenchConfig c = SmallSysbench();
  c.distribution = KeyDistribution::kZipfian;
  ASSERT_TRUE(LoadSysbenchTables(ctx, db.get(), c).ok());
  SysbenchWorkload wl(db.get(), c, 0, 5);
  // With strong skew, updates concentrate on few rows: the k column of the
  // hottest row changes many times. Indirect check: run many point updates
  // and verify the pool hit rate is near-perfect (hot set tiny).
  db->pool()->ResetStats();
  for (int i = 0; i < 500; i++) wl.RunEvent(ctx, SysbenchOp::kPointUpdate);
  EXPECT_GT(db->pool()->stats().HitRate(), 0.99);
}

// ---------- TPC-C ----------

TEST(TpccTest, LoadPopulatesAllTables) {
  WorkloadEnv env;
  auto db = env.MakeDb(32768);
  ExecContext ctx;
  TpccConfig c;
  c.warehouses = 2;
  c.customers_per_district = 30;
  c.items = 200;
  ASSERT_TRUE(LoadTpccTables(ctx, db.get(), c).ok());
  ASSERT_EQ(db->num_tables(), TpccTables::kCount);
  EXPECT_EQ(*db->table(TpccTables::kWarehouse)->tree()->CountAll(ctx), 2u);
  EXPECT_EQ(*db->table(TpccTables::kDistrict)->tree()->CountAll(ctx), 20u);
  EXPECT_EQ(*db->table(TpccTables::kCustomer)->tree()->CountAll(ctx),
            2u * 10 * 30);
  EXPECT_EQ(*db->table(TpccTables::kStock)->tree()->CountAll(ctx), 2u * 200);
  EXPECT_EQ(*db->table(TpccTables::kItem)->tree()->CountAll(ctx), 200u);
}

TEST(TpccTest, MixApproximatesStandard) {
  WorkloadEnv env;
  auto db = env.MakeDb(32768);
  ExecContext ctx;
  TpccConfig c;
  c.warehouses = 2;
  c.customers_per_district = 30;
  c.items = 200;
  ASSERT_TRUE(LoadTpccTables(ctx, db.get(), c).ok());
  TpccWorkload wl(db.get(), c, 0, 11);
  uint32_t new_orders = 0;
  for (int i = 0; i < 1000; i++) new_orders += wl.RunTransaction(ctx);
  EXPECT_NEAR(new_orders / 1000.0, 0.45, 0.05);
  EXPECT_NEAR(wl.stats().payments / 1000.0, 0.43, 0.05);
  EXPECT_GT(wl.stats().order_status, 0u);
  EXPECT_GT(wl.stats().deliveries, 0u);
  EXPECT_GT(wl.stats().stock_levels, 0u);
  EXPECT_EQ(wl.stats().total(), 1000u);
}

TEST(TpccTest, RemoteWarehouseAccessesAreRare) {
  WorkloadEnv env;
  auto db = env.MakeDb(32768);
  ExecContext ctx;
  TpccConfig c;
  c.warehouses = 4;
  c.num_nodes = 2;
  c.customers_per_district = 30;
  c.items = 200;
  ASSERT_TRUE(LoadTpccTables(ctx, db.get(), c).ok());
  TpccWorkload wl(db.get(), c, 0, 12);
  for (int i = 0; i < 1000; i++) wl.RunTransaction(ctx);
  // ~10% of NO transactions + ~15% of payments touch a remote warehouse.
  EXPECT_GT(wl.stats().remote_accesses, 20u);
  EXPECT_LT(wl.stats().remote_accesses, 300u);
}

TEST(TpccTest, NewOrdersGrowOrderTables) {
  WorkloadEnv env;
  auto db = env.MakeDb(32768);
  ExecContext ctx;
  TpccConfig c;
  c.warehouses = 1;
  c.customers_per_district = 30;
  c.items = 200;
  ASSERT_TRUE(LoadTpccTables(ctx, db.get(), c).ok());
  TpccWorkload wl(db.get(), c, 0, 13);
  const uint64_t orders_before =
      *db->table(TpccTables::kOrder)->tree()->CountAll(ctx);
  const uint64_t lines_before =
      *db->table(TpccTables::kOrderLine)->tree()->CountAll(ctx);
  for (int i = 0; i < 400; i++) wl.RunTransaction(ctx);
  EXPECT_EQ(*db->table(TpccTables::kOrder)->tree()->CountAll(ctx),
            orders_before + wl.stats().new_orders);
  EXPECT_GT(*db->table(TpccTables::kOrderLine)->tree()->CountAll(ctx),
            lines_before + wl.stats().new_orders * 4);
}

// ---------- TATP ----------

TEST(TatpTest, LoadPopulatesSubscriberHierarchy) {
  WorkloadEnv env;
  auto db = env.MakeDb(32768);
  ExecContext ctx;
  TatpConfig c;
  c.subscribers = 500;
  ASSERT_TRUE(LoadTatpTables(ctx, db.get(), c).ok());
  EXPECT_EQ(*db->table(TatpTables::kSubscriber)->tree()->CountAll(ctx), 500u);
  const uint64_t ai = *db->table(TatpTables::kAccessInfo)->tree()->CountAll(ctx);
  EXPECT_GE(ai, 500u);
  EXPECT_LE(ai, 2000u);
}

TEST(TatpTest, MixIsReadMostly) {
  WorkloadEnv env;
  auto db = env.MakeDb(32768);
  ExecContext ctx;
  TatpConfig c;
  c.subscribers = 500;
  ASSERT_TRUE(LoadTatpTables(ctx, db.get(), c).ok());
  TatpWorkload wl(db.get(), c, 0, 21);
  for (int i = 0; i < 1000; i++) wl.RunTransaction(ctx);
  const double read_frac = static_cast<double>(wl.stats().reads) /
                           static_cast<double>(wl.stats().total());
  EXPECT_NEAR(read_frac, 0.8, 0.05);
}

TEST(TatpTest, SubscribersPartitionedAcrossNodes) {
  WorkloadEnv env;
  auto db = env.MakeDb(32768);
  ExecContext ctx;
  TatpConfig c;
  c.subscribers = 400;
  c.num_nodes = 4;
  ASSERT_TRUE(LoadTatpTables(ctx, db.get(), c).ok());
  // Node 3's transactions must all succeed on its own subscriber range,
  // proving the partitioning stays in bounds.
  TatpWorkload wl(db.get(), c, 3, 22);
  for (int i = 0; i < 500; i++) wl.RunTransaction(ctx);
  EXPECT_GT(wl.stats().total(), 0u);
}

}  // namespace
}  // namespace polarcxl::workload
