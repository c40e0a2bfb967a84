#include "workload/tpcc.h"

#include <cstring>
#include <string>

#include "common/prof.h"

namespace polarcxl::workload {

namespace {
// Scaled-down row widths (bytes). Warehouse/district rows are kept wide so
// few of these extremely hot rows share a page — at spec scale (hundreds of
// warehouses) page-level false sharing is similarly diluted.
constexpr uint16_t kWarehouseRow = 1024;
constexpr uint16_t kDistrictRow = 512;
constexpr uint16_t kCustomerRow = 160;
constexpr uint16_t kStockRow = 64;
constexpr uint16_t kItemRow = 64;
constexpr uint16_t kOrderRow = 48;
constexpr uint16_t kOrderLineRow = 56;
constexpr uint16_t kHistoryRow = 48;

uint64_t DistrictKey(uint64_t w, uint64_t d) { return w * 100 + d; }
uint64_t CustomerKey(uint64_t w, uint64_t d, uint64_t c) {
  return DistrictKey(w, d) * 1000 + c;
}
uint64_t StockKey(uint64_t w, uint64_t item) { return w * 100000 + item; }

// Row contents are constant per (size, fill) pair, so each template string
// is built once and inserts pass a view of it — no allocation per row.
// thread_local because sweep experiments (and their workloads) run on
// concurrent threads; each fill character maps to one fixed size.
const std::string& Filled(uint16_t size, char c) {
  static thread_local std::string cache[256];
  std::string& s = cache[static_cast<unsigned char>(c)];
  if (s.size() != size) s.assign(size, c);
  return s;
}
}  // namespace

Status LoadTpccTables(sim::ExecContext& ctx, engine::Database* db,
                      const TpccConfig& config) {
  struct Spec {
    const char* name;
    uint16_t row;
  };
  const Spec specs[TpccTables::kCount] = {
      {"warehouse", kWarehouseRow}, {"district", kDistrictRow},
      {"customer", kCustomerRow},   {"stock", kStockRow},
      {"item", kItemRow},           {"order", kOrderRow},
      {"order_line", kOrderLineRow}, {"history", kHistoryRow},
  };
  for (const Spec& spec : specs) {
    POLAR_RETURN_IF_ERROR(db->CreateTable(ctx, spec.name, spec.row).status());
  }

  engine::Table* warehouse = db->table(TpccTables::kWarehouse);
  engine::Table* district = db->table(TpccTables::kDistrict);
  engine::Table* customer = db->table(TpccTables::kCustomer);
  engine::Table* stock = db->table(TpccTables::kStock);
  engine::Table* item = db->table(TpccTables::kItem);

  for (uint64_t i = 1; i <= config.items; i++) {
    POLAR_RETURN_IF_ERROR(item->Insert(ctx, i, Filled(kItemRow, 'i')));
  }
  // Initial order population (the spec loads 3000 orders per district;
  // scaled): seed the order/order-line/history key ranges so runtime
  // inserts from different nodes/lanes land on distinct leaves instead of
  // funnelling through one empty root leaf.
  {
    engine::Table* order = db->table(TpccTables::kOrder);
    engine::Table* order_line = db->table(TpccTables::kOrderLine);
    engine::Table* history = db->table(TpccTables::kHistory);
    const uint64_t sentinels = 3000;
    const uint64_t span = static_cast<uint64_t>(config.num_nodes + 1) << 44;
    const uint64_t stride = span / sentinels;
    for (uint64_t i = 0; i < sentinels; i++) {
      const uint64_t key = 1 + i * stride;
      POLAR_RETURN_IF_ERROR(order->Insert(ctx, key, Filled(kOrderRow, 'O')));
      POLAR_RETURN_IF_ERROR(
          order_line->Insert(ctx, key * 16, Filled(kOrderLineRow, 'L')));
      POLAR_RETURN_IF_ERROR(history->Insert(ctx, key | (1ULL << 60),
                                            Filled(kHistoryRow, 'H')));
    }
  }

  for (uint64_t w = 1; w <= config.warehouses; w++) {
    POLAR_RETURN_IF_ERROR(warehouse->Insert(ctx, w, Filled(kWarehouseRow, 'w')));
    for (uint64_t d = 1; d <= TpccConfig::kDistrictsPerWarehouse; d++) {
      POLAR_RETURN_IF_ERROR(
          district->Insert(ctx, DistrictKey(w, d), Filled(kDistrictRow, 'd')));
      for (uint64_t c = 1; c <= config.customers_per_district; c++) {
        POLAR_RETURN_IF_ERROR(customer->Insert(ctx, CustomerKey(w, d, c),
                                               Filled(kCustomerRow, 'c')));
      }
    }
    for (uint64_t i = 1; i <= config.items; i++) {
      POLAR_RETURN_IF_ERROR(
          stock->Insert(ctx, StockKey(w, i), Filled(kStockRow, 's')));
    }
  }
  db->CommitTransaction(ctx);
  db->Checkpoint(ctx);
  return Status::OK();
}

TpccWorkload::TpccWorkload(engine::Database* db, TpccConfig config,
                           NodeId node, uint64_t seed)
    : db_(db),
      config_(config),
      node_(node),
      rng_(seed ^ (0x7CC7ULL + node)),
      // Disjoint id space for orders/history rows: the node in the top
      // bits, a seed-derived lane tag below (lanes of one node must not
      // collide either).
      next_order_id_((static_cast<uint64_t>(node) << 44) +
                     ((seed * 0x9E3779B97F4A7C15ULL >> 44) << 24) + 1),
      fd_warehouses_(config_.warehouses),
      fd_per_node_(std::max(1u, config_.WarehousesPerNode())),
      fd_customers_(config_.customers_per_district),
      fd_items_(config_.items) {}

uint64_t TpccWorkload::HomeWarehouse() {
  const uint64_t base =
      static_cast<uint64_t>(node_) * fd_per_node_.divisor();
  return 1 + base + fd_per_node_.Mod(rng_.Next());
}

void TpccWorkload::NewOrder(sim::ExecContext& ctx) {
  const uint64_t w = HomeWarehouse();
  const uint64_t d = 1 + rng_.Next() % TpccConfig::kDistrictsPerWarehouse;
  const uint64_t c = 1 + fd_customers_.Mod(rng_.Next());

  ctx.Advance(sim::kCpuCosts.point_query_base);
  POLAR_CHECK(db_->table(TpccTables::kWarehouse)->GetTo(ctx, w, &row_scratch_).ok());
  ctx.Advance(sim::kCpuCosts.write_query_base);
  const uint32_t bump = 1;
  POLAR_CHECK(db_->table(TpccTables::kDistrict)
                  ->UpdateColumn(ctx, DistrictKey(w, d), 0,
                                 Slice(reinterpret_cast<const char*>(&bump),
                                       sizeof(bump)))
                  .ok());
  ctx.Advance(sim::kCpuCosts.point_query_base);
  POLAR_CHECK(
      db_->table(TpccTables::kCustomer)
          ->GetTo(ctx, CustomerKey(w, d, c), &row_scratch_)
          .ok());

  const uint64_t order_id = next_order_id_++;
  const uint32_t lines = 5 + static_cast<uint32_t>(rng_.Uniform(11));
  for (uint32_t l = 0; l < lines; l++) {
    const uint64_t item = 1 + fd_items_.Mod(rng_.Next());
    // ~1% of lines hit a remote warehouse => ~10% of transactions do.
    uint64_t supply_w = w;
    if (config_.warehouses > 1 && rng_.Chance(0.01)) {
      while ((supply_w = AnyWarehouse()) == w) {
      }
      stats_.remote_accesses++;
    }
    ctx.Advance(sim::kCpuCosts.point_query_base);
    POLAR_CHECK(
        db_->table(TpccTables::kItem)->GetTo(ctx, item, &row_scratch_).ok());
    ctx.Advance(sim::kCpuCosts.write_query_base);
    const uint32_t qty = static_cast<uint32_t>(rng_.Uniform(10)) + 1;
    POLAR_CHECK(db_->table(TpccTables::kStock)
                    ->UpdateColumn(ctx, StockKey(supply_w, item), 0,
                                   Slice(reinterpret_cast<const char*>(&qty),
                                         sizeof(qty)))
                    .ok());
    ctx.Advance(sim::kCpuCosts.write_query_base);
    POLAR_CHECK(db_->table(TpccTables::kOrderLine)
                    ->Insert(ctx, order_id * 16 + l, Filled(kOrderLineRow, 'l'))
                    .ok());
  }
  ctx.Advance(sim::kCpuCosts.write_query_base);
  POLAR_CHECK(db_->table(TpccTables::kOrder)
                  ->Insert(ctx, order_id, Filled(kOrderRow, 'o'))
                  .ok());
  recent_orders_[recent_pos_++ % kRecentOrders] = order_id;
  db_->CommitTransaction(ctx);
  stats_.new_orders++;
}

void TpccWorkload::Payment(sim::ExecContext& ctx) {
  const uint64_t w = HomeWarehouse();
  const uint64_t d = 1 + rng_.Next() % TpccConfig::kDistrictsPerWarehouse;

  ctx.Advance(sim::kCpuCosts.write_query_base);
  const uint32_t amount = static_cast<uint32_t>(rng_.Uniform(5000));
  const Slice amount_slice(reinterpret_cast<const char*>(&amount),
                           sizeof(amount));
  POLAR_CHECK(db_->table(TpccTables::kWarehouse)
                  ->UpdateColumn(ctx, w, 4, amount_slice)
                  .ok());
  ctx.Advance(sim::kCpuCosts.write_query_base);
  POLAR_CHECK(db_->table(TpccTables::kDistrict)
                  ->UpdateColumn(ctx, DistrictKey(w, d), 4, amount_slice)
                  .ok());

  // 15% of payments are for a customer of a remote warehouse.
  uint64_t cust_w = w;
  if (config_.warehouses > 1 && rng_.Chance(0.15)) {
    while ((cust_w = AnyWarehouse()) == w) {
    }
    stats_.remote_accesses++;
  }
  const uint64_t c = 1 + fd_customers_.Mod(rng_.Next());
  ctx.Advance(sim::kCpuCosts.write_query_base);
  POLAR_CHECK(db_->table(TpccTables::kCustomer)
                  ->UpdateColumn(ctx, CustomerKey(cust_w, d, c), 8,
                                 amount_slice)
                  .ok());
  ctx.Advance(sim::kCpuCosts.write_query_base);
  POLAR_CHECK(db_->table(TpccTables::kHistory)
                  ->Insert(ctx, next_order_id_++ | (1ULL << 60),
                           Filled(kHistoryRow, 'h'))
                  .ok());
  db_->CommitTransaction(ctx);
  stats_.payments++;
}

void TpccWorkload::OrderStatus(sim::ExecContext& ctx) {
  const uint64_t w = HomeWarehouse();
  const uint64_t d = 1 + rng_.Next() % TpccConfig::kDistrictsPerWarehouse;
  const uint64_t c = 1 + fd_customers_.Mod(rng_.Next());
  ctx.Advance(sim::kCpuCosts.point_query_base);
  POLAR_CHECK(
      db_->table(TpccTables::kCustomer)
          ->GetTo(ctx, CustomerKey(w, d, c), &row_scratch_)
          .ok());
  if (recent_pos_ > 0) {
    const uint64_t order_id =
        recent_orders_[rng_.Uniform(std::min(recent_pos_, kRecentOrders))];
    ctx.Advance(sim::kCpuCosts.point_query_base);
    db_->table(TpccTables::kOrder)->GetTo(ctx, order_id, &row_scratch_).ok();
    ctx.Advance(sim::kCpuCosts.range_query_base);
    db_->table(TpccTables::kOrderLine)
        ->Scan(ctx, order_id * 16, 15, nullptr)
        .ok();
  }
  db_->FinishReadOnly(ctx);
  stats_.order_status++;
}

void TpccWorkload::Delivery(sim::ExecContext& ctx) {
  // Deliver up to 10 recent orders (one per district in real TPC-C).
  const uint64_t avail = std::min(recent_pos_, kRecentOrders);
  for (uint64_t i = 0; i < 10 && i < avail; i++) {
    const uint64_t order_id = recent_orders_[rng_.Uniform(avail)];
    ctx.Advance(sim::kCpuCosts.write_query_base);
    const uint32_t carrier = static_cast<uint32_t>(rng_.Uniform(10));
    db_->table(TpccTables::kOrder)
        ->UpdateColumn(ctx, order_id, 0,
                       Slice(reinterpret_cast<const char*>(&carrier),
                             sizeof(carrier)))
        .ok();
  }
  const uint64_t w = HomeWarehouse();
  const uint64_t d = 1 + rng_.Next() % TpccConfig::kDistrictsPerWarehouse;
  const uint64_t c = 1 + fd_customers_.Mod(rng_.Next());
  ctx.Advance(sim::kCpuCosts.write_query_base);
  const uint32_t bump = 1;
  POLAR_CHECK(db_->table(TpccTables::kCustomer)
                  ->UpdateColumn(ctx, CustomerKey(w, d, c), 12,
                                 Slice(reinterpret_cast<const char*>(&bump),
                                       sizeof(bump)))
                  .ok());
  db_->CommitTransaction(ctx);
  stats_.deliveries++;
}

void TpccWorkload::StockLevel(sim::ExecContext& ctx) {
  const uint64_t w = HomeWarehouse();
  ctx.Advance(sim::kCpuCosts.point_query_base);
  const uint64_t d = 1 + rng_.Next() % TpccConfig::kDistrictsPerWarehouse;
  POLAR_CHECK(db_->table(TpccTables::kDistrict)
                  ->GetTo(ctx, DistrictKey(w, d), &row_scratch_)
                  .ok());
  // Examine the stock of ~20 consecutive items.
  ctx.Advance(sim::kCpuCosts.range_query_base);
  const uint64_t item = 1 + fd_items_.Mod(rng_.Next());
  db_->table(TpccTables::kStock)->Scan(ctx, StockKey(w, item), 20, nullptr).ok();
  db_->FinishReadOnly(ctx);
  stats_.stock_levels++;
}

uint32_t TpccWorkload::RunTransaction(sim::ExecContext& ctx) {
  POLAR_PROF_SCOPE(kWorkload);
  const uint64_t pick = rng_.Uniform(100);
  if (pick < 45) {
    NewOrder(ctx);
    return 1;
  }
  if (pick < 88) Payment(ctx);
  else if (pick < 92) OrderStatus(ctx);
  else if (pick < 96) Delivery(ctx);
  else StockLevel(ctx);
  return 0;
}

}  // namespace polarcxl::workload
