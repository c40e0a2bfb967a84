// Copyright 2026 The PolarCXLMem Reproduction Authors.
// TPC-C workload (scaled down, same structure): all five transaction types
// with the standard mix, ~10% of New-Order lines and ~15% of Payments
// touching a remote warehouse — the paper's "inherently well-partitioned"
// multi-primary workload. Warehouses are partitioned across nodes; remote
// accesses are the (only) shared traffic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/fastdiv.h"
#include "common/rng.h"
#include "engine/database.h"

namespace polarcxl::workload {

struct TpccConfig {
  /// Fixed by the TPC-C specification.
  static constexpr uint32_t kDistrictsPerWarehouse = 10;

  uint32_t warehouses = 4;
  uint32_t customers_per_district = 120;  // scaled down from 3000
  uint32_t items = 1000;                  // scaled down from 100000
  /// Warehouses are range-partitioned over nodes.
  uint32_t num_nodes = 1;

  uint32_t WarehousesPerNode() const {
    return warehouses / std::max(1u, num_nodes);
  }
};

/// Table indexes within the database catalog (creation order).
struct TpccTables {
  static constexpr size_t kWarehouse = 0;
  static constexpr size_t kDistrict = 1;
  static constexpr size_t kCustomer = 2;
  static constexpr size_t kStock = 3;
  static constexpr size_t kItem = 4;
  static constexpr size_t kOrder = 5;
  static constexpr size_t kOrderLine = 6;
  static constexpr size_t kHistory = 7;
  static constexpr size_t kCount = 8;
};

Status LoadTpccTables(sim::ExecContext& ctx, engine::Database* db,
                      const TpccConfig& config);

struct TpccStats {
  uint64_t new_orders = 0;
  uint64_t payments = 0;
  uint64_t order_status = 0;
  uint64_t deliveries = 0;
  uint64_t stock_levels = 0;
  uint64_t remote_accesses = 0;  // cross-warehouse touches
  uint64_t total() const {
    return new_orders + payments + order_status + deliveries + stock_levels;
  }
};

class TpccWorkload {
 public:
  TpccWorkload(engine::Database* db, TpccConfig config, NodeId node,
               uint64_t seed);

  /// Runs one transaction drawn from the standard mix (NO 45 / P 43 /
  /// OS 4 / D 4 / SL 4). Returns 1 if it was a New-Order (TpmC counting).
  uint32_t RunTransaction(sim::ExecContext& ctx);

  const TpccStats& stats() const { return stats_; }

 private:
  uint64_t HomeWarehouse();
  uint64_t AnyWarehouse() { return 1 + fd_warehouses_.Mod(rng_.Next()); }

  void NewOrder(sim::ExecContext& ctx);
  void Payment(sim::ExecContext& ctx);
  void OrderStatus(sim::ExecContext& ctx);
  void Delivery(sim::ExecContext& ctx);
  void StockLevel(sim::ExecContext& ctx);

  engine::Database* db_;
  TpccConfig config_;
  NodeId node_;
  Rng rng_;
  TpccStats stats_;
  uint64_t next_order_id_;
  // Precomputed key-distribution tables for the config-dependent divisors
  // (compile-time-constant ones like the mix percentages stay plain `%`).
  // Draw-for-draw identical to Rng::Uniform on the same divisor.
  FastDiv64 fd_warehouses_;
  FastDiv64 fd_per_node_;
  FastDiv64 fd_customers_;
  FastDiv64 fd_items_;
  // Point-select scratch: Get results in TPC-C are existence checks, so
  // rows land here and the buffer is recycled.
  std::string row_scratch_;

  // Ring of recently inserted orders (feeds OrderStatus/Delivery).
  static constexpr uint64_t kRecentOrders = 256;
  uint64_t recent_orders_[kRecentOrders] = {};
  uint64_t recent_pos_ = 0;
};

}  // namespace polarcxl::workload
