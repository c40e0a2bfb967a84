// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Sysbench OLTP workload generator (the paper's primary benchmark),
// including the multi-primary adaptation of Section 4.4: tables are split
// into N+1 groups (N private, one shared) and X% of queries target the
// shared group.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/fastdiv.h"
#include "common/rng.h"
#include "engine/database.h"
#include "sim/bandwidth_channel.h"

namespace polarcxl::workload {

/// Sysbench oltp_* flavors used in the paper.
enum class SysbenchOp {
  kPointSelect,  // 1 point SELECT per event
  kRangeSelect,  // 1 range SELECT (kRangeSize rows) per event
  kReadOnly,     // 10 point selects + 1 range per transaction
  kReadWrite,    // reads + index/non-index update + delete/insert
  kWriteOnly,    // index/non-index update + delete/insert
  kPointUpdate,  // 10 point updates per transaction (Section 4.4)
};

const char* SysbenchOpName(SysbenchOp op);

/// sbtest row: k INT at [0,4), c CHAR(120) at [4,124), pad CHAR(60) at
/// [124,184).
enum class KeyDistribution { kUniform, kZipfian };

struct SysbenchConfig {
  /// Rows per range SELECT, sbtest row bytes, and the zipfian skew.
  static constexpr uint32_t kRangeSize = 100;
  static constexpr uint16_t kRowSize = 184;
  static constexpr double kZipfTheta = 0.99;

  uint32_t tables = 8;
  uint32_t rows_per_table = 25000;
  /// Key skew: uniform (sysbench default) or zipfian (hot rows, like
  /// sysbench's rand-type=zipfian).
  KeyDistribution distribution = KeyDistribution::kUniform;

  // Multi-primary sharing adaptation (Section 4.4): with `num_nodes` = N,
  // tables form N+1 groups of `tables` each; group i is private to node i
  // and group N is shared. `shared_fraction` of queries hit the shared
  // group. num_nodes == 1 disables grouping (all tables local).
  uint32_t num_nodes = 1;
  double shared_fraction = 0.0;

  uint32_t TotalTables() const {
    return num_nodes == 1 ? tables : (num_nodes + 1) * tables;
  }
};

/// Creates and populates the sbtest tables on `db`. Call once per cluster
/// (on the schema-owning node in multi-primary setups).
Status LoadSysbenchTables(sim::ExecContext& ctx, engine::Database* db,
                          const SysbenchConfig& config);

/// Per-lane workload driver. Deterministic given (seed, node).
class SysbenchWorkload {
 public:
  /// `client_net` (nullable) is charged with query/result bytes.
  SysbenchWorkload(engine::Database* db, SysbenchConfig config, NodeId node,
                   uint64_t seed, sim::BandwidthChannel* client_net = nullptr);

  /// Executes one sysbench event (query or transaction). Returns the number
  /// of queries executed (the paper's QPS counts queries).
  uint32_t RunEvent(sim::ExecContext& ctx, SysbenchOp op);

  uint64_t total_queries() const { return total_queries_; }
  uint64_t shared_queries() const { return shared_queries_; }

  /// Mutable driver state for world snapshot/restore: the RNG streams and
  /// the query counters (the FastDiv tables and scratch are derived /
  /// semantically inert).
  struct State {
    uint64_t rng_state = 0;
    uint64_t zipf_state = 0;
    uint64_t total_queries = 0;
    uint64_t shared_queries = 0;
  };
  State Capture() const {
    State s;
    s.rng_state = rng_.raw_state();
    s.zipf_state = zipf_ != nullptr ? zipf_->raw_state() : 0;
    s.total_queries = total_queries_;
    s.shared_queries = shared_queries_;
    return s;
  }
  void Restore(const State& s) {
    rng_.set_raw_state(s.rng_state);
    if (zipf_ != nullptr) zipf_->set_raw_state(s.zipf_state);
    total_queries_ = s.total_queries;
    shared_queries_ = s.shared_queries;
  }

 private:
  engine::Table* PickTable(bool* is_shared);
  uint64_t PickRow();
  void ChargeClient(sim::ExecContext& ctx, uint64_t bytes);

  void PointSelect(sim::ExecContext& ctx);
  void RangeSelect(sim::ExecContext& ctx);
  void IndexUpdate(sim::ExecContext& ctx);
  void NonIndexUpdate(sim::ExecContext& ctx);
  void DeleteInsert(sim::ExecContext& ctx);

  engine::Database* db_;
  SysbenchConfig config_;
  NodeId node_;
  Rng rng_;
  std::unique_ptr<ZipfRng> zipf_;
  sim::BandwidthChannel* client_net_;
  uint64_t total_queries_ = 0;
  uint64_t shared_queries_ = 0;
  // Key-distribution tables, precomputed from the (fixed) config so the
  // per-op path replaces `% divisor` with a magic-number multiply. The
  // draw sequence and every picked key are bit-identical to Rng::Uniform.
  FastDiv64 fd_rows_;        // rows_per_table
  FastDiv64 fd_tables_;      // tables per group
  FastDiv64 fd_range_start_; // valid range-scan start positions
  // Reused across point selects / re-inserts; steady state allocates
  // nothing.
  std::string row_scratch_;
};

}  // namespace polarcxl::workload
