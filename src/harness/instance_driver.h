// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Pooling experiment driver (Sections 2.2/2.3/4.2): one physical host runs
// `instances` database instances that share the host's RDMA NIC, CXL switch
// port, and client network — the contention that produces Figures 1, 3 and
// 7-9. Each instance has its own dataset, disk, log and LLC share.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/database.h"
#include "harness/metrics.h"
#include "harness/world_builder.h"
#include "sim/executor.h"
#include "workload/sysbench.h"

namespace polarcxl::harness {

struct PoolingConfig {
  engine::BufferPoolKind kind = engine::BufferPoolKind::kCxl;
  uint32_t instances = 1;
  uint32_t lanes_per_instance = 16;  // one lane per vCPU
  workload::SysbenchConfig sysbench;
  workload::SysbenchOp op = workload::SysbenchOp::kPointSelect;
  /// Tiered baseline: LBP capacity as a fraction of the dataset (the
  /// disaggregated memory holds the full dataset).
  double lbp_fraction = 0.3;
  /// Per-instance LLC share (ablation: shrink to show how much CPU caching
  /// contributes to direct-on-CXL performance).
  uint64_t cpu_cache_bytes = 28ULL << 20;
  /// Group-commit window for the WAL (0 = flush per commit).
  Nanos group_commit_window = 0;
  Nanos warmup = Millis(200);
  Nanos measure = Millis(800);
  uint64_t seed = 42;
  /// In-world parallelism: epoch-parallel executor threads stepping the
  /// per-instance lane shards concurrently. -1 resolves POLAR_WORLD_THREADS
  /// (unset/0 = serial), 0 forces the legacy serial executor, >= 1 enables
  /// epoch execution on that many threads. Results are bit-identical for
  /// every value (see DESIGN.md, "In-world parallelism").
  int world_threads = -1;
  /// CXL fabric shape (default = legacy one-switch, routing off).
  FabricWorldSpec fabric;
};

struct PoolingResult : RunStats {
  RunMetrics metrics;
  /// Delivered interconnect bandwidth during the window: the host NIC wire
  /// for RDMA configurations, the host CXL switch port for CXL ones.
  double interconnect_gbps = 0;
  double nic_gbps = 0;
  double cxl_gbps = 0;
  /// Delivered bandwidth over the inter-switch uplinks (0 on one switch).
  double uplink_gbps = 0;
  double lbp_hit_rate = 0;     // tiered only
  uint64_t local_dram_bytes = 0;
  // Aggregate lane counters (diagnostics).
  uint64_t line_hits = 0;
  uint64_t line_misses = 0;
  uint64_t pages_read_io = 0;
  TimeBreakdown breakdown;
};

/// Runs one pooling experiment end to end (build, load, warm up, measure).
/// With a `cache`, the post-warmup world is snapshotted on first build and
/// forked for every later run with the same setup key (all config fields
/// except `measure`); forked runs are bit-identical to cold ones. Without a
/// cache the cold path is byte-for-byte the historical driver.
PoolingResult RunPooling(const PoolingConfig& config,
                         WorldCache* cache = nullptr);

/// The Figure 7 8-instance sysbench point-select pooling point, shared by
/// bench_sim_throughput and the bit-identity regression tests so both pin
/// the same workload. Callers set the warmup/measure windows.
PoolingConfig Fig7PoolingConfig(engine::BufferPoolKind kind);

/// Estimated page count of one instance's sysbench dataset (pool sizing).
uint64_t SysbenchDatasetPages(const workload::SysbenchConfig& config);

/// Frames of a local buffer pool (LBP) that holds `fraction` of `pages`,
/// and never fewer than 64.
uint64_t LbpPages(uint64_t pages, double fraction);

}  // namespace polarcxl::harness
