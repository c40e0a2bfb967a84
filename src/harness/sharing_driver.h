// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Multi-primary data-sharing experiment driver (Section 4.4): N database
// nodes share one dataset through either PolarCXLMem (buffer fusion + CXL
// coherency protocol) or the RDMA-based PolarDB-MP baseline.
#pragma once

#include <cstdint>
#include <memory>

#include "engine/database.h"
#include "harness/metrics.h"
#include "harness/world_builder.h"
#include "sharing/buffer_fusion.h"
#include "sharing/mp_node.h"
#include "sharing/rdma_sharing.h"
#include "sim/executor.h"
#include "workload/sysbench.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

namespace polarcxl::harness {

enum class SharingMode { kCxl, kRdma };
using SharingBench = WorkloadSpec::Bench;

struct SharingConfig {
  SharingMode mode = SharingMode::kCxl;
  uint32_t nodes = 8;
  uint32_t lanes_per_node = 16;

  SharingBench bench = SharingBench::kSysbench;
  workload::SysbenchConfig sysbench;  // num_nodes/shared_fraction set here
  workload::SysbenchOp op = workload::SysbenchOp::kPointUpdate;
  workload::TpccConfig tpcc;
  workload::TatpConfig tatp;

  /// RDMA baseline: per-node LBP as a fraction of the node's accessed
  /// dataset (private group + shared group).
  double lbp_fraction = 0.3;
  /// Ablation: make the CXL protocol sync whole pages on write unlock.
  bool cxl_full_page_sync = false;
  /// Forward-looking: assume a CXL 3.0 switch with hardware coherency.
  bool cxl_hardware_coherency = false;

  Nanos warmup = Millis(100);
  Nanos measure = Millis(400);
  uint64_t seed = 7;
};

struct SharingResult {
  RunMetrics metrics;
  uint64_t new_orders = 0;  // TPC-C only
  /// Total memory consumed by node-local buffers (the paper's memory
  /// overhead comparison; PolarCXLMem has none).
  uint64_t local_dram_bytes = 0;
  uint64_t lock_waits = 0;
  Nanos total_lock_wait = 0;
  uint64_t invalidations = 0;  // coherency events observed
  uint64_t sync_lines = 0;     // CXL cache lines written back on unlocks
  TimeBreakdown breakdown;
};

SharingResult RunSharing(const SharingConfig& config);

}  // namespace polarcxl::harness
