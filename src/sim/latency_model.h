// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Latency constants for every memory/interconnect domain, fitted to the
// measurements reported in the paper (Tables 1 and 2) and to public data
// sheets (ConnectX-6, PCIe 5.0, DDR5). All figures are virtual nanoseconds.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace polarcxl::sim {

/// Single cache-line access latencies — paper Table 1 (Intel MLC, Xeon
/// Platinum 8575C, XConn XC50256 switch).
struct LineLatency {
  Nanos dram_local = 146;
  Nanos dram_remote = 231;        // remote NUMA socket
  Nanos cxl_direct_local = 265;   // CXL 1.1 expander, no switch
  Nanos cxl_direct_remote = 346;
  Nanos cxl_switch_local = 549;   // via XConn CXL 2.0 switch
  Nanos cxl_switch_remote = 651;

  /// Cost of an access served by the CPU cache hierarchy (hit). A blended
  /// L1/L2/LLC figure; kept small because per-query compute is modelled
  /// separately as a base CPU cost. A compile-time constant: the cache-hit
  /// path charges it without a load.
  static constexpr Nanos kCpuCacheHit = 4;
};

/// Streaming (multi-line) transfer cost: latency(n_lines) = base +
/// per_line * (n_lines - 1). Linear fits through the end points of paper
/// Table 2. CXL streaming is limited by CPU load/store buffer depth, which
/// is why its per-line slope is much steeper than its pipelined-bandwidth
/// ideal; RDMA has a large fixed base (RTT + NIC DMA) but flat slope.
struct StreamCost {
  Nanos base;          // first line / fixed overhead
  double per_line_ns;  // each additional cache line

  Nanos Cost(uint32_t n_lines) const {
    if (n_lines == 0) return 0;
    return base + static_cast<Nanos>(per_line_ns * (n_lines - 1));
  }
};

/// Complete latency model. One instance shared by a whole simulation.
struct LatencyModel {
  LineLatency line;

  // Table 2 fits. 64 B (1 line): CXL write 0.78 us / read 0.75 us;
  // 16 KB (256 lines): write 1.68 us / read 2.46 us.
  StreamCost cxl_stream_read{743, 6.73};
  StreamCost cxl_stream_write{777, 3.54};
  // DRAM streaming: ~64 B in ~100 ns, 16 KB memcpy ~1.1 us.
  StreamCost dram_stream_read{100, 4.0};
  StreamCost dram_stream_write{100, 3.0};

  // RDMA one-sided verbs — Table 2 fits. Base covers post-send, doorbell,
  // NIC processing, network RTT and remote DMA; slope is wire+DMA byte cost.
  // 64 B write 4.48 us, 16 KB write 6.12 us -> ~0.1 ns/B.
  Nanos rdma_base_write = 4474;
  double rdma_ns_per_byte_write = 0.1005;
  // 64 B read 4.55 us, 16 KB read 7.13 us -> ~0.158 ns/B.
  Nanos rdma_base_read = 4540;
  double rdma_ns_per_byte_read = 0.1581;
  /// Two-sided send/recv RPC round trip (request + response + handler).
  Nanos rdma_rpc_round_trip = 9200;

  /// One-way propagation + serialization latency of one x16 CXL 2.0
  /// switch-to-switch uplink, added per crossed hop.
  static constexpr Nanos kCxlUplinkHop = 100;

  /// Latency of an RPC carried over the CXL fabric via shared-memory
  /// mailboxes (used by the CXL memory manager / buffer fusion server):
  /// a handful of CXL line accesses each way.
  Nanos cxl_rpc_round_trip = 2600;

  /// clflush of one dirty line to CXL memory (posted write).
  Nanos cxl_clflush_line = 120;
  /// Invalidating one clean line (clflush of unmodified data).
  Nanos invalidate_line = 20;

  // Simulated PolarFS-like storage.
  Nanos disk_read_latency = 90'000;    // 90 us first byte
  Nanos disk_write_latency = 50'000;   // 50 us (log append, NVMe + replication)

  Nanos RdmaWrite(uint64_t bytes) const {
    return rdma_base_write +
           static_cast<Nanos>(rdma_ns_per_byte_write * static_cast<double>(bytes));
  }
  Nanos RdmaRead(uint64_t bytes) const {
    return rdma_base_read +
           static_cast<Nanos>(rdma_ns_per_byte_read * static_cast<double>(bytes));
  }
};

/// Bandwidth capacities (bytes/sec) for the shared channels.
struct BandwidthModel {
  /// ConnectX-6 100 Gbps NIC — the paper quotes 12 GB/s usable.
  uint64_t rdma_nic_bps = 12ULL * 1000 * 1000 * 1000;
  /// Host CXL x16 PCIe 5.0 link through the switch (~64 GB/s raw; usable
  /// load/store bandwidth is lower; paper's switch never saturates).
  uint64_t cxl_host_link_bps = 56ULL * 1000 * 1000 * 1000;
  /// Aggregate switching capacity of one CXL switch (XConn XC50256).
  uint64_t cxl_switch_bps = 2ULL * 1000 * 1000 * 1000 * 1000;
  /// Host local DRAM bandwidth (8-channel DDR5 per socket).
  uint64_t dram_bps = 200ULL * 1000 * 1000 * 1000;
  /// Client-facing Ethernet for query results (shared per host).
  uint64_t client_net_bps = 12ULL * 1000 * 1000 * 1000;
  /// WAL/storage backend (PolarFS over its own network): the uncapped
  /// default of every SimDisk. The recovery and sharing worlds, TestWorld
  /// and the examples run their disks at this rate with no IOPS ceiling.
  uint64_t storage_bps = 2ULL * 1000 * 1000 * 1000;
  /// The per-host PolarFS volume that all of a SimWorld's instances share:
  /// wider than one instance's disk, but capped in operations, so many
  /// small WAL appends saturate it at high instance counts.
  static constexpr uint64_t kSharedVolumeBps = 8ULL * 1000 * 1000 * 1000;
  static constexpr uint64_t kSharedVolumeIops = 150'000;
  /// RDMA NIC doorbell/IOPS ceiling (ops/sec) — models the contention that
  /// keeps IOPS-bound RDMA apps from scaling past ~32 cores.
  uint64_t rdma_nic_iops = 8ULL * 1000 * 1000;
};

/// CPU service costs per operation type, excluding memory-access charges.
/// Calibrated so that a 16-vCPU instance reaches roughly the paper's
/// single-instance throughput (~300 K QPS point-select).
struct CpuCostModel {
  Nanos point_query_base = 42'000;   // parse+plan+session per point query
  Nanos range_query_base = 90'000;   // range scan fixed part
  Nanos write_query_base = 52'000;   // update/insert/delete fixed part
  Nanos per_row_cpu = 350;           // per row examined/produced
  Nanos btree_level_cpu = 900;       // per level descended (comparisons)
  Nanos log_record_apply = 1'200;    // redo apply CPU per record (recovery)
  Nanos log_record_parse = 150;      // per record scanned (parse + LSN check)
  Nanos txn_overhead = 4'000;        // begin/commit bookkeeping
};

/// The CPU service costs of every instance and recovery pass.
inline constexpr CpuCostModel kCpuCosts{};

}  // namespace polarcxl::sim
