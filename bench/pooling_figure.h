// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Shared driver for Figures 7-9: RDMA-based vs PolarCXLMem pooling sweeps
// over the instance count, reporting throughput, average latency, and
// RDMA/CXL bandwidth — the three panels of each figure.
//
// All (instance count x pool kind) experiment points are independent, so the
// sweep fans out over host threads (POLAR_SWEEP_THREADS); results are
// bit-identical at any thread count (see harness/sweep_runner.h).
#pragma once

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "harness/instance_driver.h"
#include "harness/sweep_runner.h"

namespace polarcxl::bench {

inline void RunPoolingFigure(const char* figure, const char* paper_summary,
                             workload::SysbenchOp op, uint32_t lanes) {
  PrintHeader(figure, paper_summary);

  const uint32_t kInstancePoints[] = {1, 2, 3, 4, 6, 8, 10, 12};

  std::vector<harness::PoolingConfig> configs;
  for (uint32_t n : kInstancePoints) {
    for (auto kind : {engine::BufferPoolKind::kTieredRdma,
                      engine::BufferPoolKind::kCxl}) {
      harness::PoolingConfig c;
      c.kind = kind;
      c.lbp_fraction = 0.3;
      c.instances = n;
      c.lanes_per_instance = lanes;
      c.sysbench.tables = 4;
      c.sysbench.rows_per_table = 8000;
      c.op = op;
      c.cpu_cache_bytes = 2ULL << 20;  // dataset >> LLC, as at paper scale
      c.warmup = Scaled(Millis(40));
      c.measure = Scaled(Millis(120));
      configs.push_back(c);
    }
  }

  // POLAR_BENCH_REPS > 1 repeats each sweep point: rep 1 builds the world
  // cold and snapshots it, later reps fork the snapshot. Forked reps must be
  // bit-identical to the cold rep — this doubles as an in-binary
  // cold-vs-fork determinism check. The cache is scoped per point so a long
  // sweep never holds more than the in-flight points' worlds.
  const int reps = BenchReps(1);
  const auto results =
      harness::RunSweep<harness::PoolingConfig, harness::PoolingResult>(
          configs, [reps](const harness::PoolingConfig& c) {
            if (reps <= 1) return harness::RunPooling(c);
            harness::WorldCache cache;
            harness::PoolingResult cold = harness::RunPooling(c, &cache);
            for (int i = 1; i < reps; i++) {
              harness::PoolingResult fork = harness::RunPooling(c, &cache);
              POLAR_CHECK_MSG(fork.lane_steps == cold.lane_steps &&
                                  fork.virtual_end == cold.virtual_end &&
                                  fork.metrics.queries == cold.metrics.queries,
                              "forked world diverged from cold build");
              cold = fork;
            }
            return cold;
          });

  harness::ReportTable table(
      std::string("Sysbench ") + workload::SysbenchOpName(op) +
          " — RDMA-based (LBP 30%) vs PolarCXLMem",
      {"instances", "RDMA QPS", "CXL QPS", "RDMA lat", "CXL lat",
       "RDMA BW", "CXL BW"});
  for (size_t p = 0; p < std::size(kInstancePoints); p++) {
    const harness::PoolingResult& rdma = results[2 * p];
    const harness::PoolingResult& cxl = results[2 * p + 1];
    table.AddRow({std::to_string(kInstancePoints[p]),
                  harness::FmtK(rdma.metrics.Qps()),
                  harness::FmtK(cxl.metrics.Qps()),
                  harness::FmtUs(rdma.metrics.latency.Mean()),
                  harness::FmtUs(cxl.metrics.latency.Mean()),
                  harness::FmtGbps(rdma.nic_gbps),
                  harness::FmtGbps(cxl.cxl_gbps)});
  }
  table.Print();
}

}  // namespace polarcxl::bench
