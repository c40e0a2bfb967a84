// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Fault-resilience timelines ("Figure 14", beyond the paper): the canonical
// mixed-fault schedule (CXL outage, NIC brownout, flaky windows, link
// degradation, disk stall) is replayed against all three buffer-pool
// configurations in closed-loop traffic-driver runs (no tenants) and the
// ok/failed operations-per-bucket timelines are printed. The headline
// behaviors:
//   - CXL pool: degrades to storage reads during the outage (reads keep
//     flowing, writes fail fast), recovers to the pre-fault rate after.
//   - Tiered RDMA pool: rides out the NIC brownout with capped-backoff
//     verbs retries + storage fallback.
//   - DRAM pool: control — only the disk stall touches it.
// The three experiments are independent and fan out over
// POLAR_SWEEP_THREADS; results are bit-identical for any thread count.
// Full-scale runs refresh BENCH_fault_resilience.json (committed). At the
// pin scale the run checks its lane_steps against bench/pins.h
// (tools/check.sh --faults).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "harness/report.h"
#include "harness/sweep_runner.h"
#include "harness/traffic_driver.h"

namespace polarcxl::bench {
namespace {

using harness::OpenLoopConfig;
using harness::OpenLoopResult;

/// No tenants: a closed-loop run of the 8 server lanes.
OpenLoopConfig MakeConfig(engine::BufferPoolKind kind) {
  OpenLoopConfig c;
  c.kind = kind;
  c.lanes_per_instance = 8;
  c.sysbench.tables = 4;
  c.sysbench.rows_per_table = 8000;
  c.closed_loop_write_fraction = 0.25;
  c.lbp_fraction = 0.3;
  c.warmup = Scaled(Millis(100));
  c.measure = Scaled(Millis(800));
  c.bucket = Scaled(Millis(20));
  c.checkpoint_interval = Scaled(Millis(40));
  c.plan = harness::CanonicalChaosPlan(c.measure);
  return c;
}

void WriteJson(const std::vector<OpenLoopResult>& results,
               const std::vector<OpenLoopConfig>& configs) {
  harness::JsonWriter w("fault_resilience",
                        "single-instance sysbench-style 25% update mix, 8 "
                        "lanes, canonical mixed-fault schedule",
                        BenchScale());
  w.Field("plan",
          "cxl-down .20-.35, nic-down .30-.40, cxl-flaky .45-.55 p=0.2, "
          "nic-degrade .55-.70, cxl-degrade .58-.66, disk-stall .75-.85 "
          "(fractions of the measure window)")
      .Key("pools")
      .BeginObject();
  for (size_t i = 0; i < results.size(); i++) {
    const OpenLoopResult& r = results[i];
    w.Key(engine::PoolKindName(configs[i].kind))
        .BeginObject()
        .Field("lane_steps", r.lane_steps)
        .Field("ok_ops", r.ok_ops)
        .Field("failed_ops", r.failed_ops)
        .Field("degraded_fetches", r.degraded_fetches)
        .Field("fault_retries", r.fault_retries)
        .Field("fault_rejections", r.fault_rejections);
    WriteBuckets(w, "timeline_ok", r.ok);
    WriteBuckets(w, "timeline_failed", r.failed);
    w.EndObject();
  }
  w.EndObject();
  w.Commit();
}

int Main() {
  using namespace polarcxl::harness;
  PrintHeader("Figure 14: fault-resilience timelines (chaos schedule)",
              "n/a (beyond the paper: graceful degradation under injected "
              "CXL/NIC/disk faults)");

  const engine::BufferPoolKind kinds[] = {
      engine::BufferPoolKind::kCxl,
      engine::BufferPoolKind::kDram,
      engine::BufferPoolKind::kTieredRdma,
  };
  std::vector<OpenLoopConfig> configs;
  for (auto kind : kinds) configs.push_back(MakeConfig(kind));

  const auto results = RunSweep<OpenLoopConfig, OpenLoopResult>(
      configs, [](const OpenLoopConfig& c) { return RunOpenLoop(c); });

  ReportTable summary("Resilience summary (whole run)",
                      {"pool", "ok ops", "failed ops", "degraded fetches",
                       "verbs retries", "rejections", "injected cxl/nic/disk"});
  for (size_t i = 0; i < results.size(); i++) {
    const OpenLoopResult& r = results[i];
    char injected[64];
    std::snprintf(injected, sizeof(injected), "%llu/%llu/%llu",
                  static_cast<unsigned long long>(r.injected.cxl_failures),
                  static_cast<unsigned long long>(r.injected.nic_failures),
                  static_cast<unsigned long long>(r.injected.disk_stalls));
    summary.AddRow({engine::PoolKindName(configs[i].kind),
                    std::to_string(r.ok_ops),
                    std::to_string(r.failed_ops),
                    std::to_string(r.degraded_fetches),
                    std::to_string(r.fault_retries),
                    std::to_string(r.fault_rejections), injected});
  }
  summary.Print();

  ReportTable series(
      "K-ops/s over time (ok; 'f' column = failed ops in bucket)",
      {"t (ms)", "cxl", "cxl f", "dram", "dram f", "rdma", "rdma f"});
  size_t buckets = 0;
  for (const OpenLoopResult& r : results) {
    buckets = std::max({buckets, r.ok.num_buckets(), r.failed.num_buckets()});
  }
  for (size_t b = 0; b < buckets; b++) {
    const double t_ms = static_cast<double>(b) *
                        static_cast<double>(results[0].ok.bucket_width()) /
                        1e6;
    series.AddRow({Fmt(t_ms, 0), Fmt(results[0].ok.RatePerSec(b) / 1000, 1),
                   std::to_string(results[0].failed.bucket(b)),
                   Fmt(results[1].ok.RatePerSec(b) / 1000, 1),
                   std::to_string(results[1].failed.bucket(b)),
                   Fmt(results[2].ok.RatePerSec(b) / 1000, 1),
                   std::to_string(results[2].failed.bucket(b))});
  }
  series.Print();

  WriteJson(results, configs);

  // Determinism gate: virtual-time output must not move with host speed or
  // thread count, only with semantic changes to the simulation or the
  // fault model.
  return CheckPins(
      "fault_resilience",
      {Pin("cxl lane_steps", results[0].lane_steps, pins::kChaos[0]),
       Pin("dram lane_steps", results[1].lane_steps, pins::kChaos[1]),
       Pin("tiered_rdma lane_steps", results[2].lane_steps, pins::kChaos[2])});
}

}  // namespace
}  // namespace polarcxl::bench

int main() { return polarcxl::bench::Main(); }
