// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Fabric topology at rack scale (beyond the paper's single switch): 64-256
// co-located instances whose buffer pools live behind 1/2/4 cascaded CXL
// switches joined by bandwidth-metered uplinks. Three experiments:
//   1. Scale sweep — instances x switch count under round-robin HDM
//      interleave and local-switch-first placement: adding switches adds
//      host ports and device ports, lifting the single-port ceiling that
//      caps the one-switch fabric.
//   2. Placement — with the inter-switch uplinks narrowed until cross-
//      switch traffic saturates them, local-switch-first keeps regions
//      behind each tenant's home switch (zero uplink bytes) while spread
//      placement pushes every access across the saturated uplinks: worse
//      p99 at the same offered load.
//   3. Interleave knee — one switch, four devices: contiguous HDM packs
//      first-fit regions onto the first device so its port saturates while
//      the others idle; round-robin/skewed striping spreads the same bytes
//      across all four ports and moves the fig7-style latency knee out.
// Device ports are narrowed to 1 GB/s throughout (x4-expander/oversub-
// scribed links): the paper's full-width switch never saturates under
// 64 B line traffic, so narrow device links are what make topology,
// placement, and interleave choices visible at all.
// Full-scale runs refresh BENCH_fabric_topology.json (committed). Every run
// ends with a lane_steps bit-identity gate over the 2-switch reference
// point, serial and epoch (world threads 1/2/4 must all retire the same
// epoch value), checked against bench/pins.h at the pin scale; see
// tools/check.sh --fabric.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "fabric/hdm_decoder.h"
#include "fabric/placement_policy.h"
#include "harness/instance_driver.h"
#include "harness/report.h"
#include "harness/sweep_runner.h"

namespace polarcxl::bench {
namespace {

using harness::PoolingConfig;
using harness::PoolingResult;

const uint32_t kSwitchPoints[] = {1, 2, 4};
const uint32_t kInstancePoints[] = {64, 128, 256};
const uint32_t kKneePoints[] = {16, 32, 64, 128};
const fabric::InterleaveMode kKneeModes[] = {
    fabric::InterleaveMode::kContiguous,
    fabric::InterleaveMode::kRoundRobin,
    fabric::InterleaveMode::kSkewed,
};

/// Many small tenants instead of fig7's few big ones: 2 lanes and one
/// 2000-row table each keeps a 256-instance world tractable, and a 256 KB
/// LLC share makes the working set spill to the fabric so topology matters.
/// World-level striped interleave uses page-sized granules (in-place page
/// frames must not straddle devices; see SimWorld).
PoolingConfig BaseConfig() {
  PoolingConfig c;
  c.kind = engine::BufferPoolKind::kCxl;
  c.lanes_per_instance = 2;
  c.sysbench.tables = 1;
  c.sysbench.rows_per_table = 2000;
  c.op = workload::SysbenchOp::kPointSelect;
  c.cpu_cache_bytes = 256ULL << 10;
  c.warmup = Scaled(Millis(20));
  c.measure = Scaled(Millis(60));
  c.fabric.devices_per_switch = 2;  // routed fabric even at one switch
  // Narrow device links (hosts keep full-width 56 GB/s ports): line-granular
  // pool traffic peaks at a few GB/s here, so 1 GB/s device ports put the
  // sweep on both sides of the saturation knee.
  c.fabric.device_port_bps = 1ULL * 1000 * 1000 * 1000;
  c.fabric.interleave.mode = fabric::InterleaveMode::kRoundRobin;
  c.fabric.interleave.granule = kPageSize;
  return c;
}

/// The 2-switch reference point for the determinism gate (8 instances so
/// the gate stays cheap at any scale).
PoolingConfig GateConfig(int world_threads) {
  PoolingConfig c = BaseConfig();
  c.instances = 8;
  c.fabric.switches = 2;
  c.warmup = Scaled(Millis(40));
  c.measure = Scaled(Millis(120));
  c.world_threads = world_threads;
  return c;
}

double P99Us(const PoolingResult& r) {
  return static_cast<double>(r.metrics.latency.Percentile(99)) / 1e3;
}

void WriteJson(const std::vector<PoolingResult>& scale,
               const std::vector<PoolingResult>& placement,
               const std::vector<PoolingResult>& knee) {
  using Layout = harness::JsonWriter::Layout;
  harness::JsonWriter w("fabric_topology",
                        "sysbench point-select, 2 lanes + 2000 rows per "
                        "instance, 256KB LLC share, 1 GB/s device ports, "
                        "round-robin 16KB HDM interleave unless noted",
                        BenchScale());
  w.Key("scale_sweep").BeginArray();
  size_t idx = 0;
  for (uint32_t sw : kSwitchPoints) {
    for (uint32_t n : kInstancePoints) {
      const PoolingResult& r = scale[idx++];
      w.BeginObject(Layout::kInline)
          .Field("switches", sw)
          .Field("instances", n)
          .Field("qps", r.metrics.Qps(), 0)
          .Field("p99_us", P99Us(r), 1)
          .Field("avg_us", r.metrics.AvgLatencyUs(), 1)
          .Field("cxl_gbps", r.cxl_gbps, 2)
          .Field("uplink_gbps", r.uplink_gbps, 2)
          .Field("lane_steps", r.lane_steps)
          .EndObject();
    }
  }
  w.EndArray()
      .Key("placement")
      .BeginObject()
      .Field("setup",
             "64 instances, 4 switches, wide device ports, uplinks narrowed "
             "to 0.125 GB/s")
      .Key("modes")
      .BeginArray();
  for (size_t p = 0; p < placement.size(); p++) {
    const PoolingResult& r = placement[p];
    w.BeginObject(Layout::kInline)
        .Field("mode", fabric::PlacementModeName(
                           static_cast<fabric::PlacementMode>(p)))
        .Field("qps", r.metrics.Qps(), 0)
        .Field("p99_us", P99Us(r), 1)
        .Field("avg_us", r.metrics.AvgLatencyUs(), 1)
        .Field("uplink_gbps", r.uplink_gbps, 2)
        .EndObject();
  }
  w.EndArray()
      .EndObject()
      .Key("interleave_knee")
      .BeginObject()
      .Field("setup",
             "1 switch, 4 devices; contiguous packs first-fit regions onto "
             "device 0")
      .Key("curves")
      .BeginArray();
  idx = 0;
  for (fabric::InterleaveMode mode : kKneeModes) {
    w.BeginObject()
        .Field("mode", fabric::InterleaveModeName(mode))
        .Key("points")
        .BeginArray();
    for (uint32_t n : kKneePoints) {
      const PoolingResult& r = knee[idx++];
      w.BeginObject(Layout::kInline)
          .Field("instances", n)
          .Field("qps", r.metrics.Qps(), 0)
          .Field("p99_us", P99Us(r), 1)
          .Field("avg_us", r.metrics.AvgLatencyUs(), 1)
          .Field("cxl_gbps", r.cxl_gbps, 2)
          .EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  w.Commit();
}

int Main() {
  using namespace polarcxl::harness;
  PrintHeader("Fabric topology: 64-256 instances across cascaded CXL "
              "switches",
              "n/a (beyond the paper: multi-switch fabrics, HDM "
              "interleaving, placement policy)");

  // All points are independent; one RunSweep fans the whole set across
  // POLAR_SWEEP_THREADS (bit-identical at any thread count).
  std::vector<PoolingConfig> configs;
  for (uint32_t sw : kSwitchPoints) {
    for (uint32_t n : kInstancePoints) {
      PoolingConfig c = BaseConfig();
      c.instances = n;
      c.fabric.switches = sw;
      configs.push_back(c);
    }
  }
  const size_t placement_base = configs.size();
  for (auto mode : {fabric::PlacementMode::kLocalFirst,
                    fabric::PlacementMode::kSpread,
                    fabric::PlacementMode::kCapacityBalanced}) {
    PoolingConfig c = BaseConfig();
    c.instances = 64;
    c.fabric.switches = 4;
    // Wide device ports, narrow uplinks: cross-switch traffic (~0.26 GB/s
    // per ring edge under spread placement) is what saturates.
    c.fabric.device_port_bps = 0;
    c.fabric.uplink_bps = 125ULL * 1000 * 1000;
    c.fabric.placement = mode;
    configs.push_back(c);
  }
  const size_t knee_base = configs.size();
  for (auto mode : kKneeModes) {
    for (uint32_t n : kKneePoints) {
      PoolingConfig c = BaseConfig();
      c.instances = n;
      c.fabric.switches = 1;
      c.fabric.devices_per_switch = 4;
      c.fabric.interleave.mode = mode;
      configs.push_back(c);
    }
  }

  const auto all = RunSweep<PoolingConfig, PoolingResult>(
      configs, [](const PoolingConfig& c) { return RunPooling(c); });
  const std::vector<PoolingResult> scale(all.begin(),
                                         all.begin() + placement_base);
  const std::vector<PoolingResult> placement(all.begin() + placement_base,
                                             all.begin() + knee_base);
  const std::vector<PoolingResult> knee(all.begin() + knee_base, all.end());

  ReportTable sweep_table(
      "Scale sweep (round-robin 16KB interleave, local-first placement)",
      {"switches", "instances", "QPS", "p99", "avg", "CXL BW", "uplink BW"});
  size_t idx = 0;
  for (uint32_t sw : kSwitchPoints) {
    for (uint32_t n : kInstancePoints) {
      const PoolingResult& r = scale[idx++];
      sweep_table.AddRow({std::to_string(sw), std::to_string(n),
                          FmtK(r.metrics.Qps()), FmtUs(P99Us(r) * 1e3),
                          FmtUs(r.metrics.latency.Mean()),
                          FmtGbps(r.cxl_gbps), FmtGbps(r.uplink_gbps)});
    }
  }
  sweep_table.Print();

  ReportTable placement_table(
      "Placement policy (64 instances, 4 switches, 0.125 GB/s uplinks)",
      {"placement", "QPS", "p99", "avg", "uplink BW"});
  for (size_t p = 0; p < placement.size(); p++) {
    const PoolingResult& r = placement[p];
    placement_table.AddRow(
        {fabric::PlacementModeName(static_cast<fabric::PlacementMode>(p)),
         FmtK(r.metrics.Qps()), FmtUs(P99Us(r) * 1e3),
         FmtUs(r.metrics.latency.Mean()), FmtGbps(r.uplink_gbps)});
  }
  placement_table.Print();

  ReportTable knee_table(
      "Interleave knee (1 switch, 4 devices): QPS / p99 us per mode",
      {"instances", "contig QPS", "contig p99", "rrobin QPS", "rrobin p99",
       "skewed QPS", "skewed p99"});
  for (size_t i = 0; i < std::size(kKneePoints); i++) {
    std::vector<std::string> row = {std::to_string(kKneePoints[i])};
    for (size_t m = 0; m < std::size(kKneeModes); m++) {
      const PoolingResult& r = knee[m * std::size(kKneePoints) + i];
      row.push_back(FmtK(r.metrics.Qps()));
      row.push_back(Fmt(P99Us(r), 0));
    }
    knee_table.AddRow(row);
  }
  knee_table.Print();
  WriteJson(scale, placement, knee);

  // Determinism gate over the 2-switch reference point: the epoch-parallel
  // discipline must retire identical lane_steps at every thread count, and
  // at the pin scale both disciplines must hit bench/pins.h.
  const PoolingResult serial = RunPooling(GateConfig(0));
  uint64_t epoch_steps = 0;
  for (int threads : {1, 2, 4}) {
    const PoolingResult par = RunPooling(GateConfig(threads));
    if (threads == 1) {
      epoch_steps = par.lane_steps;
    } else if (par.lane_steps != epoch_steps ||
               par.metrics.queries == 0) {
      std::fprintf(stderr,
                   "fabric epoch drift: %llu lane_steps at %d threads, "
                   "%llu at 1\n",
                   static_cast<unsigned long long>(par.lane_steps), threads,
                   static_cast<unsigned long long>(epoch_steps));
      return 1;
    }
  }
  std::printf("gate point (8 inst, 2 switches): lane_steps %llu serial, "
              "%llu epoch (threads 1/2/4 identical)\n",
              static_cast<unsigned long long>(serial.lane_steps),
              static_cast<unsigned long long>(epoch_steps));
  return CheckPins(
      "fabric_topology",
      {Pin("2-switch serial lane_steps", serial.lane_steps,
           pins::kFabric.serial),
       Pin("2-switch epoch lane_steps", epoch_steps, pins::kFabric.epoch)});
}

}  // namespace
}  // namespace polarcxl::bench

int main() { return polarcxl::bench::Main(); }
