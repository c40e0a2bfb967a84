// Copyright 2026 The PolarCXLMem Reproduction Authors.
// SLO capacity under open-loop traffic (beyond the paper): per-tenant
// arrival processes (a steady gold tenant + a bursty best-effort tenant)
// feed bounded admission queues in front of each buffer-pool configuration,
// and we measure goodput — completions within a p99 latency SLO — as the
// offered rate sweeps from idle to 8x overload. Then a binary search pins
// each pool's maximum sustained arrival rate before SLO violation, and one
// chaos-under-peak timeline replays the canonical mixed-fault schedule at
// near-capacity load ("Black-Friday peak + CXL outage").
// Full-scale runs refresh BENCH_slo_capacity.json (committed). At the pin
// scale the run checks its lane_steps against bench/pins.h (tools/check.sh
// --slo).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "harness/chaos_driver.h"  // ChaosPoolName, CanonicalChaosPlan
#include "harness/report.h"
#include "harness/sweep_runner.h"
#include "harness/traffic_driver.h"

namespace polarcxl::bench {
namespace {

using harness::CapacityPoint;
using harness::CapacitySearch;
using harness::OpenLoopConfig;
using harness::OpenLoopResult;
using harness::QosClass;
using harness::TenantSpec;
using harness::WorldCache;

/// Offered rate at scale 1.0: 120k/s steady gold + 66k/s average bursty
/// best-effort (120k/s on-rate, 0.1 off-factor) — just under the SLO knee,
/// so the sweep straddles it. Virtual-time rates are host-independent.
constexpr double kGoldRate = 120'000.0;
constexpr double kBeRate = 120'000.0;  // on-rate; 0.1 off-factor

const double kSweepScales[] = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0};
constexpr size_t kNumScales = sizeof(kSweepScales) / sizeof(kSweepScales[0]);

OpenLoopConfig MakeConfig(engine::BufferPoolKind kind) {
  OpenLoopConfig c;
  c.kind = kind;
  c.instances = 1;
  c.lanes_per_instance = 8;
  c.sysbench.tables = 4;
  c.sysbench.rows_per_table = 8000;
  c.warmup = Scaled(Millis(100));
  c.measure = Scaled(Millis(400));
  c.bucket = Scaled(Millis(10));
  c.checkpoint_interval = Scaled(Millis(40));
  c.slo_latency = Micros(900);
  c.gold_deadline = Millis(2);
  c.best_effort_deadline = Millis(2);
  // Queue caps sized to the deadline (~cap / service-rate must stay under
  // it): deep queues bufferbloat — every admitted op expires in queue and
  // goodput collapses instead of plateauing at capacity.
  c.admission.gold_cap = 256;
  c.admission.best_effort_cap = 128;
  c.verbs_retry_budget = Millis(1);

  TenantSpec gold;
  gold.name = "gold";
  gold.qos = QosClass::kGold;
  gold.arrivals.rate_per_sec = kGoldRate;
  gold.write_fraction = 0.25;

  TenantSpec be;
  be.name = "be";
  be.qos = QosClass::kBestEffort;
  be.arrivals.kind = harness::ArrivalKind::kBurstyOnOff;
  be.arrivals.rate_per_sec = kBeRate;
  be.arrivals.on_period = Scaled(Millis(20));
  be.arrivals.off_period = Scaled(Millis(20));
  be.arrivals.off_factor = 0.1;
  be.write_fraction = 0.25;

  c.tenants = {gold, be};
  return c;
}

struct KindRun {
  engine::BufferPoolKind kind = engine::BufferPoolKind::kCxl;
  std::vector<OpenLoopResult> sweep;  // one per kSweepScales entry
  CapacityPoint capacity;
};

void WriteJson(const std::vector<KindRun>& runs,
               const OpenLoopResult& chaos) {
  using Layout = harness::JsonWriter::Layout;
  harness::JsonWriter w("slo_capacity",
                        "open-loop: gold Poisson 120k/s + best-effort bursty "
                        "120k/s on (x scale), 25% update mix, 8 server lanes, "
                        "p99 SLO 900us, 2ms deadlines",
                        BenchScale());
  w.Key("pools").BeginObject();
  for (const KindRun& kr : runs) {
    w.Key(harness::ChaosPoolName(kr.kind)).BeginObject().Key("curve")
        .BeginArray();
    for (size_t i = 0; i < kr.sweep.size(); i++) {
      const OpenLoopResult& r = kr.sweep[i];
      w.BeginObject(Layout::kInline)
          .Field("scale", kSweepScales[i], 2)
          .Field("offered_per_sec",
                 static_cast<double>(r.offered) * 1e9 /
                     static_cast<double>(r.window),
                 0)
          .Field("goodput_per_sec", r.goodput, 0)
          .Field("p99_us", static_cast<double>(r.p99) / 1e3, 1)
          .Field("loss_fraction", r.loss_fraction, 4)
          .Field("shed_queue", r.shed_queue)
          .Field("shed_deadline", r.shed_deadline)
          .Field("failed", r.failed_ops)
          .Field("slo_met", r.slo_met)
          .EndObject();
    }
    w.EndArray()
        .Key("capacity")
        .BeginObject(Layout::kInline)
        .Field("scale", kr.capacity.scale, 4)
        .Field("offered_per_sec", kr.capacity.offered_rate, 0)
        .Field("goodput_per_sec", kr.capacity.result.goodput, 0)
        .Field("p99_us", static_cast<double>(kr.capacity.result.p99) / 1e3, 1)
        .EndObject()
        .EndObject();
  }
  w.EndObject()
      .Key("chaos_under_peak")
      .BeginObject()
      .Field("pool", "cxl")
      .Field("plan",
             "canonical chaos schedule at 2x base load: cxl-down .20-.35, "
             "nic-down .30-.40, cxl-flaky .45-.55 p=0.2, nic-degrade "
             ".55-.70, cxl-degrade .58-.66, disk-stall .75-.85")
      .Field("lane_steps", chaos.lane_steps)
      .Field("goodput_per_sec", chaos.goodput, 0)
      .Field("p99_us", static_cast<double>(chaos.p99) / 1e3, 1)
      .Field("shed_queue", chaos.shed_queue)
      .Field("shed_deadline", chaos.shed_deadline)
      .Field("failed", chaos.failed_ops)
      .Field("degraded_fetches", chaos.degraded_fetches)
      .Field("retries_exhausted", chaos.retries_exhausted);
  WriteBuckets(w, "timeline_ok", chaos.ok);
  WriteBuckets(w, "timeline_failed", chaos.failed);
  WriteBuckets(w, "timeline_shed", chaos.shed);
  w.EndObject();
  w.Commit();
}

int Main() {
  using namespace polarcxl::harness;
  PrintHeader("SLO capacity: goodput under open-loop arrivals + admission "
              "control",
              "n/a (beyond the paper: open-loop serving, capacity search, "
              "chaos under peak)");

  const engine::BufferPoolKind kinds[] = {
      engine::BufferPoolKind::kCxl,
      engine::BufferPoolKind::kDram,
      engine::BufferPoolKind::kTieredRdma,
  };

  // One cache across the whole bench: each pool kind builds + warms its
  // world once; every sweep point and capacity probe forks it. Points of
  // one kind share a key and serialize; distinct kinds sweep in parallel.
  WorldCache cache;
  std::vector<OpenLoopConfig> configs;
  for (auto kind : kinds) {
    for (double scale : kSweepScales) {
      configs.push_back(ScaleArrivals(MakeConfig(kind), scale));
    }
  }
  const auto sweep = RunSweep<OpenLoopConfig, OpenLoopResult>(
      configs,
      [&cache](const OpenLoopConfig& c) { return RunOpenLoop(c, &cache); });

  std::vector<KindRun> runs;
  for (size_t k = 0; k < 3; k++) {
    KindRun kr;
    kr.kind = kinds[k];
    kr.sweep.assign(sweep.begin() + k * kNumScales,
                    sweep.begin() + (k + 1) * kNumScales);
    CapacitySearch search;
    search.lo_scale = 0.25;
    search.hi_scale = 4.0;
    search.iters = 5;
    kr.capacity = FindSloCapacity(MakeConfig(kinds[k]), search, &cache);
    runs.push_back(std::move(kr));
  }

  // Chaos under peak: the canonical mixed-fault schedule hits the CXL pool
  // at 2x base load (past the SLO knee under faults, inside raw capacity).
  OpenLoopConfig chaos_cfg = ScaleArrivals(MakeConfig(kinds[0]), 2.0);
  chaos_cfg.plan = CanonicalChaosPlan(chaos_cfg.measure);
  const OpenLoopResult chaos = RunOpenLoop(chaos_cfg, &cache);

  ReportTable curve("Goodput vs offered rate (K-ops/s; * = SLO met)",
                    {"scale", "cxl", "cxl p99us", "dram", "dram p99us",
                     "rdma", "rdma p99us"});
  for (size_t i = 0; i < kNumScales; i++) {
    std::vector<std::string> row = {Fmt(kSweepScales[i], 2)};
    for (size_t k = 0; k < 3; k++) {
      const OpenLoopResult& r = runs[k].sweep[i];
      row.push_back(Fmt(r.goodput / 1000, 1) + (r.slo_met ? "*" : ""));
      row.push_back(Fmt(static_cast<double>(r.p99) / 1e3, 0));
    }
    curve.AddRow(row);
  }
  curve.Print();

  ReportTable cap("Capacity search (max sustained arrival rate before SLO "
                  "violation)",
                  {"pool", "scale", "offered K/s", "goodput K/s", "p99 us",
                   "loss"});
  for (const KindRun& kr : runs) {
    cap.AddRow({ChaosPoolName(kr.kind), Fmt(kr.capacity.scale, 2),
                Fmt(kr.capacity.offered_rate / 1000, 0),
                Fmt(kr.capacity.result.goodput / 1000, 0),
                Fmt(static_cast<double>(kr.capacity.result.p99) / 1e3, 0),
                Fmt(kr.capacity.result.loss_fraction, 4)});
  }
  cap.Print();

  ReportTable timeline("Chaos under peak (cxl pool, 2x load): K-ops/s per "
                       "bucket",
                       {"t (ms)", "ok", "failed", "shed"});
  for (size_t b = 0; b < chaos.ok.num_buckets(); b++) {
    const double t_ms = static_cast<double>(b) *
                        static_cast<double>(chaos.ok.bucket_width()) / 1e6;
    timeline.AddRow({Fmt(t_ms, 0), Fmt(chaos.ok.RatePerSec(b) / 1000, 1),
                     std::to_string(chaos.failed.bucket(b)),
                     std::to_string(chaos.shed.bucket(b))});
  }
  timeline.Print();

  std::printf("chaos under peak: goodput %.0f K/s, p99 %.0f us, "
              "shed %llu+%llu, failed %llu, degraded %llu\n",
              chaos.goodput / 1000, static_cast<double>(chaos.p99) / 1e3,
              static_cast<unsigned long long>(chaos.shed_queue),
              static_cast<unsigned long long>(chaos.shed_deadline),
              static_cast<unsigned long long>(chaos.failed_ops),
              static_cast<unsigned long long>(chaos.degraded_fetches));

  WriteJson(runs, chaos);

  // Determinism gate: the scale-1.0 sweep point's lane_steps per pool plus
  // the chaos-under-peak run. Open-loop schedules and the serving
  // interleave must be bit-identical for any sweep/world thread count.
  const size_t base_idx = 2;  // kSweepScales[2] == 1.0
  return CheckPins(
      "slo_capacity",
      {Pin("cxl lane_steps", runs[0].sweep[base_idx].lane_steps, pins::kSlo[0]),
       Pin("dram lane_steps", runs[1].sweep[base_idx].lane_steps,
           pins::kSlo[1]),
       Pin("tiered_rdma lane_steps", runs[2].sweep[base_idx].lane_steps,
           pins::kSlo[2]),
       Pin("chaos-under-peak lane_steps", chaos.lane_steps, pins::kSlo[3])});
}

}  // namespace
}  // namespace polarcxl::bench

int main() { return polarcxl::bench::Main(); }
