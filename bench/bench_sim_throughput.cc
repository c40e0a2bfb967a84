// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Simulation-core throughput microbench: how fast does the virtual-time
// simulator itself run on this host? Every figure/table bench is bounded by
// this number, so its trajectory is tracked across PRs in
// BENCH_sim_throughput.json (committed at the repo root).
//
// Workload: the Figure 7 8-instance sysbench point-select pooling point
// (both the PolarCXLMem/CXL and tiered-RDMA configurations). Metrics:
//   - lane-steps/sec: executor steps retired per second of compute
//   - virtual-ns per wall-ns: how much simulated time one second buys
// Time is thread CPU time, not wall time: the experiment is single-threaded,
// so the two agree on an idle machine, but CPU time stays meaningful on a
// contended CI box where wall time mostly measures preemption by other
// tenants. Best-of-N repetitions is reported to shave remaining noise.
//
// Reps share one WorldCache: rep 1 builds + loads + warms the world cold
// and snapshots it; later reps fork the snapshot and enter the measurement
// window directly. Every rep must retire bit-identical lane_steps — a
// forked world that diverges from the cold one fails the bench — so the
// repetitions double as the snapshot determinism gate. The setup-vs-measure
// wall split and the amortization from forking are recorded in the JSON.
//
// At the pin scale the bench checks its lane_steps against bench/pins.h:
// the epoch pins when the run executed epochs (POLAR_WORLD_THREADS >= 1),
// the serial pins otherwise; a POLAR_PROF build also checks the hot-path
// share of profiled time. `bench_sim_throughput scale` runs the scale-cost
// sweep alone (see ScaleMain).
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/prof.h"
#include "harness/instance_driver.h"

namespace polarcxl::bench {
namespace {

/// One rep: its counters and the thread CPU time it took.
struct ThroughputSample {
  harness::RunStats run;
  double wall_sec = 0;
  double StepsPerSec() const {
    return static_cast<double>(run.lane_steps) / wall_sec;
  }
  double VirtualPerWall() const {
    return static_cast<double>(run.virtual_end) / (wall_sec * 1e9);
  }
};

/// All reps of one configuration: the cold (first) sample, the best sample,
/// and the aggregate wall time actually spent vs what cold-building every
/// rep would have cost.
struct RepSeries {
  ThroughputSample cold;
  ThroughputSample best;
  double fork_setup_wall_sec = 0;  // cheapest forked setup (0: no fork ran)
  double actual_wall_sec = 0;
  double cold_wall_sec_est = 0;  // reps x cold rep cost
};

harness::PoolingConfig BenchConfig(engine::BufferPoolKind kind) {
  harness::PoolingConfig c = harness::Fig7PoolingConfig(kind);
  c.warmup = Scaled(Millis(40));
  c.measure = Scaled(Millis(120));
  return c;
}

ThroughputSample RunOnce(engine::BufferPoolKind kind,
                         harness::WorldCache* cache) {
  const double t0 = harness::ThreadCpuSeconds();
  ThroughputSample s{harness::RunPooling(BenchConfig(kind), cache)};
  s.wall_sec = harness::ThreadCpuSeconds() - t0;
  return s;
}

RepSeries RunReps(engine::BufferPoolKind kind, int reps,
                  harness::WorldCache* cache) {
  RepSeries series;
  for (int i = 0; i < reps; i++) {
    const ThroughputSample s = RunOnce(kind, cache);
    if (i == 0) {
      series.cold = s;
      series.best = s;
    } else {
      // The snapshot determinism gate: a forked rep must retire exactly the
      // cold rep's virtual-time outputs.
      if (s.run.lane_steps != series.cold.run.lane_steps ||
          s.run.virtual_end != series.cold.run.virtual_end) {
        std::fprintf(
            stderr,
            "snapshot fork diverged from cold build: rep %d got "
            "lane_steps=%llu virtual_end=%lld, cold had %llu/%lld\n",
            i + 1, static_cast<unsigned long long>(s.run.lane_steps),
            static_cast<long long>(s.run.virtual_end),
            static_cast<unsigned long long>(series.cold.run.lane_steps),
            static_cast<long long>(series.cold.run.virtual_end));
        std::exit(1);
      }
      if (s.StepsPerSec() > series.best.StepsPerSec()) series.best = s;
    }
    if (s.run.snapshot_hit &&
        (series.fork_setup_wall_sec == 0 ||
         s.run.setup_wall_sec < series.fork_setup_wall_sec)) {
      series.fork_setup_wall_sec = s.run.setup_wall_sec;
    }
    series.actual_wall_sec += s.wall_sec;
  }
  series.cold_wall_sec_est = reps * series.cold.wall_sec;
  return series;
}

// ---------------------------------------------------------------------------
// In-world scaling: lane-steps/sec vs POLAR_WORLD_THREADS
// ---------------------------------------------------------------------------

/// One (instances, threads) cell of the epoch-parallel scaling sweep.
/// steps/sec divides by REAL wall time: thread CPU time only meters the
/// main thread and would credit work the pool's workers did.
struct ScalingPoint {
  uint32_t instances = 0;
  uint32_t threads = 0;
  harness::RunStats run;
  double StepsPerSec() const {
    return run.measure_real_sec > 0
               ? static_cast<double>(run.measure_steps) / run.measure_real_sec
               : 0;
  }
};

/// Sweeps the fig7 CXL pooling point over instance counts x thread counts.
/// One WorldCache per instance count: the threads=1 run builds and warms the
/// world, every other thread count re-shards it via SetThreads — and every
/// cell must retire bit-identical lane_steps (the in-world determinism gate
/// at full scale; a mismatch aborts the bench).
std::vector<ScalingPoint> RunScaling() {
  std::vector<ScalingPoint> points;
  for (uint32_t instances : {8u, 32u, 64u}) {
    harness::WorldCache cache;
    uint64_t pinned = 0;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      harness::PoolingConfig c = BenchConfig(engine::BufferPoolKind::kCxl);
      c.instances = instances;
      c.world_threads = static_cast<int>(threads);
      const harness::PoolingResult r = harness::RunPooling(c, &cache);
      if (threads == 1u) {
        pinned = r.lane_steps;
      } else if (r.lane_steps != pinned) {
        std::fprintf(stderr,
                     "in-world scaling identity violation: %u instances, "
                     "%u threads retired %llu lane_steps, 1 thread retired "
                     "%llu\n",
                     instances, threads,
                     static_cast<unsigned long long>(r.lane_steps),
                     static_cast<unsigned long long>(pinned));
        std::exit(1);
      }
      points.push_back({instances, threads, r});
    }
  }
  return points;
}

void PrintScaling(const std::vector<ScalingPoint>& points) {
  if (points.empty()) return;
  harness::ReportTable table(
      "In-world scaling — fig7 CXL pooling, lane-steps/sec vs threads "
      "(host cpus: " +
          std::to_string(std::thread::hardware_concurrency()) + ")",
      {"instances", "threads", "measure steps", "real s", "steps/sec",
       "epochs", "divergence"});
  for (const ScalingPoint& p : points) {
    table.AddRow({std::to_string(p.instances), std::to_string(p.threads),
                  std::to_string(p.run.measure_steps),
                  harness::Fmt(p.run.measure_real_sec, 3),
                  harness::Fmt(p.StepsPerSec(), 0),
                  std::to_string(p.run.epochs),
                  std::to_string(p.run.drain_divergence)});
  }
  table.Print();
}

// ---------------------------------------------------------------------------
// Scale cost: scheduler + channel-ledger work per lane-step vs instance count
// ---------------------------------------------------------------------------

/// One (instances, mode) cell of the scale-cost sweep. sched_ops and
/// window_advances are measurement-window deltas of the monotone executor
/// and channel diagnostics (see RunStats); divided by measure_steps
/// they give the per-lane-step bookkeeping cost that must stay flat as the
/// world grows. Wall time is reported honestly alongside but the counters
/// are the primary evidence — this host is too small/noisy for wall-clock
/// to gate anything.
struct ScaleCostPoint {
  uint32_t instances = 0;
  bool epoch = false;
  harness::RunStats run;
  /// Process peak RSS once this point has run. Points run in increasing
  /// size, so each row records what the largest world so far cost.
  double peak_rss_mb = 0;
  double PerStep(uint64_t count) const {
    return run.measure_steps > 0
               ? static_cast<double>(count) / run.measure_steps
               : 0;
  }
  double SchedOpsPerStep() const { return PerStep(run.sched_ops); }
  double WindowAdvPerStep() const { return PerStep(run.window_advances); }
};

/// Pre-PR per-step costs at full scale, measured on the binary-heap
/// scheduler and eager window ledger immediately before the timing-wheel /
/// lazy-window rewrite (same workload, same counters). Committed here so
/// the JSON reports the counter-gated win without rebuilding old code.
struct ScaleBaseline {
  uint32_t instances;
  bool epoch;
  double sched_ops_per_step;
  double window_adv_per_step;
};
constexpr ScaleBaseline kPrePrBaseline[] = {
    {8, false, 6.05, 1.2311},   {8, true, 15.11, 1.2311},
    {32, false, 8.01, 0.0181},  {32, true, 17.07, 0.0181},
    {64, false, 9.01, 0.0091},  {64, true, 18.06, 0.0091},
    {256, false, 11.00, 0.0023}, {256, true, 20.06, 0.0024},
};

const ScaleBaseline* BaselineFor(uint32_t instances, bool epoch) {
  for (const ScaleBaseline& b : kPrePrBaseline) {
    if (b.instances == instances && b.epoch == epoch) return &b;
  }
  return nullptr;
}

/// Sweeps the fig7 CXL pooling point over instance counts, serial and
/// epoch-parallel (1 worker — counter totals, not speed, are the object).
/// Short 40 ms windows: cold-building a 256-instance world dominates the
/// cost anyway, and per-step ratios converge within a few thousand steps.
/// No WorldCache: one rep per point, and holding a 256-instance world would
/// only add memory pressure.
std::vector<ScaleCostPoint> RunScaleCost(const std::vector<uint32_t>& counts) {
  std::vector<ScaleCostPoint> points;
  for (uint32_t instances : counts) {
    for (int mode = 0; mode < 2; mode++) {
      const bool epoch = mode == 1;
      harness::PoolingConfig c = BenchConfig(engine::BufferPoolKind::kCxl);
      c.instances = instances;
      c.measure = Scaled(Millis(40));
      c.world_threads = epoch ? 1 : 0;
      const harness::PoolingResult r = harness::RunPooling(c, nullptr);
      rusage ru;
      getrusage(RUSAGE_SELF, &ru);
      const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
      points.push_back({instances, epoch, r, rss_mb});
    }
  }
  return points;
}

void PrintScaleCost(const std::vector<ScaleCostPoint>& points) {
  if (points.empty()) return;
  harness::ReportTable table(
      "Scale cost — fig7 CXL pooling, scheduler/channel work per lane-step "
      "(host cpus: " +
          std::to_string(std::thread::hardware_concurrency()) + ")",
      {"instances", "mode", "measure steps", "sched ops/step", "window adv/step",
       "real s", "peak rss MB"});
  for (const ScaleCostPoint& p : points) {
    table.AddRow({std::to_string(p.instances), p.epoch ? "epoch" : "serial",
                  std::to_string(p.run.measure_steps),
                  harness::Fmt(p.SchedOpsPerStep(), 2),
                  harness::Fmt(p.WindowAdvPerStep(), 4),
                  harness::Fmt(p.run.measure_real_sec, 3),
                  harness::Fmt(p.peak_rss_mb, 0)});
  }
  table.Print();
}

/// Fraction of profiled self CPU time spent in the two hot-path domains
/// (engine + cache_sim). This is the regression surface of the
/// static-dispatch / SIMD-kernel work: if the pool re-virtualizes or a
/// probe path bloats, these domains grow relative to the rest of the
/// simulator. Only meaningful on a POLAR_PROF build.
double HotSelfShare() {
  double hot = 0;
  double sum = 0;
  for (const prof::DomainTotals& t : prof::Collect()) {
    sum += t.self_sec;
    if (std::strcmp(t.name, "engine") == 0 ||
        std::strcmp(t.name, "cache_sim") == 0) {
      hot += t.self_sec;
    }
  }
  return sum > 0 ? hot / sum : 0;
}

/// Per-domain self/total CPU breakdown. The profiler covers the whole
/// process (setup + warmup + every rep of both configs) — it answers
/// "where do simulator cycles go", not "what did one rep cost".
void PrintProfReport() {
  if (!prof::kEnabled) return;
  const std::vector<prof::DomainTotals> totals = prof::Collect();
  double self_sum = 0;
  for (const prof::DomainTotals& t : totals) self_sum += t.self_sec;
  harness::ReportTable table(
      "Profiler breakdown (POLAR_PROF build; whole process)",
      {"domain", "calls", "self s", "self %", "total s"});
  for (const prof::DomainTotals& t : totals) {
    if (t.calls == 0) continue;
    table.AddRow({t.name, std::to_string(t.calls), harness::Fmt(t.self_sec, 3),
                  harness::Fmt(self_sum > 0 ? 100.0 * t.self_sec / self_sum : 0,
                               1),
                  harness::Fmt(t.total_sec, 3)});
  }
  table.Print();
}

using Layout = harness::JsonWriter::Layout;

void WriteConfigJson(harness::JsonWriter& w, const char* name,
                     const RepSeries& s) {
  w.Key(name)
      .BeginObject()
      .Field("lane_steps", s.best.run.lane_steps)
      .Field("wall_sec", s.best.wall_sec, 4)
      .Field("lane_steps_per_sec", s.best.StepsPerSec(), 0)
      .Field("virtual_ns_per_wall_ns", s.best.VirtualPerWall(), 4)
      .Field("setup_wall_sec", s.best.run.setup_wall_sec, 4)
      .Field("measure_wall_sec", s.best.run.measure_wall_sec, 4)
      .Field("snapshot_hit", s.best.run.snapshot_hit)
      .Field("cold_setup_wall_sec", s.cold.run.setup_wall_sec, 4)
      .Field("fork_setup_wall_sec", s.fork_setup_wall_sec, 4)
      .EndObject();
}

void WriteScalingJson(harness::JsonWriter& w,
                      const std::vector<ScalingPoint>& points) {
  w.Key("in_world_scaling")
      .BeginObject()
      .Field("workload",
             "fig7 point-select pooling (cxl), 8 lanes/instance, "
             "POLAR_WORLD_THREADS sweep")
      .Key("points")
      .BeginArray();
  for (const ScalingPoint& p : points) {
    w.BeginObject(Layout::kInline)
        .Field("instances", p.instances)
        .Field("threads", p.threads)
        .Field("lane_steps", p.run.lane_steps)
        .Field("measure_steps", p.run.measure_steps)
        .Field("measure_real_sec", p.run.measure_real_sec, 4)
        .Field("steps_per_sec", p.StepsPerSec(), 0)
        .Field("epochs", p.run.epochs)
        .Field("drain_divergence", p.run.drain_divergence)
        .EndObject();
  }
  w.EndArray().EndObject();
}

void WriteScaleCostJson(harness::JsonWriter& w,
                        const std::vector<ScaleCostPoint>& points) {
  w.Key("scale_cost")
      .BeginObject()
      .Field("workload",
             "fig7 point-select pooling (cxl), 8 lanes/instance, 40ms "
             "warmup + 40ms measure, serial vs epoch-parallel (1 worker)")
      .Field("note",
             "sched_ops and window_advances are measurement-window counter "
             "deltas; per-step ratios are the gated evidence, wall time is "
             "reported honestly but moves with host load; peak_rss_mb is the "
             "process peak once the point has run (points run in increasing "
             "size)")
      .Key("baseline")
      .BeginObject()
      .Field("note",
             "pre-PR binary-heap scheduler + eager window ledger, same "
             "workload and counters")
      .Key("points")
      .BeginArray();
  for (const ScaleBaseline& b : kPrePrBaseline) {
    w.BeginObject(Layout::kInline)
        .Field("instances", b.instances)
        .Field("mode", b.epoch ? "epoch" : "serial")
        .Field("sched_ops_per_step", b.sched_ops_per_step, 2)
        .Field("window_advances_per_step", b.window_adv_per_step, 4)
        .EndObject();
  }
  w.EndArray().EndObject().Key("points").BeginArray();
  for (const ScaleCostPoint& p : points) {
    const ScaleBaseline* b = BaselineFor(p.instances, p.epoch);
    const double win =
        (b != nullptr && p.SchedOpsPerStep() > 0)
            ? b->sched_ops_per_step / p.SchedOpsPerStep()
            : 0;
    w.BeginObject(Layout::kInline)
        .Field("instances", p.instances)
        .Field("mode", p.epoch ? "epoch" : "serial")
        .Field("lane_steps", p.run.lane_steps)
        .Field("measure_steps", p.run.measure_steps)
        .Field("sched_ops", p.run.sched_ops)
        .Field("window_advances", p.run.window_advances)
        .Field("sched_ops_per_step", p.SchedOpsPerStep(), 2)
        .Field("window_advances_per_step", p.WindowAdvPerStep(), 4)
        .Field("sched_ops_win_vs_baseline", win, 2)
        .Field("measure_real_sec", p.run.measure_real_sec, 4)
        .Field("peak_rss_mb", p.peak_rss_mb, 1)
        .EndObject();
  }
  w.EndArray().EndObject();
}

void WriteJson(const RepSeries& cxl, const RepSeries& rdma, int reps,
               const std::vector<ScalingPoint>& scaling,
               const std::vector<ScaleCostPoint>& scale_cost) {
  harness::JsonWriter w("sim_throughput",
                        "8-instance sysbench point-select pooling (fig7 "
                        "point), 8 lanes/instance",
                        BenchScale());
  w.Field("reps", reps);
  WriteConfigJson(w, "cxl", cxl);
  WriteConfigJson(w, "tiered_rdma", rdma);
  if (!scaling.empty()) WriteScalingJson(w, scaling);
  if (!scale_cost.empty()) WriteScaleCostJson(w, scale_cost);
  // World snapshot/fork amortization over all reps of both configs: what
  // cold-building every rep would cost vs what the cache-backed reps
  // actually cost (rep 1 of each config is a real cold build, so the
  // estimate is measured, not modeled).
  const double cold_est = cxl.cold_wall_sec_est + rdma.cold_wall_sec_est;
  const double actual = cxl.actual_wall_sec + rdma.actual_wall_sec;
  w.Key("snapshot_amortization")
      .BeginObject()
      .Field("cold_wall_sec_est", cold_est, 4)
      .Field("actual_wall_sec", actual, 4)
      .Field("speedup", actual > 0 ? cold_est / actual : 0.0, 2)
      .EndObject();
  w.Commit();
}

/// `bench_sim_throughput scale` (tools/check.sh --scale): the scale-cost
/// sweep alone, never written to JSON. At the pin scale it runs the
/// 64-instance pair and checks its serial and epoch lane_steps plus the
/// sched-ops-per-step ceiling, so an O(log lanes) or O(lanes) scheduler
/// regression fails even where wall time on a loaded runner would hide it.
/// At any other scale it sweeps 8/32/64/256 instances and only prints (how
/// the committed baseline constants were measured).
int ScaleMain() {
  if (BenchScale() != pins::kScale) {
    PrintScaleCost(RunScaleCost({8u, 32u, 64u, 256u}));
    return CheckPins("sim_throughput scale", {});
  }
  const std::vector<ScaleCostPoint> points = RunScaleCost({64u});
  PrintScaleCost(points);
  const ScaleCostPoint& serial = points[0];
  const ScaleCostPoint& epoch = points[1];
  return CheckPins(
      "sim_throughput scale",
      {Pin("64-instance serial lane_steps", serial.run.lane_steps,
           pins::kScale64.serial),
       Pin("64-instance epoch lane_steps", epoch.run.lane_steps,
           pins::kScale64.epoch),
       Ceiling("serial sched ops/step", serial.SchedOpsPerStep(),
               pins::kMaxSchedOpsPerStep),
       Ceiling("epoch sched ops/step", epoch.SchedOpsPerStep(),
               pins::kMaxSchedOpsPerStep)});
}

int Main(int argc, char** argv) {
  const bool scale_mode = argc == 2 && std::strcmp(argv[1], "scale") == 0;
  if (argc > 1 && !scale_mode) {
    std::fprintf(stderr, "usage: %s [scale]\n", argv[0]);
    return 2;
  }
  PrintHeader("sim-core throughput",
              "n/a (infrastructure bench: lane-steps/sec of the simulator)");
  if (scale_mode) return ScaleMain();
  // Five reps by default: forked reps cost roughly the measurement window
  // alone, so extra repetitions are nearly free and shave best-of noise.
  const int reps = BenchReps(5);

  harness::WorldCache cache;
  const RepSeries cxl = RunReps(engine::BufferPoolKind::kCxl, reps, &cache);
  const RepSeries rdma =
      RunReps(engine::BufferPoolKind::kTieredRdma, reps, &cache);

  harness::ReportTable table(
      "Simulator throughput — best of " + std::to_string(reps),
      {"config", "lane-steps", "wall s", "setup s", "measure s", "fork",
       "steps/sec", "vns/wns"});
  auto row = [&](const char* name, const RepSeries& s) {
    table.AddRow({name, std::to_string(s.best.run.lane_steps),
                  harness::Fmt(s.best.wall_sec, 3),
                  harness::Fmt(s.best.run.setup_wall_sec, 3),
                  harness::Fmt(s.best.run.measure_wall_sec, 3),
                  s.best.run.snapshot_hit ? "yes" : "no",
                  harness::Fmt(s.best.StepsPerSec(), 0),
                  harness::Fmt(s.best.VirtualPerWall(), 4)});
  };
  row("cxl", cxl);
  row("tiered_rdma", rdma);
  table.Print();
  if (reps > 1) {
    const double cold_est = cxl.cold_wall_sec_est + rdma.cold_wall_sec_est;
    const double actual = cxl.actual_wall_sec + rdma.actual_wall_sec;
    std::printf(
        "snapshot amortization: %.2fs cold-per-rep -> %.2fs with forks "
        "(%.2fx)\n",
        cold_est, actual, actual > 0 ? cold_est / actual : 0.0);
  }
  PrintProfReport();

  // In-world scaling sweep (epoch-parallel executor): full-scale runs only —
  // it is the expensive part of the bench, and quick passes gate identity
  // through parallel_world_test / tools/check.sh --parallel instead.
  std::vector<ScalingPoint> scaling;
  std::vector<ScaleCostPoint> scale_cost;
  if (BenchScale() == 1.0) {
    scaling = RunScaling();
    PrintScaling(scaling);
    // Scale-cost sweep: bookkeeping work per lane-step at 8..256 instances,
    // gated against the committed pre-PR baseline (counters, not wall time).
    scale_cost = RunScaleCost({8u, 32u, 64u, 256u});
    PrintScaleCost(scale_cost);
  }
  WriteJson(cxl, rdma, reps, scaling, scale_cost);

  // lane_steps is pure virtual-time output, so it must not move with host
  // speed, only with semantic changes to the simulation; forked reps are
  // held to the same pin. Runs that executed epochs take the epoch pins.
  const bool epoch = cxl.best.run.epochs > 0;
  const pins::Fig7& pin = epoch ? pins::kFig7Epoch : pins::kFig7Serial;
  const std::string mode = epoch ? "fig7 epoch " : "fig7 serial ";
  std::vector<PinnedValue> values = {
      Pin(mode + "cxl lane_steps", cxl.best.run.lane_steps, pin.cxl),
      Pin(mode + "tiered_rdma lane_steps", rdma.best.run.lane_steps,
          pin.tiered_rdma)};
  if (prof::kEnabled) {
    values.push_back(Ceiling("engine+cache_sim self share", HotSelfShare(),
                             pins::kMaxHotShare));
  }
  return CheckPins("sim_throughput", values);
}

}  // namespace
}  // namespace polarcxl::bench

int main(int argc, char** argv) {
  return polarcxl::bench::Main(argc, argv);
}
