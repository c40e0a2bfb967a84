#include "harness/chaos_driver.h"

#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/executor.h"

namespace polarcxl::harness {

namespace {

/// Lane bookkeeping referenced by the executor lambdas; heap-stable because
/// a cached world outlives every run that forks it.
struct ChaosLaneState {
  ChaosLaneState(engine::Database* db, uint32_t rows, uint64_t seed)
      : op(db, rows, seed) {}
  PointOpLane op;
  double write_fraction = 0;
  Nanos error_backoff = 0;
  ChaosResult* result = nullptr;
  // Sentinel start (max Nanos): before the window opens nothing reaches
  // the sentinel, so the lane lambda needs no "window set?" branch.
  Nanos window_start = std::numeric_limits<Nanos>::max();
  Nanos window_end = -1;
};

/// A chaos world: the simulated host (fault injector wired but disarmed)
/// and its lanes.
struct ChaosWorld : CachedWorld {
  using CachedWorld::CachedWorld;
  void CaptureLanes() override {
    for (auto& state : lane_states) state->op.Capture();
  }
  void RestoreLanes() override {
    for (auto& state : lane_states) state->op.Restore();
  }

  std::vector<std::unique_ptr<ChaosLaneState>> lane_states;
  ChaosResult result;  // lane lambdas point here; re-initialized per run
};

SimWorld::Spec SpecFor(const ChaosConfig& config) {
  SimWorld::Spec spec;
  spec.kind = config.kind;
  spec.instances = 1;
  spec.sysbench = config.sysbench;
  spec.lbp_fraction = config.lbp_fraction;
  spec.cpu_cache_bytes = config.cpu_cache_bytes;
  spec.wire_faults = true;  // injector wired but disarmed through warmup
  return spec;
}

/// The lane settings that shape the world before the plan is armed (the
/// spec and warmup are keyed by WorldRun). The plan, measure window and
/// timeline bucket are per-run.
std::string ChaosKey(const ChaosConfig& c) {
  std::ostringstream os;
  os << "chaos:" << c.lanes << ':' << c.write_fraction << ':'
     << c.error_backoff << ':' << c.checkpoint_interval << ':' << c.seed;
  return os.str();
}

std::unique_ptr<CachedWorld> BuildChaosWorld(const ChaosConfig& config,
                                             const SimWorld::Spec& spec) {
  auto cw = std::make_unique<ChaosWorld>(spec);
  SimWorld& world = cw->world;
  sim::Executor& executor = world.executor();
  executor.ReserveLanes(config.lanes);
  engine::Database* db = world.db(0);

  for (uint32_t l = 0; l < config.lanes; l++) {
    auto state = std::make_unique<ChaosLaneState>(
        db, config.sysbench.rows_per_table, config.seed + l);
    state->write_fraction = config.write_fraction;
    state->error_backoff = config.error_backoff;
    state->result = &cw->result;
    ChaosLaneState* raw = state.get();
    cw->lane_states.push_back(std::move(state));
    executor.AddLane(
        [raw](sim::ExecContext& ctx) {
          const Nanos start = ctx.now;
          const Status s = raw->op.Run(ctx, raw->write_fraction);
          if (start >= raw->window_start && ctx.now <= raw->window_end) {
            if (s.ok()) {
              raw->result->ok.Add(ctx.now - raw->window_start);
              raw->result->ok_ops++;
            } else {
              raw->result->failed.Add(ctx.now - raw->window_start);
              raw->result->failed_ops++;
            }
          }
          if (!s.ok()) ctx.Advance(raw->error_backoff);
          return true;
        },
        SimWorld::InstanceNode(0), db->cache(), world.setup_end());
  }
  AddCheckpointLane(world, 0, config.checkpoint_interval);
  // A node crash takes the whole instance down: every lane freezes.
  cw->lane_span.emplace_back(
      0, static_cast<uint32_t>(executor.num_lanes()) - 1);
  return cw;
}
}  // namespace

const char* ChaosPoolName(engine::BufferPoolKind kind) {
  switch (kind) {
    case engine::BufferPoolKind::kDram:
      return "dram";
    case engine::BufferPoolKind::kCxl:
      return "cxl";
    case engine::BufferPoolKind::kTieredRdma:
      return "tiered_rdma";
  }
  return "?";
}

faults::FaultPlan CanonicalChaosPlan(Nanos measure) {
  using faults::FaultEvent;
  using faults::FaultKind;
  const double m = static_cast<double>(measure);
  const auto frac = [m](double f) { return static_cast<Nanos>(m * f); };

  faults::FaultPlan plan;
  plan.seed = 7;
  // Full CXL outage: the CXL pool must degrade to storage reads, not crash.
  plan.Add({FaultKind::kCxlDown, frac(0.20), frac(0.35)});
  // NIC brownout overlapping the tail of the outage: the tiered baseline
  // loses its remote tier, the verbs retry path kicks in.
  plan.Add({FaultKind::kNicDown, frac(0.30), frac(0.40)});
  // Transient flakiness: seeded probability window, exercises per-lane
  // draw determinism.
  {
    FaultEvent e{FaultKind::kCxlFlaky, frac(0.45), frac(0.55)};
    e.probability = 0.2;
    plan.Add(e);
  }
  // Link degradation: latency adder + per-KB tax, throughput dips but no
  // failures.
  {
    FaultEvent e{FaultKind::kNicDegrade, frac(0.55), frac(0.70)};
    e.extra_latency = Micros(4);
    e.per_kb_ns = 40.0;
    plan.Add(e);
  }
  {
    FaultEvent e{FaultKind::kCxlDegrade, frac(0.58), frac(0.66)};
    e.extra_latency = 300;
    e.per_kb_ns = 25.0;
    plan.Add(e);
  }
  // Disk stall at the end: hits every pool's storage fallback path.
  {
    FaultEvent e{FaultKind::kDiskStall, frac(0.75), frac(0.85)};
    e.extra_latency = Micros(300);
    plan.Add(e);
  }
  plan.Normalize();
  return plan;
}

ChaosResult RunChaos(const ChaosConfig& config, WorldCache* cache) {
  // Warm-up runs fault-free: the injector is wired but disarmed.
  WorldRun run(cache, SpecFor(config), ChaosKey(config), config.world_threads,
               config.warmup, config.measure,
               [&config](const SimWorld::Spec& spec, bool /*epoch*/) {
                 return BuildChaosWorld(config, spec);
               });
  ChaosWorld& cw = run.get<ChaosWorld>();
  // The world-owned result the lane lambdas point at. Warmup never records
  // (sentinel windows), so initializing it here covers both paths.
  cw.result = ChaosResult();
  cw.result.ok = TimeSeries(config.bucket);
  cw.result.failed = TimeSeries(config.bucket);
  for (auto& state : cw.lane_states) {
    state->window_start = run.t0();
    state->window_end = run.t1();
  }
  run.Measure(&config.plan, &cw.result);
  return cw.result;
}

}  // namespace polarcxl::harness
