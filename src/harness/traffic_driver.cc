#include "harness/traffic_driver.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/executor.h"

namespace polarcxl::harness {

namespace {

/// Retries per admitted op: total attempts = 1 + kOpRetries.
constexpr int kOpRetries = 1;
/// Virtual cost of shedding one op at the deadline check (routing +
/// rejection write). Being positive, it also keeps a backlog of expired ops
/// that drains at one timestamp advancing.
constexpr Nanos kShedCost = 200;
/// A run meets the SLO only if shed plus failed ops stay within this
/// fraction of the offered ones.
constexpr double kMaxLossFraction = 0.05;

/// Per-instance run state: the admission queue, the merged arrival
/// schedule (client-lane cursor), instance-local timelines and the
/// closed-loop op counts. Owned by the cached world via unique_ptr so lane
/// lambdas hold stable pointers; rebuilt from the config at the start of
/// every run. In epoch-parallel mode all of an instance's lanes share one
/// group, so this state is only ever touched by one shard — no cross-thread
/// races by construction.
struct InstanceRun {
  AdmissionQueue queue;
  std::vector<AdmittedOp> schedule;  // absolute times, sorted
  size_t next = 0;                   // client-lane cursor
  TimeSeries ok{Millis(10)};
  TimeSeries failed{Millis(10)};
  TimeSeries shed{Millis(10)};
  uint64_t ok_ops = 0;
  uint64_t failed_ops = 0;
};

/// Per-tenant run parameters + accounting (a tenant routes to exactly one
/// instance, so its stats are single-writer even in epoch mode).
struct TenantRun {
  QosClass qos = QosClass::kBestEffort;
  double write_fraction = 0.25;
  TenantStats stats;
};

/// Per-run parameters shared by every lane, overwritten before each
/// measurement window (the world key excludes all of it).
struct OpenLoopShared {
  std::vector<TenantRun> tenants;
  // Sentinel window (start at max Nanos): a cold build's warm-up runs
  // before the first window is set, and nothing reaches the sentinel.
  Nanos t0 = std::numeric_limits<Nanos>::max();
  Nanos t1 = -1;
  Nanos slo_latency = 0;
  Nanos deadline[kNumQosClasses] = {0, 0};
  Nanos error_backoff = 0;
};

/// Client-lane bookkeeping (one per instance): walks the merged schedule,
/// offering each arrival to the admission queue at its exact timestamp.
struct ClientLaneState {
  InstanceRun* inst = nullptr;
  OpenLoopShared* shared = nullptr;
};

/// Server-lane bookkeeping: the closed-loop mix before `open_after`, then
/// pop-admit-serve with deadline shedding and bounded retries.
struct ServerLaneState {
  ServerLaneState(engine::Database* db, uint32_t rows, uint64_t seed)
      : op(db, rows, seed) {}
  PointOpLane op;
  InstanceRun* inst = nullptr;
  OpenLoopShared* shared = nullptr;
  double closed_loop_write_fraction = 0.25;
  /// Warm-up/open-loop boundary, fixed at build; max Nanos (never) in a
  /// closed-loop world.
  Nanos open_after = 0;
};

struct OpenLoopWorld : CachedWorld {
  using CachedWorld::CachedWorld;
  void CaptureLanes() override {
    for (auto& state : server_states) state->op.Capture();
  }
  void RestoreLanes() override {
    for (auto& state : server_states) state->op.Restore();
  }

  OpenLoopShared shared;
  std::vector<std::unique_ptr<InstanceRun>> inst_runs;
  std::vector<std::unique_ptr<ClientLaneState>> client_states;
  std::vector<std::unique_ptr<ServerLaneState>> server_states;
};

SimWorld::Spec SpecFor(const OpenLoopConfig& config) {
  SimWorld::Spec spec;
  spec.kind = config.kind;
  spec.instances = config.instances;
  spec.sysbench = config.sysbench;
  spec.lbp_fraction = config.lbp_fraction;
  spec.cpu_cache_bytes = config.cpu_cache_bytes;
  spec.verbs_retry_budget = config.verbs_retry_budget;
  spec.wire_faults = true;
  return spec;
}

/// The lane settings that shape the world through warmup (the spec and
/// warmup are keyed by WorldRun). Tenants, rates, plan, deadlines, SLO,
/// retries and the measure window are all per-run — one warmed world serves
/// an entire rate sweep. Only whether there are tenants is keyed: it sets
/// the lane layout.
std::string OpenLoopKey(const OpenLoopConfig& c) {
  std::ostringstream os;
  os << (c.tenants.empty() ? "closedloop:" : "openloop:")
     << c.lanes_per_instance << ':' << c.closed_loop_write_fraction << ':'
     << c.checkpoint_interval << ':' << c.seed;
  return os.str();
}

std::unique_ptr<CachedWorld> BuildOpenLoopWorld(const OpenLoopConfig& config,
                                                const SimWorld::Spec& spec) {
  auto cw = std::make_unique<OpenLoopWorld>(spec);
  SimWorld& world = cw->world;
  sim::Executor& executor = world.executor();
  executor.ReserveLanes(config.instances * (config.lanes_per_instance + 2));
  const Nanos setup_end = world.setup_end();
  const bool closed_loop = config.tenants.empty();
  const Nanos open_after = closed_loop ? std::numeric_limits<Nanos>::max()
                                       : setup_end + config.warmup;

  for (uint32_t i = 0; i < config.instances; i++) {
    engine::Database* db = world.db(i);
    const NodeId node = SimWorld::InstanceNode(i);
    auto inst = std::make_unique<InstanceRun>();
    InstanceRun* ir = inst.get();
    cw->inst_runs.push_back(std::move(inst));
    const auto first_lane = static_cast<uint32_t>(executor.num_lanes());

    if (!closed_loop) {
      // Client lane first: on a clock tie with a server lane its lower id
      // steps first, so arrivals at time T are enqueued before any server
      // pops at T. Starts exactly at the window open (inert through
      // warmup), which also pins MinClock(open_after) == open_after for
      // every run.
      auto client = std::make_unique<ClientLaneState>();
      client->inst = ir;
      client->shared = &cw->shared;
      ClientLaneState* craw = client.get();
      cw->client_states.push_back(std::move(client));
      executor.AddLane(
          [craw](sim::ExecContext& ctx) {
            InstanceRun& inst = *craw->inst;
            if (inst.next >= inst.schedule.size()) return false;  // park
            while (inst.next < inst.schedule.size() &&
                   inst.schedule[inst.next].arrival <= ctx.now) {
              const AdmittedOp op = inst.schedule[inst.next++];
              TenantRun& tr = craw->shared->tenants[op.tenant];
              tr.stats.offered++;
              if (inst.queue.Offer(tr.qos, op)) {
                tr.stats.admitted++;
              } else {
                tr.stats.shed_queue++;
                inst.shed.Add(ctx.now - craw->shared->t0);
              }
            }
            if (inst.next >= inst.schedule.size()) return false;
            ctx.Advance(inst.schedule[inst.next].arrival - ctx.now);
            return true;
          },
          node, db->cache(), open_after);
      AddCheckpointLane(world, i, config.checkpoint_interval);
    }

    for (uint32_t l = 0; l < config.lanes_per_instance; l++) {
      auto state = std::make_unique<ServerLaneState>(
          db, config.sysbench.rows_per_table,
          config.seed + i * config.lanes_per_instance + l);
      state->inst = ir;
      state->shared = &cw->shared;
      state->closed_loop_write_fraction = config.closed_loop_write_fraction;
      state->open_after = open_after;
      ServerLaneState* raw = state.get();
      cw->server_states.push_back(std::move(state));
      executor.AddLane(
          [raw](sim::ExecContext& ctx) {
            OpenLoopShared& sh = *raw->shared;
            InstanceRun& inst = *raw->inst;
            if (ctx.now < raw->open_after) {
              // Closed loop: an open-loop run's warm-up (fault-free and over
              // before t0, so it records nothing and never backs off) or
              // the whole of a closed-loop run.
              const Nanos start = ctx.now;
              const Status s =
                  raw->op.Run(ctx, raw->closed_loop_write_fraction);
              if (start >= sh.t0 && ctx.now <= sh.t1) {
                if (s.ok()) {
                  inst.ok.Add(ctx.now - sh.t0);
                  inst.ok_ops++;
                } else {
                  inst.failed.Add(ctx.now - sh.t0);
                  inst.failed_ops++;
                }
              }
              if (!s.ok()) ctx.Advance(sh.error_backoff);
              return true;
            }
            AdmittedOp op;
            if (!inst.queue.Pop(&op)) {
              // Idle: jump to the next scheduled arrival (the client lane
              // wins the clock tie and enqueues it first), or park once
              // the schedule is drained.
              if (inst.next >= inst.schedule.size()) return false;
              const Nanos next_at = inst.schedule[inst.next].arrival;
              ctx.Advance(next_at > ctx.now ? next_at - ctx.now : 1);
              return true;
            }
            TenantRun& tr = sh.tenants[op.tenant];
            const Nanos wait = ctx.now - op.arrival;
            const Nanos deadline = sh.deadline[static_cast<int>(tr.qos)];
            if (deadline > 0 && wait > deadline) {
              // Serving it now would blow the SLO anyway: shed, charge the
              // rejection cost (also guarantees forward progress when a
              // backlog of expired ops drains at one timestamp).
              tr.stats.shed_deadline++;
              if (ctx.now <= sh.t1) inst.shed.Add(ctx.now - sh.t0);
              ctx.Advance(kShedCost);
              return true;
            }
            tr.stats.queue_wait.Add(wait);
            Status s;
            for (int attempt = 0;; attempt++) {
              s = raw->op.Run(ctx, tr.write_fraction);
              if (s.ok() || attempt >= kOpRetries) break;
              tr.stats.retried_ops++;
              ctx.Advance(sh.error_backoff);
            }
            const Nanos latency = ctx.now - op.arrival;
            if (s.ok()) {
              tr.stats.ok_ops++;
              tr.stats.latency.Add(latency);
              if (latency <= sh.slo_latency) tr.stats.ok_in_slo++;
              if (ctx.now <= sh.t1) inst.ok.Add(ctx.now - sh.t0);
            } else {
              // Retries exhausted: the client sees Unavailable; back off
              // before touching the next request.
              tr.stats.failed_ops++;
              if (ctx.now <= sh.t1) inst.failed.Add(ctx.now - sh.t0);
              ctx.Advance(sh.error_backoff);
            }
            return true;
          },
          node, db->cache(), setup_end);
    }
    // A closed-loop world registers its checkpoint lane after the servers.
    // Flaky-fault draws are keyed by lane id, so each mode keeps the lane
    // order its pins were taken with.
    if (closed_loop) AddCheckpointLane(world, i, config.checkpoint_interval);
    // A node crash freezes every lane of the instance.
    cw->lane_span.emplace_back(
        first_lane, static_cast<uint32_t>(executor.num_lanes()) - 1);
  }
  return cw;
}

void MergeSeries(TimeSeries* dst, const TimeSeries& src) {
  for (size_t i = 0; i < src.num_buckets(); i++) {
    if (src.bucket(i) != 0) {
      dst->Add(static_cast<Nanos>(i) * dst->bucket_width(), src.bucket(i));
    }
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(const OpenLoopConfig& config, WorldCache* cache) {
  for (const TenantSpec& t : config.tenants) {
    POLAR_CHECK_MSG(t.instance < config.instances,
                    "tenant routed to a nonexistent instance");
  }
  WorldRun run(cache, SpecFor(config), OpenLoopKey(config),
               config.world_threads, config.warmup, config.measure,
               [&config](const SimWorld::Spec& spec) {
                 return BuildOpenLoopWorld(config, spec);
               });
  OpenLoopWorld& cw = run.get<OpenLoopWorld>();
  const Nanos t0 = run.t0();
  const Nanos t1 = run.t1();

  // ---- per-run state: tenants, schedules, queues (identical for cold and
  // forked worlds; nothing below is in the world key) ----
  OpenLoopShared& sh = cw.shared;
  sh.tenants.clear();
  sh.tenants.resize(config.tenants.size());
  for (size_t t = 0; t < config.tenants.size(); t++) {
    sh.tenants[t].qos = config.tenants[t].qos;
    sh.tenants[t].write_fraction = config.tenants[t].write_fraction;
    sh.tenants[t].stats.name = config.tenants[t].name;
    sh.tenants[t].stats.qos = config.tenants[t].qos;
  }
  sh.t0 = t0;
  sh.t1 = t1;
  sh.slo_latency = config.slo_latency;
  sh.deadline[static_cast<int>(QosClass::kGold)] = config.gold_deadline;
  sh.deadline[static_cast<int>(QosClass::kBestEffort)] =
      config.best_effort_deadline;
  sh.error_backoff = config.error_backoff;

  for (uint32_t i = 0; i < config.instances; i++) {
    InstanceRun& inst = *cw.inst_runs[i];
    inst.queue = AdmissionQueue(config.admission);
    inst.schedule.clear();
    inst.next = 0;
    inst.ok = TimeSeries(config.bucket);
    inst.failed = TimeSeries(config.bucket);
    inst.shed = TimeSeries(config.bucket);
    inst.ok_ops = 0;
    inst.failed_ops = 0;
  }
  for (size_t t = 0; t < config.tenants.size(); t++) {
    const TenantSpec& spec = config.tenants[t];
    const std::vector<Nanos> rel = GenerateArrivals(
        spec.arrivals, config.arrival_seed, static_cast<uint32_t>(t),
        config.measure);
    std::vector<AdmittedOp>& sched = cw.inst_runs[spec.instance]->schedule;
    sched.reserve(sched.size() + rel.size());
    for (Nanos r : rel) sched.push_back({t0 + r, static_cast<uint32_t>(t)});
  }
  for (auto& inst : cw.inst_runs) {
    // Stable tie-break on tenant index: the merge order is part of the
    // determinism contract, not an accident of the sort.
    std::stable_sort(inst->schedule.begin(), inst->schedule.end(),
                     [](const AdmittedOp& a, const AdmittedOp& b) {
                       if (a.arrival != b.arrival) return a.arrival < b.arrival;
                       return a.tenant < b.tenant;
                     });
  }

  OpenLoopResult result;
  run.Measure(&config.plan, &result);

  // ---- merge per-tenant / per-instance accounting in declaration order ----
  result.ok = TimeSeries(config.bucket);
  result.failed = TimeSeries(config.bucket);
  result.shed = TimeSeries(config.bucket);
  result.tenants.reserve(sh.tenants.size());
  for (const TenantRun& tr : sh.tenants) {
    result.tenants.push_back(tr.stats);
    result.offered += tr.stats.offered;
    result.admitted += tr.stats.admitted;
    result.shed_queue += tr.stats.shed_queue;
    result.shed_deadline += tr.stats.shed_deadline;
    result.ok_ops += tr.stats.ok_ops;
    result.ok_in_slo += tr.stats.ok_in_slo;
    result.failed_ops += tr.stats.failed_ops;
    result.retried_ops += tr.stats.retried_ops;
    result.latency.Merge(tr.stats.latency);
    result.queue_wait.Merge(tr.stats.queue_wait);
  }
  for (const auto& inst : cw.inst_runs) {
    MergeSeries(&result.ok, inst->ok);
    MergeSeries(&result.failed, inst->failed);
    MergeSeries(&result.shed, inst->shed);
    result.ok_ops += inst->ok_ops;
    result.failed_ops += inst->failed_ops;
  }
  result.p99 = result.latency.Percentile(99.0);
  const double window_sec =
      static_cast<double>(config.measure) / kNanosPerSec;
  result.goodput = static_cast<double>(result.ok_in_slo) / window_sec;
  result.loss_fraction =
      result.offered == 0
          ? 0.0
          : static_cast<double>(result.shed_queue + result.shed_deadline +
                                result.failed_ops) /
                static_cast<double>(result.offered);
  result.slo_met = !config.tenants.empty() &&
                   result.p99 <= config.slo_latency &&
                   result.loss_fraction <= kMaxLossFraction;
  return result;
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

OpenLoopConfig ScaleArrivals(const OpenLoopConfig& base, double scale) {
  OpenLoopConfig scaled = base;
  for (TenantSpec& t : scaled.tenants) {
    t.arrivals.rate_per_sec *= scale;
  }
  return scaled;
}

CapacityPoint FindSloCapacity(const OpenLoopConfig& base,
                              const CapacitySearch& search, WorldCache* cache,
                              std::vector<CapacityPoint>* trace) {
  const double window_sec =
      static_cast<double>(base.measure) / kNanosPerSec;
  const auto eval = [&](double scale) {
    CapacityPoint p;
    p.scale = scale;
    p.result = RunOpenLoop(ScaleArrivals(base, scale), cache);
    p.offered_rate = static_cast<double>(p.result.offered) / window_sec;
    if (trace != nullptr) trace->push_back(p);
    return p;
  };

  CapacityPoint lo = eval(search.lo_scale);
  if (!lo.result.slo_met) return lo;  // overloaded even at the floor
  CapacityPoint hi = eval(search.hi_scale);
  if (hi.result.slo_met) return hi;  // never saturated in the bracket
  for (int i = 0; i < search.iters; i++) {
    CapacityPoint mid = eval((lo.scale + hi.scale) / 2.0);
    if (mid.result.slo_met) {
      lo = std::move(mid);
    } else {
      hi = std::move(mid);
    }
  }
  return lo;
}

}  // namespace polarcxl::harness
