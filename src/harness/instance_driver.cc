#include "harness/instance_driver.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>

#include "bufferpool/tiered_rdma_buffer_pool.h"
#include "common/prof.h"

namespace polarcxl::harness {

namespace {
constexpr NodeId kHostNode = 0;  // all instances share this NIC

/// Lane bookkeeping referenced by the executor lambdas; heap-stable because
/// a cached world outlives every run that forks it.
struct PoolLaneState {
  workload::SysbenchWorkload* wl;
  RunMetrics* metrics;
  // Sentinel start (max Nanos) makes `start >= window_start` alone gate
  // recording: before the window opens nothing can reach the sentinel, so
  // the hot lane lambda needs no separate "window set?" branch.
  Nanos window_start = std::numeric_limits<Nanos>::max();
  Nanos window_end = -1;
};

/// A pooling world: the simulated host plus the lane drivers and their
/// post-warmup RNG/counter states.
struct PoolingWorld : CachedWorld {
  using CachedWorld::CachedWorld;
  void CaptureLanes() override {
    for (const auto& wl : lanes_wl) wl_states.push_back(wl->Capture());
  }
  void RestoreLanes() override {
    for (size_t i = 0; i < lanes_wl.size(); i++) {
      lanes_wl[i]->Restore(wl_states[i]);
    }
  }

  std::vector<std::unique_ptr<workload::SysbenchWorkload>> lanes_wl;
  std::vector<std::unique_ptr<PoolLaneState>> lane_states;
  /// One RunMetrics per instance, which the lane lambdas point at and every
  /// run resets: each instance is one shard group, so under epoch execution
  /// no two threads touch the same slot. Merged in instance order after the
  /// run; integer latency sums stay exact in the histogram's double sum.
  std::vector<RunMetrics> instance_metrics;
  std::vector<workload::SysbenchWorkload::State> wl_states;  // post-warmup
};

SimWorld::Spec SpecFor(const PoolingConfig& config) {
  SimWorld::Spec spec;
  spec.kind = config.kind;
  spec.instances = config.instances;
  spec.sysbench = config.sysbench;
  spec.lbp_fraction = config.lbp_fraction;
  spec.cpu_cache_bytes = config.cpu_cache_bytes;
  spec.group_commit_window = config.group_commit_window;
  spec.wire_faults = false;  // fault-free figures keep the injector-null path
  spec.fabric = config.fabric;
  return spec;
}

/// The lane settings that shape the world before the measurement window
/// (the spec and warmup are keyed by WorldRun). `measure` is deliberately
/// absent: runs differing only in window length share one snapshot.
std::string PoolingKey(const PoolingConfig& c) {
  std::ostringstream os;
  os << "pooling:" << c.lanes_per_instance << ':' << static_cast<int>(c.op)
     << ':' << c.seed;
  return os.str();
}

/// Builds the world and registers its lanes.
std::unique_ptr<CachedWorld> BuildPoolingWorld(const PoolingConfig& config,
                                               const SimWorld::Spec& spec) {
  auto pw = std::make_unique<PoolingWorld>(spec);
  pw->instance_metrics.resize(config.instances);
  SimWorld& world = pw->world;
  sim::Executor& executor = world.executor();
  executor.ReserveLanes(static_cast<size_t>(config.instances) *
                        config.lanes_per_instance);
  const Nanos setup_end = world.setup_end();
  for (uint32_t i = 0; i < config.instances; i++) {
    for (uint32_t l = 0; l < config.lanes_per_instance; l++) {
      pw->lanes_wl.push_back(std::make_unique<workload::SysbenchWorkload>(
          world.db(i), config.sysbench, 0, config.seed + i * 1000 + l,
          world.client_net()));
      auto state = std::make_unique<PoolLaneState>();
      state->wl = pw->lanes_wl.back().get();
      state->metrics = &pw->instance_metrics[i];
      PoolLaneState* raw = state.get();
      pw->lane_states.push_back(std::move(state));
      const workload::SysbenchOp op = config.op;
      executor.AddLane(
          [raw, op](sim::ExecContext& ctx) {
            const Nanos start = ctx.now;
            const uint32_t queries = raw->wl->RunEvent(ctx, op);
            if (start >= raw->window_start && ctx.now <= raw->window_end) {
              POLAR_PROF_SCOPE(kMetrics);
              raw->metrics->queries += queries;
              raw->metrics->events++;
              raw->metrics->latency.Add(ctx.now - start);
            }
            return true;
          },
          i, world.db(i)->cache(), setup_end);
    }
  }
  return pw;
}
}  // namespace

uint64_t SysbenchDatasetPages(const workload::SysbenchConfig& config) {
  const uint64_t entry = 8 + workload::SysbenchConfig::kRowSize;
  const uint64_t per_leaf = (kPageSize - 64) / entry;
  // Leaves (with split slack) + internal nodes + catalog margin.
  const uint64_t leaves_per_table =
      config.rows_per_table * 2 / per_leaf + 2;  // half-full after splits
  return config.TotalTables() * (leaves_per_table + 4) + 64;
}

uint64_t LbpPages(uint64_t pages, double fraction) {
  return std::max<uint64_t>(
      64, static_cast<uint64_t>(static_cast<double>(pages) * fraction));
}

PoolingResult RunPooling(const PoolingConfig& config, WorldCache* cache) {
  WorldRun run(cache, SpecFor(config), PoolingKey(config),
               config.world_threads, config.warmup, config.measure,
               [&config](const SimWorld::Spec& spec) {
                 return BuildPoolingWorld(config, spec);
               });
  PoolingWorld& pw = run.get<PoolingWorld>();
  for (RunMetrics& m : pw.instance_metrics) m = RunMetrics();
  for (auto& state : pw.lane_states) {
    state->window_start = run.t0();
    state->window_end = run.t1();
  }

  SimWorld& world = pw.world;
  sim::Executor& executor = world.executor();
  sim::BandwidthChannel* nic_wire = &world.net().nic(kHostNode)->wire();
  // Sum over the host-side switch ports (one port on the legacy layout, one
  // per switch in topology mode) and over the inter-switch uplinks.
  auto uplink_bytes = [&world] {
    uint64_t total = 0;
    fabric::FabricTopology& topo = world.fabric().topology();
    for (size_t u = 0; u < topo.num_uplinks(); u++) {
      total += topo.uplink(u)->total_bytes();
    }
    return total;
  };
  BandwidthProbe nic_probe{nic_wire->total_bytes(), 0};
  BandwidthProbe cxl_probe{world.fabric().host_port_bytes(), 0};
  BandwidthProbe uplink_probe{uplink_bytes(), 0};

  PoolingResult result;
  run.Measure(/*plan=*/nullptr, &result);

  nic_probe.after = nic_wire->total_bytes();
  cxl_probe.after = world.fabric().host_port_bytes();
  uplink_probe.after = uplink_bytes();

  for (const RunMetrics& m : pw.instance_metrics) {
    result.metrics.queries += m.queries;
    result.metrics.events += m.events;
    result.metrics.latency.Merge(m.latency);
  }
  result.metrics.window = config.measure;
  result.nic_gbps = nic_probe.Gbps(config.measure);
  result.cxl_gbps = cxl_probe.Gbps(config.measure);
  result.uplink_gbps = uplink_probe.Gbps(config.measure);
  result.interconnect_gbps =
      config.kind == engine::BufferPoolKind::kTieredRdma ? result.nic_gbps
                                                         : result.cxl_gbps;
  double hit_rate = 0;
  for (uint32_t i = 0; i < world.num_instances(); i++) {
    result.local_dram_bytes += world.db(i)->pool()->local_dram_bytes();
    hit_rate += world.db(i)->pool()->stats().HitRate();
  }
  result.lbp_hit_rate = hit_rate / config.instances;
  for (size_t l = 0; l < executor.num_lanes(); l++) {
    const sim::ExecContext& lane = executor.context(static_cast<uint32_t>(l));
    result.line_hits += lane.mem_line_hits;
    result.line_misses += lane.mem_line_misses;
    result.pages_read_io += lane.pages_read_io;
  }
  result.breakdown = TimeBreakdown::OfLanes(executor, world.setup_end());
  return result;
}

PoolingConfig Fig7PoolingConfig(engine::BufferPoolKind kind) {
  PoolingConfig c;
  c.kind = kind;
  c.instances = 8;
  c.lanes_per_instance = 8;
  c.op = workload::SysbenchOp::kPointSelect;
  c.sysbench.tables = 4;
  c.sysbench.rows_per_table = 8000;
  c.cpu_cache_bytes = 2ULL << 20;
  c.lbp_fraction = 0.3;
  return c;
}

}  // namespace polarcxl::harness
