#include "harness/world_builder.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "bufferpool/cxl_buffer_pool.h"
#include "common/slice.h"
#include "cxl/cxl_memory_manager.h"
#include "fabric/fabric_topology.h"
#include "harness/instance_driver.h"
#include "harness/sweep_runner.h"
#include "rdma/remote_memory_pool.h"

namespace polarcxl::harness {

namespace {
constexpr NodeId kHostNode = 0;          // all instances share this NIC
constexpr NodeId kMemoryServerNode = 100;

cxl::CxlFabric::Options FabricOptionsFor(const SimWorld::Spec& spec) {
  cxl::CxlFabric::Options o;
  const FabricWorldSpec& f = spec.fabric;
  if (f.TopologyActive()) {
    cxl::CxlSwitch::Options sw;
    sw.device_port_bps = f.device_port_bps;
    o.topology = fabric::TopologySpec::Ring(f.switches, sw, f.uplink_bps);
    o.interleave = f.interleave;
  }
  // Inactive topology leaves Options at its legacy one-switch default:
  // routing off, costs bit-identical to the pre-topology world.
  return o;
}

/// Resolves a driver's world_threads knob against POLAR_WORLD_THREADS:
/// `requested` < 0 reads the env var (unset/0 = serial), otherwise the value
/// is used as-is. Returns 0 for serial legacy execution, else the
/// epoch-parallel thread count.
uint32_t ResolveWorldThreads(int requested) {
  if (requested >= 0) return static_cast<uint32_t>(requested);
  const int env = ThreadsFromEnv("POLAR_WORLD_THREADS");
  return env > 0 ? static_cast<uint32_t>(env) : 0;
}

/// Cache key of a warmed world: every input that shapes it through warm-up.
std::string WorldKey(const std::string& lanes_key, const SimWorld::Spec& s,
                     bool epoch, Nanos warmup) {
  std::ostringstream os;
  // Epoch discipline is part of the key (warm-up runs under it); the
  // thread COUNT is not — worlds are identical across counts, so a cached
  // world is re-sharded with SetThreads() on hit.
  const workload::SysbenchConfig& sb = s.sysbench;
  os << lanes_key << ":e" << (epoch ? 1 : 0) << ':' << warmup << ':'
     << static_cast<int>(s.kind) << ':' << s.instances << ':' << sb.tables
     << ':' << sb.rows_per_table << ':' << static_cast<int>(sb.distribution)
     << ':' << sb.num_nodes << ':' << sb.shared_fraction
     << ':' << s.lbp_fraction << ':' << s.cpu_cache_bytes << ':'
     << s.group_commit_window << ':' << s.verbs_retry_budget << ':'
     << (s.wire_faults ? 1 : 0);
  const FabricWorldSpec& f = s.fabric;
  os << ":f" << f.switches << ':' << f.devices_per_switch << ':'
     << f.uplink_bps << ':' << static_cast<int>(f.interleave.mode) << ':'
     << f.interleave.granule << ':' << f.interleave.ways << ':'
     << static_cast<int>(f.placement) << ':' << f.device_port_bps;
  return os.str();
}
}  // namespace

Status LoadTables(sim::ExecContext& ctx, engine::Database* db,
                  const WorkloadSpec& spec) {
  switch (spec.bench) {
    case WorkloadSpec::Bench::kSysbench:
      return workload::LoadSysbenchTables(ctx, db, spec.sysbench);
    case WorkloadSpec::Bench::kTpcc:
      return workload::LoadTpccTables(ctx, db, spec.tpcc);
    case WorkloadSpec::Bench::kTatp:
      return workload::LoadTatpTables(ctx, db, spec.tatp);
  }
  return Status::InvalidArgument("unknown bench");
}

Result<std::unique_ptr<engine::Database>> CreateAndLoad(
    sim::ExecContext& ctx, const engine::DatabaseEnv& env,
    const engine::DatabaseOptions& opt, const WorkloadSpec& spec) {
  auto db = engine::Database::Create(ctx, env, opt);
  if (!db.ok()) return db;
  ctx.cache = (*db)->cache();
  Status s = LoadTables(ctx, db->get(), spec);
  if (!s.ok()) return s;
  return db;
}

// ---------------------------------------------------------------------------
// SimWorld
// ---------------------------------------------------------------------------

SimWorld::SimWorld(const Spec& spec)
    : fabric_(FabricOptionsFor(spec)),
      client_net_("client", bw_.client_net_bps),
      wire_faults_(spec.wire_faults) {
  const uint64_t dataset_pages = SysbenchDatasetPages(spec.sysbench);
  const uint64_t pool_pages =
      spec.kind == engine::BufferPoolKind::kTieredRdma
          ? LbpPages(dataset_pages, spec.lbp_fraction)
          : dataset_pages;

  // ---- shared host infrastructure (one CXL fabric, one NIC pair, one
  // PolarFS-like volume — see Figure 3's contention story) ----
  const uint64_t fabric_bytes =
      (bufferpool::CxlBufferPool::RegionBytes(dataset_pages) + (16 << 20)) *
      spec.instances;
  const FabricWorldSpec& fs = spec.fabric;
  if (!fs.TopologyActive()) {
    // Legacy one-switch world: one device holding the whole pool, one host
    // port — byte-for-byte the historical construction.
    POLAR_CHECK(fabric_
                    .AddDevice((fabric_bytes + kPageSize) / kPageSize *
                               kPageSize)
                    .ok());
    auto host_acc = fabric_.AttachHost(kHostNode);
    POLAR_CHECK(host_acc.ok());
    host_accs_.push_back(*host_acc);
  } else {
    // Split the pool across the switches' devices; striped interleave needs
    // equal per-device capacities divisible by the granule.
    const uint32_t ndev = fs.switches * fs.devices_per_switch;
    POLAR_CHECK(ndev > 0);
    // The engine dereferences Raw() page frames and 64 B meta lines in
    // place, which is only sound when no such object straddles a stripe
    // boundary: world-level striping must use page-multiple granules
    // (regions, frames, and segment bases are all page-aligned). Finer
    // granules remain available to the raw decoder / microbenches.
    POLAR_CHECK_MSG(fs.interleave.mode == fabric::InterleaveMode::kContiguous
                        || fs.interleave.granule % kPageSize == 0,
                    "world interleave granule must be a multiple of the "
                    "page size (in-place page frames cannot straddle "
                    "devices)");
    const uint64_t align =
        std::max<uint64_t>(fs.interleave.granule, kPageSize);
    const uint64_t per_dev = (fabric_bytes / ndev + align) / align * align;
    for (uint32_t s = 0; s < fs.switches; s++) {
      for (uint32_t d = 0; d < fs.devices_per_switch; d++) {
        POLAR_CHECK(fabric_.AddDevice(per_dev, s).ok());
      }
    }
    // One host port per switch; instance i accesses through port
    // i % switches, making switch i % switches its home.
    for (uint32_t s = 0; s < fs.switches; s++) {
      auto acc = fabric_.AttachHost(kHostNode, /*remote_numa=*/false, s);
      POLAR_CHECK(acc.ok());
      host_accs_.push_back(*acc);
    }
  }
  host_acc_ = host_accs_[0];
  if (wire_faults_) fabric_.set_fault_injector(&injector_);
  manager_ = std::make_unique<cxl::CxlMemoryManager>(fabric_.capacity());
  if (fs.TopologyActive()) {
    std::vector<cxl::CxlMemoryManager::PlacementGroup> groups;
    const auto& ranges = fabric_.decoder().groups();
    for (uint32_t g = 0; g < ranges.size(); g++) {
      groups.push_back({ranges[g].base, ranges[g].size, g});
    }
    manager_->ConfigurePlacement(std::move(groups), fs.placement,
                                 &fabric_.topology());
  }

  net_.RegisterHost(kHostNode);
  // Disaggregated-memory servers have aggregate bandwidth well above one
  // client NIC (multiple memory nodes); the client-side NIC is the paper's
  // bottleneck.
  rdma::RdmaNic::Options server_nic;
  server_nic.bandwidth_bps = 4 * bw_.rdma_nic_bps;
  server_nic.iops = 4 * bw_.rdma_nic_iops;
  net_.RegisterHost(kMemoryServerNode, server_nic);
  if (wire_faults_) net_.set_fault_injector(&injector_);
  remote_ = std::make_unique<rdma::RemoteMemoryPool>(
      &net_, kMemoryServerNode, dataset_pages * spec.instances + 1024);

  storage::SimDisk::Options disk_opt;
  disk_opt.bandwidth_bps = sim::BandwidthModel::kSharedVolumeBps;
  disk_opt.iops = sim::BandwidthModel::kSharedVolumeIops;
  disk_ = std::make_unique<storage::SimDisk>("polarfs", disk_opt);
  if (wire_faults_) disk_->set_fault_injector(&injector_);

  // ---- instances ----
  WorkloadSpec wl;
  wl.sysbench = spec.sysbench;
  instances_.resize(spec.instances);
  for (uint32_t i = 0; i < spec.instances; i++) {
    Instance& inst = instances_[i];
    inst.store = std::make_unique<storage::PageStore>(disk_.get());
    inst.log = std::make_unique<storage::RedoLog>(disk_.get());

    engine::DatabaseEnv env;
    env.store = inst.store.get();
    env.log = inst.log.get();
    env.cxl = host_accs_[i % host_accs_.size()];
    env.cxl_manager = manager_.get();
    env.remote = remote_.get();

    engine::DatabaseOptions opt;
    opt.node = InstanceNode(i);
    opt.rdma_host_node = kHostNode;
    opt.pool_kind = spec.kind;
    opt.pool_pages = pool_pages;
    opt.cpu_cache_bytes = spec.cpu_cache_bytes;
    opt.group_commit_window = spec.group_commit_window;
    opt.verbs_retry_budget = spec.verbs_retry_budget;
    if (fs.TopologyActive()) {
      // Region placement anchors to the switch behind the instance's port.
      manager_->SetTenantHome(
          opt.node, i % static_cast<uint32_t>(host_accs_.size()));
    }

    sim::ExecContext setup_ctx;
    auto db = CreateAndLoad(setup_ctx, env, opt, wl);
    POLAR_CHECK(db.ok());
    inst.db = std::move(*db);
    setup_end_ = std::max(setup_end_, setup_ctx.now);
  }

  // Every bandwidth channel of the world, listed once. Ports, NICs and
  // instances are only added above, so the list is fixed from here on.
  fabric::FabricTopology& topo = fabric_.topology();
  for (uint32_t s = 0; s < topo.num_switches(); s++) {
    cxl::CxlSwitch& sw = topo.sw(s);
    for (uint32_t p = 0; p < sw.num_ports(); p++) {
      channels_.push_back(sw.port_channel(p));
    }
    channels_.push_back(sw.fabric_channel());
  }
  for (size_t u = 0; u < topo.num_uplinks(); u++) {
    channels_.push_back(topo.uplink(u));
  }
  for (const NodeId node : {kHostNode, kMemoryServerNode}) {
    rdma::RdmaNic* nic = net_.nic(node);
    channels_.push_back(&nic->wire());
    channels_.push_back(&nic->doorbell());
  }
  channels_.push_back(&client_net_);
  channels_.push_back(&disk_->channel());
  channels_.push_back(&disk_->ops_channel());
  // Each channel so far is reachable from more than one instance, so under
  // epoch execution its charges defer into the lanes' effect queues
  // (sim/epoch.h); a serial run never reads the mark. On the legacy layout
  // the device port is never charged, so marking it defers nothing. The
  // per-instance DRAM channels stay immediate: only their own shard ever
  // touches them.
  for (sim::BandwidthChannel* c : channels_) c->set_shared(true);
  for (Instance& inst : instances_) {
    channels_.push_back(inst.db->dram_channel());
  }

  // Setup is done: every later post is lane-driven and min-clock ordered,
  // so the channels may retire windows far behind the posting frontier
  // (bounding sparse-channel ledger footprints). Setup itself runs one
  // per-instance time cursor after another — wildly out of order — which
  // is why channels start disarmed and are only armed here. Fault-wired
  // worlds stay disarmed entirely: a node-crash window freezes that
  // node's lanes at crash time, and on recovery they post to the shared
  // channels at their frozen clocks — an outage-length reorder span,
  // bounded by the fault plan rather than the executor, which no fixed
  // lag can promise to cover.
  if (!wire_faults_) {
    for (sim::BandwidthChannel* c : channels_) {
      c->set_retire_lag(sim::BandwidthChannel::kRetireLagWindows);
    }
  }
}

uint64_t SimWorld::WindowAdvances() const {
  uint64_t t = 0;
  for (const sim::BandwidthChannel* c : channels_) t += c->window_advances();
  return t;
}

/// Everything mutable in the simulated world outside the CXL devices,
/// captured by value. The device bytes are not in here: each device keeps
/// its own copy-on-write image (CxlFabric::CaptureDeviceImages), which the
/// MMU copies a page at a time as the run writes. Page images are shared,
/// not copied: the page-store and remote-pool page maps and the tiered
/// pool's LBP frames are vectors or maps of PageImageRef handles, and
/// whoever writes a page afterwards replaces or clones its image rather
/// than mutating one a snapshot still references. The rest is deep-copied
/// — DRAM pool frames, page tables, LRU lists, cache-sim arrays and
/// channel ledgers.
struct SimWorld::Snapshot {
  sim::Executor::State executor;
  std::vector<sim::BandwidthChannel::State> channels;  // as in channels_
  rdma::RdmaNetwork::State net;
  rdma::RemoteMemoryPool::State remote;
  storage::SimDisk::State disk;
  struct PerInstance {
    storage::PageStore::State store;
    storage::RedoLog::State log;
    sim::CpuCacheSim::State cache;
    std::unique_ptr<bufferpool::PoolSnapshot> pool;
    engine::Database::EngineState engine;
  };
  std::vector<PerInstance> instances;
};

SimWorld::~SimWorld() = default;

void SimWorld::CaptureSnapshot() {
  auto s = std::make_unique<Snapshot>();
  s->executor = executor_.Capture();
  s->channels.reserve(channels_.size());
  for (const sim::BandwidthChannel* c : channels_) {
    s->channels.push_back(c->Capture());
  }
  fabric_.CaptureDeviceImages();
  s->net = net_.Capture();
  s->remote = remote_->Capture();
  s->disk = disk_->Capture();
  s->instances.reserve(instances_.size());
  for (Instance& inst : instances_) {
    Snapshot::PerInstance p;
    p.store = inst.store->Capture();
    p.log = inst.log->Capture();
    p.cache = inst.db->cache()->Capture();
    p.pool = inst.db->pool()->CaptureState();
    p.engine = inst.db->CaptureEngineState();
    s->instances.push_back(std::move(p));
  }
  snapshot_ = std::move(s);
}

void SimWorld::RestoreSnapshot() {
  POLAR_CHECK_MSG(snapshot_ != nullptr, "no snapshot captured");
  const Snapshot& s = *snapshot_;
  executor_.Restore(s.executor);
  POLAR_CHECK(s.channels.size() == channels_.size());
  for (size_t i = 0; i < channels_.size(); i++) {
    channels_[i]->Restore(s.channels[i]);
  }
  fabric_.RestoreDeviceImages();
  net_.Restore(s.net);
  remote_->Restore(s.remote);
  disk_->Restore(s.disk);
  POLAR_CHECK(s.instances.size() == instances_.size());
  for (size_t i = 0; i < instances_.size(); i++) {
    const Snapshot::PerInstance& p = s.instances[i];
    Instance& inst = instances_[i];
    inst.store->Restore(p.store);
    inst.log->Restore(p.log);
    inst.db->cache()->Restore(p.cache);
    inst.db->pool()->RestoreState(*p.pool);
    inst.db->RestoreEngineState(p.engine);
  }
  if (wire_faults_) {
    // A cold world enters the measure phase with the injector disarmed and
    // zeroed (it was never armed); match that exactly.
    injector_.Disarm();
    injector_.ResetStats();
  }
}

// ---------------------------------------------------------------------------
// WorldCache
// ---------------------------------------------------------------------------

WorldCache::Lease WorldCache::Acquire(const std::string& key) {
  Entry* entry;
  {
    std::lock_guard<std::mutex> g(mu_);
    std::unique_ptr<Entry>& slot = entries_[key];
    if (slot == nullptr) slot = std::make_unique<Entry>();
    entry = slot.get();
  }
  Lease lease;
  lease.lock_ = std::unique_lock<std::mutex>(entry->mu);
  lease.slot_ = &entry->world;
  return lease;
}

// ---------------------------------------------------------------------------
// Run lifecycle
// ---------------------------------------------------------------------------

Status PointOpLane::Run(sim::ExecContext& ctx, double write_fraction) {
  engine::Table* t = db->table(rng.Uniform(tables));
  const uint64_t id = 1 + rng.Uniform(rows);
  Status s;
  if (rng.Chance(write_fraction)) {
    const uint32_t k = static_cast<uint32_t>(rng.Next());
    s = t->UpdateColumn(ctx, id, 4,
                        Slice(reinterpret_cast<const char*>(&k), sizeof(k)));
    if (s.ok()) db->CommitTransaction(ctx);
  } else {
    s = t->GetTo(ctx, id, &scratch);
    db->FinishReadOnly(ctx);
  }
  return s;
}

void AddCheckpointLane(SimWorld& world, uint32_t i, Nanos interval) {
  if (interval <= 0) return;
  engine::Database* db = world.db(i);
  world.executor().AddLane(
      [db, interval](sim::ExecContext& ctx) {
        db->Checkpoint(ctx);
        ctx.Advance(interval);
        return true;
      },
      SimWorld::InstanceNode(i), db->cache(), world.setup_end() + interval);
}

WorldRun::WorldRun(WorldCache* cache, const SimWorld::Spec& spec,
                   const std::string& lanes_key, int world_threads,
                   Nanos warmup, Nanos measure, const Build& build)
    : wall_start_(ThreadCpuSeconds()) {
  const uint32_t threads = ResolveWorldThreads(world_threads);
  const bool epoch = threads >= 1;
  if (cache != nullptr) {
    lease_ = cache->Acquire(WorldKey(lanes_key, spec, epoch, warmup));
    world_ = lease_.get();
    hit_ = world_ != nullptr;
  }
  if (hit_) {
    // The cached world may have been sharded for a different thread count;
    // re-shard first so Restore pushes lanes into the right shards.
    if (epoch) world_->world.executor().SetThreads(threads);
    world_->world.RestoreSnapshot();
    world_->RestoreLanes();
  } else {
    std::unique_ptr<CachedWorld> fresh = build(spec);
    SimWorld& w = fresh->world;
    if (epoch) w.executor().EnableEpochParallel(threads);
    w.executor().RunUntil(w.setup_end() + warmup);
    world_ = fresh.get();
    if (cache != nullptr) {
      // Park the warmed world for every later rep / sweep point sharing the
      // key. Capture is pure host-side copying, so a cold run that captures
      // stays bit-identical to one that doesn't.
      w.CaptureSnapshot();
      fresh->CaptureLanes();
      lease_.put(std::move(fresh));
    } else {
      local_ = std::move(fresh);
    }
  }
  SimWorld& w = world_->world;
  t0_ = w.executor().MinClock(w.setup_end() + warmup);
  t1_ = t0_ + measure;
}

void WorldRun::Measure(const faults::FaultPlan* plan, RunStats* stats) {
  SimWorld& world = world_->world;
  sim::Executor& executor = world.executor();
  faults::FaultInjector& injector = world.injector();
  std::vector<faults::FaultEvent> crashes;
  if (plan != nullptr) {
    faults::FaultPlan armed = *plan;
    armed.ShiftBy(t0_);
    POLAR_CHECK(injector.Arm(std::move(armed)).ok());
    crashes = injector.EventsOfKind(faults::FaultKind::kNodeCrash);
  }

  // The executor/channel counters are monotone over the world's life (forks
  // do not rewind them); report this run's deltas.
  struct Counters {
    uint64_t steps, epochs, divergence, sched_ops, window_advances;
  };
  const auto read = [&executor, &world] {
    return Counters{executor.total_steps(), executor.epochs_run(),
                    executor.drain_divergence(), executor.sched_ops(),
                    world.WindowAdvances()};
  };
  const Counters before = read();
  const double setup_done = ThreadCpuSeconds();
  const auto real_start = std::chrono::steady_clock::now();

  // A node crash freezes every lane of the crashed instances — client and
  // checkpoint lanes included, so arrivals pile up behind the dead endpoint
  // and age out at the deadline check on resume. Lanes thaw when the crash
  // window ends.
  for (const faults::FaultEvent& crash : crashes) {
    if (crash.at >= t1_) break;  // plan is normalized (sorted by `at`)
    executor.RunUntil(crash.at);
    for (uint32_t i = 0; i < world_->lane_span.size(); i++) {
      if (!crash.Matches(SimWorld::InstanceNode(i))) continue;
      for (uint32_t l = world_->lane_span[i].first;
           l <= world_->lane_span[i].second; l++) {
        executor.ParkLane(l);
        const Nanos now = executor.context(l).now;
        executor.ResumeLane(l, std::max(now, crash.until));
      }
    }
  }
  executor.RunUntil(t1_);
  const auto real_end = std::chrono::steady_clock::now();
  const double measure_done = ThreadCpuSeconds();
  if (plan != nullptr) injector.Disarm();

  const Counters after = read();
  RunStats& r = *stats;
  r.lane_steps = after.steps;
  r.measure_steps = after.steps - before.steps;
  r.virtual_end = executor.MaxClock();
  r.window = t1_ - t0_;
  r.setup_wall_sec = setup_done - wall_start_;
  r.measure_wall_sec = measure_done - setup_done;
  r.measure_real_sec =
      std::chrono::duration<double>(real_end - real_start).count();
  r.snapshot_hit = hit_;
  r.epochs = after.epochs - before.epochs;
  r.drain_divergence = after.divergence - before.divergence;
  r.sched_ops = after.sched_ops - before.sched_ops;
  r.window_advances = after.window_advances - before.window_advances;
  for (uint32_t i = 0; i < world.num_instances(); i++) {
    const bufferpool::BufferPoolStats& ps = world.db(i)->pool()->stats();
    r.degraded_fetches += ps.degraded_fetches;
    r.fault_rejections += ps.fault_rejections;
    r.fault_retries += ps.fault_retries;
    r.retries_exhausted += ps.retries_exhausted;
  }
  r.injected = injector.stats();
}

}  // namespace polarcxl::harness
