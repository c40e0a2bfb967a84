// Copyright 2026 The PolarCXLMem Reproduction Authors.
// World construction, deterministic snapshot/fork, and the run lifecycle of
// the SimWorld drivers (RunPooling, RunOpenLoop). Every driver
// used to rebuild the same simulated world — fabric, NICs, disk, instances,
// loaded tables, warmed pool — from zero for every sweep point and every
// rep. This module centralizes the build (one copy of the load call sites),
// lets drivers capture the post-warmup world once per (config key) and fork
// it for every run that shares the key, and owns the one copy of the run
// machinery around the drivers' lanes: fork-or-build (WorldRun), the
// measure bracket and crash freeze (WorldRun::Measure), the result schema
// (RunStats), the fault-tolerant point op and the checkpoint lane.
//
// Determinism contract: a forked run is bit-identical to a cold-built run —
// same lane_steps, metrics, histograms, bandwidth probes. The snapshot is a
// restore-in-place design: RestoreSnapshot() rewinds the SAME world object
// back to its captured state, so raw cross-component pointers (MemorySpace
// homes in the CPU-cache sim, lane closures, charge targets) stay valid and
// no pointer translation ever happens. The world's one channel list
// (SimWorld::channels) is such a pointer set: the snapshot keeps one ledger
// per entry and restores them by position. Parallel sweeps
// (POLAR_SWEEP_THREADS) serialize per cache key and parallelize across keys.
#pragma once

#include <ctime>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "fabric/hdm_decoder.h"
#include "fabric/placement_policy.h"
#include "faults/fault_injector.h"
#include "sim/executor.h"
#include "storage/disk.h"
#include "workload/sysbench.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

namespace polarcxl::harness {

// ---------------------------------------------------------------------------
// Shared load path (the former per-driver Load*Tables call sites)
// ---------------------------------------------------------------------------

/// Which benchmark's tables to create + populate, and with what shape.
struct WorkloadSpec {
  enum class Bench { kSysbench, kTpcc, kTatp };
  Bench bench = Bench::kSysbench;
  workload::SysbenchConfig sysbench;
  workload::TpccConfig tpcc;
  workload::TatpConfig tatp;
};

/// Creates and populates the spec's tables on `db`, charging `ctx`.
Status LoadTables(sim::ExecContext& ctx, engine::Database* db,
                  const WorkloadSpec& spec);

/// The create-then-load sequence every single-instance driver used to
/// inline: fresh instance over `env`/`opt`, schema + data from `spec`,
/// all charged to `ctx` (ctx.cache is pointed at the new instance's cache).
Result<std::unique_ptr<engine::Database>> CreateAndLoad(
    sim::ExecContext& ctx, const engine::DatabaseEnv& env,
    const engine::DatabaseOptions& opt, const WorkloadSpec& spec);

/// CPU time of the calling thread in seconds (wall-split accounting; thread
/// time keeps parallel sweep workers from polluting each other's numbers).
inline double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// SimWorld: the shared single-host world of the pooling/traffic drivers
// ---------------------------------------------------------------------------

/// Shape of the CXL fabric behind the world's instances. The default — one
/// switch, one device, routing off — is the historical single-switch world,
/// bit-identical to the pre-topology driver. More than one switch or more
/// than one device per switch activates per-address routing: every access
/// additionally charges its route's uplinks, entered switch fabrics, and
/// destination device port. The switches form a ring (a chain below three)
/// of uplinks with the model's hop latency, and their ports have the model
/// width (x16, 56 GB/s).
struct FabricWorldSpec {
  uint32_t switches = 1;
  uint32_t devices_per_switch = 1;
  uint64_t uplink_bps = sim::BandwidthModel{}.cxl_host_link_bps;
  /// Narrows only the memory-device ports (0 = full width) — x8/x4
  /// expanders or oversubscribed trunks behind full-width host links.
  uint64_t device_port_bps = 0;
  fabric::InterleaveSpec interleave;
  fabric::PlacementMode placement = fabric::PlacementMode::kLocalFirst;

  bool TopologyActive() const {
    return switches > 1 || devices_per_switch > 1;
  }
};

/// One simulated host: CXL fabric + switch(es), RDMA NIC pair, remote memory
/// pool, client network, shared PolarFS-like disk, and `instances` database
/// instances loaded with sysbench tables. RunPooling builds it fault-free;
/// RunOpenLoop builds it with `wire_faults`.
class SimWorld {
 public:
  struct Spec {
    engine::BufferPoolKind kind = engine::BufferPoolKind::kCxl;
    uint32_t instances = 1;
    workload::SysbenchConfig sysbench;
    double lbp_fraction = 0.3;
    uint64_t cpu_cache_bytes = 28ULL << 20;
    Nanos group_commit_window = 0;
    /// Verbs retry budget for kTieredRdma instances (0 = unlimited).
    Nanos verbs_retry_budget = 0;
    /// Wire the fault injector into fabric/manager/net/disk. Off for the
    /// fault-free figures so their pools keep the injector-null fast path
    /// (bit-identical to the pre-snapshot drivers).
    bool wire_faults = false;
    /// Fabric topology behind the instances (default = legacy one-switch).
    FabricWorldSpec fabric;
  };

  explicit SimWorld(const Spec& spec);
  ~SimWorld();
  POLAR_DISALLOW_COPY(SimWorld);

  /// Node (tenant) id of instance `i`; 0 is the host NIC identity.
  static NodeId InstanceNode(uint32_t i) { return i + 1; }

  uint32_t num_instances() const {
    return static_cast<uint32_t>(instances_.size());
  }
  engine::Database* db(uint32_t i) { return instances_[i].db.get(); }
  Nanos setup_end() const { return setup_end_; }
  sim::Executor& executor() { return executor_; }
  faults::FaultInjector& injector() { return injector_; }
  rdma::RdmaNetwork& net() { return net_; }
  cxl::CxlFabric& fabric() { return fabric_; }
  cxl::CxlMemoryManager& cxl_manager() { return *manager_; }
  rdma::RemoteMemoryPool& remote() { return *remote_; }
  sim::BandwidthChannel* client_net() { return &client_net_; }
  storage::SimDisk& disk() { return *disk_; }

  /// Every bandwidth channel the world owns, listed once at construction:
  /// each switch's ports then its fabric channel, every uplink, both NICs'
  /// wire and doorbell, the client network, the disk's byte and op
  /// ledgers, then each instance's DRAM channel. All but the DRAM channels
  /// are marked shared, so under epoch execution their charges defer into
  /// the lanes' effect queues; a serial run never reads the mark.
  /// Retire-lag arming, WindowAdvances and the snapshot walk this list.
  const std::vector<sim::BandwidthChannel*>& channels() const {
    return channels_;
  }

  /// Sum of window_advances over every channel in the world. Monotone
  /// diagnostics; drivers meter a window by delta (see
  /// RunStats::window_advances).
  uint64_t WindowAdvances() const;

  /// Captures the whole simulated state — executor lanes, channels, disk,
  /// page stores, logs, pools, engine state, remote pool — into an
  /// in-memory snapshot owned by this world, and makes every CXL device's
  /// current bytes its copy-on-write image. Pure host-side work: zero
  /// effect on virtual time. A second capture replaces the first. Call
  /// after warmup, before the measurement window is armed.
  void CaptureSnapshot();
  /// Rewinds the world to the captured state (restore-in-place). The fault
  /// injector is disarmed and its stats cleared, matching the cold world's
  /// pre-measure state.
  void RestoreSnapshot();

 private:
  struct Instance {
    std::unique_ptr<storage::PageStore> store;
    std::unique_ptr<storage::RedoLog> log;
    std::unique_ptr<engine::Database> db;
  };
  struct Snapshot;

  // Destruction order (reverse of declaration) must keep the injector alive
  // past every component that may hold a pointer to it.
  faults::FaultInjector injector_;
  sim::BandwidthModel bw_;
  cxl::CxlFabric fabric_;
  // Host CXL ports: one per switch in topology mode, else the single
  // legacy port. Instance i uses host_accs_[i % host_accs_.size()].
  std::vector<cxl::CxlAccessor*> host_accs_;
  cxl::CxlAccessor* host_acc_ = nullptr;  // == host_accs_[0]
  std::unique_ptr<cxl::CxlMemoryManager> manager_;
  rdma::RdmaNetwork net_;
  std::unique_ptr<rdma::RemoteMemoryPool> remote_;
  sim::BandwidthChannel client_net_;
  std::unique_ptr<storage::SimDisk> disk_;
  std::vector<Instance> instances_;
  sim::Executor executor_;
  Nanos setup_end_ = 0;
  bool wire_faults_ = false;
  std::vector<sim::BandwidthChannel*> channels_;  // see channels()
  std::unique_ptr<Snapshot> snapshot_;
};

// ---------------------------------------------------------------------------
// WorldCache: keyed store of prebuilt worlds
// ---------------------------------------------------------------------------

/// A warmed world plus one driver's lanes: what a WorldCache parks between
/// runs. The world snapshot covers everything inside SimWorld; each driver
/// saves and rewinds the lane state outside it (workload RNGs and counters)
/// in CaptureLanes/RestoreLanes.
struct CachedWorld {
  explicit CachedWorld(const SimWorld::Spec& spec) : world(spec) {}
  virtual ~CachedWorld() = default;
  POLAR_DISALLOW_COPY(CachedWorld);  // lane closures point into it
  virtual void CaptureLanes() = 0;
  virtual void RestoreLanes() = 0;

  SimWorld world;
  /// Lane-id span [first, last] of each instance: the lanes a crash of the
  /// instance's node freezes (see WorldRun::Measure). Empty in fault-free
  /// worlds.
  std::vector<std::pair<uint32_t, uint32_t>> lane_span;
};

/// Maps a config key to a prebuilt world. Acquire() hands out a lease that
/// holds the per-key mutex for the duration of the run: two sweep workers
/// with the same key serialize (they would race on the one world object),
/// while distinct keys proceed in parallel. The cache owns the worlds; its
/// destruction frees them, so sweep loops scope one cache per point when
/// holding every point's world would blow up memory.
class WorldCache {
 public:
  WorldCache() = default;
  POLAR_DISALLOW_COPY(WorldCache);

  class Lease {
   public:
    Lease() = default;
    /// Null on miss — the caller builds the world and calls put().
    CachedWorld* get() const { return slot_ != nullptr ? slot_->get() : nullptr; }
    void put(std::unique_ptr<CachedWorld> world) { *slot_ = std::move(world); }

   private:
    friend class WorldCache;
    std::unique_ptr<CachedWorld>* slot_ = nullptr;
    std::unique_lock<std::mutex> lock_;
  };

  Lease Acquire(const std::string& key);

 private:
  struct Entry {
    std::mutex mu;
    std::unique_ptr<CachedWorld> world;
  };
  std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
};

// ---------------------------------------------------------------------------
// The run lifecycle of the SimWorld drivers
// ---------------------------------------------------------------------------

/// What every SimWorld run reports besides its driver's own counters.
/// PoolingResult and OpenLoopResult derive from it, and WorldRun::Measure
/// fills it.
struct RunStats {
  /// Executor lane-steps over the whole run (setup excluded) and inside the
  /// measurement window alone, the largest virtual clock reached, and the
  /// window length.
  uint64_t lane_steps = 0;
  uint64_t measure_steps = 0;
  Nanos virtual_end = 0;
  Nanos window = 0;
  /// Host time split (thread CPU time): from before the cache lookup to
  /// just before the window's RunUntil, then the window itself. Thread CPU
  /// time meters only the calling thread, so it under-counts epoch-parallel
  /// windows, whose workers do most of the stepping; scaling metrics divide
  /// by the window's real (monotonic) time instead.
  double setup_wall_sec = 0;
  double measure_wall_sec = 0;
  double measure_real_sec = 0;
  /// Setup forked a cached world snapshot instead of a cold build + load +
  /// warm-up.
  bool snapshot_hit = false;
  /// Window deltas of the monotone executor/channel diagnostics: epochs
  /// executed and deferred shared-channel charges that replayed to a
  /// different completion time than the in-epoch observation (both 0 on the
  /// serial path), scheduler operations, and window-ledger maintenance
  /// across every channel in the world. Divide the last two by
  /// measure_steps for the per-lane-step scale costs.
  uint64_t epochs = 0;
  uint64_t drain_divergence = 0;
  uint64_t sched_ops = 0;
  uint64_t window_advances = 0;
  /// Buffer-pool degradation counters summed over the instances (whole
  /// run, see BufferPoolStats) and the injector's accounting; zero in
  /// fault-free worlds.
  uint64_t degraded_fetches = 0;
  uint64_t fault_rejections = 0;
  uint64_t fault_retries = 0;
  uint64_t retries_exhausted = 0;
  faults::FaultInjector::Stats injected;
};

/// The sysbench point op of the traffic driver's server lanes: a uniform table
/// and row, then a single-column update with probability `write_fraction`,
/// else a point read. It runs over the Status-returning table surface, so
/// injected faults surface as errors; the SysbenchWorkload driver
/// POLAR_CHECKs on write failures instead (right for fault-free figures).
struct PointOpLane {
  PointOpLane(engine::Database* db, uint32_t rows, uint64_t seed)
      : db(db),
        rng(seed),
        tables(static_cast<uint32_t>(db->num_tables())),
        rows(rows) {}
  Status Run(sim::ExecContext& ctx, double write_fraction);
  /// Saves / rewinds the RNG across a world snapshot.
  void Capture() { warm_rng = rng.raw_state(); }
  void Restore() { rng.set_raw_state(warm_rng); }

  engine::Database* db;
  Rng rng;
  uint32_t tables;
  uint32_t rows;
  uint64_t warm_rng = 0;
  std::string scratch;
};

/// Registers instance `i`'s checkpoint lane (none when `interval` is 0).
/// From setup_end + interval it flushes dirty pages every `interval`, so a
/// degraded read path has clean pages to serve from storage (a database
/// that never checkpoints has nothing to fall back on). Lanes release every
/// page fix before yielding, so the flush never sees a fixed page.
void AddCheckpointLane(SimWorld& world, uint32_t i, Nanos interval);

/// One run of a SimWorld driver. The constructor acquires a warmed world.
/// On a cache hit it re-shards the cached world for this run's thread
/// count, then restores the world snapshot and the lanes. Otherwise `build`
/// constructs the world and registers its lanes; the constructor then
/// switches the executor to epoch execution (the world's channels are
/// already marked shared), warms up to setup_end + warmup and, with a
/// cache, captures world and lanes and parks them under the key. Capture is
/// pure host-side copying, so a forked run is bit-identical to a cold one.
/// The driver then sets its per-run state and calls Measure once.
class WorldRun {
 public:
  /// Constructs a world and registers its lanes.
  using Build =
      std::function<std::unique_ptr<CachedWorld>(const SimWorld::Spec& spec)>;

  /// `lanes_key` names every driver setting outside `spec` and `warmup`
  /// that shapes the world through warm-up; per-run settings (the measure
  /// window, fault plans, arrival rates) stay out so one world serves them
  /// all. `world_threads`: -1 reads POLAR_WORLD_THREADS (unset/0 = serial;
  /// anything but a non-negative integer exits 2), 0 forces the legacy
  /// serial executor, >= 1 runs epoch-parallel on that many threads;
  /// results are bit-identical for every value.
  WorldRun(WorldCache* cache, const SimWorld::Spec& spec,
           const std::string& lanes_key, int world_threads, Nanos warmup,
           Nanos measure, const Build& build);
  POLAR_DISALLOW_COPY(WorldRun);

  template <typename W>
  W& get() const {
    return static_cast<W&>(*world_);
  }
  /// The measurement window [t0, t0 + measure]: t0 is the smallest
  /// runnable clock once warm-up ends.
  Nanos t0() const { return t0_; }
  Nanos t1() const { return t1_; }

  /// Runs the window and fills `stats`, which must be freshly constructed.
  /// With a `plan` (times relative to t0) the injector is armed for the
  /// window, and the run stops at every node crash to freeze the crashed
  /// instances' lanes until the crash ends (a fast process failover).
  void Measure(const faults::FaultPlan* plan, RunStats* stats);

 private:
  double wall_start_;
  WorldCache::Lease lease_;
  std::unique_ptr<CachedWorld> local_;  // a cold world run without a cache
  CachedWorld* world_ = nullptr;
  bool hit_ = false;
  Nanos t0_ = 0;
  Nanos t1_ = 0;
};

}  // namespace polarcxl::harness
