#include "harness/sharing_driver.h"

#include <algorithm>
#include <limits>

#include "common/prof.h"
#include "harness/instance_driver.h"

namespace polarcxl::harness {

namespace {
constexpr NodeId kDbpServerNode = 200;

uint64_t DatasetPagesFor(const SharingConfig& config) {
  switch (config.bench) {
    case SharingBench::kSysbench:
      return SysbenchDatasetPages(config.sysbench);
    case SharingBench::kTpcc: {
      const auto& c = config.tpcc;
      const uint64_t rows =
          c.warehouses * (1 + workload::TpccConfig::kDistrictsPerWarehouse *
                                  (1 + c.customers_per_district) +
                          c.items) +
          c.items;
      return rows / 40 + c.warehouses * 600 + 512;  // order growth slack
    }
    case SharingBench::kTatp: {
      const uint64_t rows = config.tatp.subscribers * 7;
      return rows / 60 + 512;
    }
  }
  return 4096;
}
}  // namespace

SharingResult RunSharing(const SharingConfig& config) {
  const uint64_t dataset_pages = DatasetPagesFor(config);
  const uint64_t dbp_pages = dataset_pages + 512;

  // ---- shared durable state ----
  storage::SimDisk disk("shared-disk");
  storage::PageStore store(&disk);
  storage::RedoLog log(&disk);

  // ---- fabric (CXL mode) ----
  cxl::CxlSwitch::Options sw;
  sw.lanes_per_port = 8;  // x8 ports: up to 32 endpoints for big clusters
  cxl::CxlFabric::Options fo;
  fo.switch_options = sw;
  cxl::CxlFabric fabric(fo);
  const uint64_t fabric_bytes =
      (dbp_pages + 64) * (kPageSize + 64ULL * 64) + (64ULL << 20);
  POLAR_CHECK(
      fabric.AddDevice((fabric_bytes + kPageSize) / kPageSize * kPageSize)
          .ok());
  cxl::CxlMemoryManager manager(fabric.capacity());

  // ---- network (RDMA mode; also carries lock RPCs for the baseline) ----
  sim::BandwidthModel bw;
  rdma::RdmaNetwork net;
  rdma::RdmaNic::Options server_nic;
  // PolarDB-MP's DBP is served by a pair of memory nodes: 2x a client NIC.
  server_nic.bandwidth_bps = 2 * bw.rdma_nic_bps;
  server_nic.iops = 4 * bw.rdma_nic_iops;
  net.RegisterHost(kDbpServerNode, server_nic);
  for (uint32_t n = 0; n < config.nodes; n++) net.RegisterHost(n);

  // ---- sharing substrate ----
  std::unique_ptr<sharing::DistLockManager> cxl_locks;
  std::unique_ptr<sharing::BufferFusionServer> fusion;
  std::unique_ptr<sharing::RdmaSharingGroup> rdma_group;
  cxl::CxlAccessor* server_acc = nullptr;

  if (config.mode == SharingMode::kCxl) {
    auto acc = fabric.AttachHost(90);
    POLAR_CHECK(acc.ok());
    server_acc = *acc;
    cxl_locks = std::make_unique<sharing::DistLockManager>(
        std::make_unique<sharing::CxlLockTransport>(
            sim::LatencyModel{}.cxl_rpc_round_trip));
    sim::ExecContext ctx;
    sharing::BufferFusionServer::Options so;
    so.dbp_pages = static_cast<uint32_t>(dbp_pages);
    so.max_nodes = std::max(17u, config.nodes + 2);
    auto server = sharing::BufferFusionServer::Create(
        ctx, so, server_acc, &manager, &store, cxl_locks.get());
    POLAR_CHECK(server.ok());
    fusion = std::move(*server);
  } else {
    rdma_group = std::make_unique<sharing::RdmaSharingGroup>(
        &net, kDbpServerNode, dbp_pages, &store);
  }

  // ---- per-node DRAM spaces + databases ----
  struct Node {
    std::unique_ptr<sim::MemorySpace> dram;
    std::unique_ptr<engine::Database> db;
    bufferpool::BufferPool* pool = nullptr;  // borrowed
  };
  std::vector<Node> nodes(config.nodes);
  Nanos setup_end = 0;

  const uint64_t accessed_pages =
      config.bench == SharingBench::kSysbench && config.sysbench.num_nodes > 1
          ? dataset_pages * 2 / (config.nodes + 1)  // private + shared group
          : dataset_pages / std::max(1u, config.nodes) + 256;
  const uint64_t lbp_pages = LbpPages(accessed_pages, config.lbp_fraction);

  for (uint32_t n = 0; n < config.nodes; n++) {
    Node& node = nodes[n];
    sim::MemorySpace::Options mo;
    mo.name = "mp-dram" + std::to_string(n);
    node.dram = std::make_unique<sim::MemorySpace>(mo);

    std::unique_ptr<bufferpool::BufferPool> pool;
    if (config.mode == SharingMode::kCxl) {
      auto acc = fabric.AttachHost(n);
      POLAR_CHECK(acc.ok());
      sharing::CxlSharedBufferPool::Options po;
      po.node = n;
      po.full_page_sync = config.cxl_full_page_sync;
      po.hardware_coherency = config.cxl_hardware_coherency;
      pool = std::make_unique<sharing::CxlSharedBufferPool>(
          po, *acc, fusion.get(), cxl_locks.get(), &store);
    } else {
      sharing::RdmaSharedBufferPool::Options po;
      po.node = n;
      po.lbp_capacity_pages = lbp_pages;
      po.phys_base = (1ULL << 46) + (static_cast<uint64_t>(n) << 38);
      pool = std::make_unique<sharing::RdmaSharedBufferPool>(
          po, node.dram.get(), rdma_group.get());
    }
    node.pool = pool.get();

    engine::DatabaseEnv env;
    env.store = &store;
    env.log = &log;
    engine::DatabaseOptions opt;
    opt.node = n;

    sim::ExecContext setup_ctx;
    setup_ctx.now = setup_end;  // setup happens strictly before traffic
    auto db = n == 0 ? engine::Database::CreateWithPool(setup_ctx, env, opt,
                                                        std::move(pool))
                     : engine::Database::OpenWithPool(setup_ctx, env, opt,
                                                      std::move(pool));
    POLAR_CHECK(db.ok());
    node.db = std::move(*db);
    if (config.mode == SharingMode::kCxl) {
      fusion->RegisterNodeCache(n, node.db->cache());
    }
    setup_end = std::max(setup_end, setup_ctx.now);

    if (n == 0) {
      // Node 0 owns schema creation and data loading.
      sim::ExecContext load_ctx;
      load_ctx.now = setup_end;
      load_ctx.cache = node.db->cache();
      WorkloadSpec spec;
      spec.bench = config.bench;
      spec.sysbench = config.sysbench;
      spec.tpcc = config.tpcc;
      spec.tatp = config.tatp;
      POLAR_CHECK(LoadTables(load_ctx, node.db.get(), spec).ok());
      setup_end = std::max(setup_end, load_ctx.now);
    }
  }

  // ---- lanes ----
  struct LaneWork {
    std::unique_ptr<workload::SysbenchWorkload> sysbench;
    std::unique_ptr<workload::TpccWorkload> tpcc;
    std::unique_ptr<workload::TatpWorkload> tatp;
  };
  RunMetrics metrics;
  uint64_t new_orders = 0;
  // Sentinel start (see instance_driver.cc): one comparison gates
  // recording until the measurement window opens.
  Nanos window_start = std::numeric_limits<Nanos>::max();
  Nanos window_end = -1;

  sim::Executor executor;
  executor.ReserveLanes(static_cast<size_t>(config.nodes) *
                        config.lanes_per_node);
  std::vector<std::unique_ptr<LaneWork>> works;
  for (uint32_t n = 0; n < config.nodes; n++) {
    for (uint32_t l = 0; l < config.lanes_per_node; l++) {
      auto work = std::make_unique<LaneWork>();
      const uint64_t seed = config.seed + n * 131 + l;
      switch (config.bench) {
        case SharingBench::kSysbench:
          work->sysbench = std::make_unique<workload::SysbenchWorkload>(
              nodes[n].db.get(), config.sysbench, n, seed);
          break;
        case SharingBench::kTpcc:
          work->tpcc = std::make_unique<workload::TpccWorkload>(
              nodes[n].db.get(), config.tpcc, n, seed);
          break;
        case SharingBench::kTatp:
          work->tatp = std::make_unique<workload::TatpWorkload>(
              nodes[n].db.get(), config.tatp, n, seed);
          break;
      }
      LaneWork* raw = work.get();
      works.push_back(std::move(work));
      const workload::SysbenchOp op = config.op;
      executor.AddLane(
          [raw, op, &metrics, &new_orders, &window_start,
           &window_end](sim::ExecContext& ctx) {
            const Nanos start = ctx.now;
            uint32_t queries = 0;
            uint32_t no = 0;
            if (raw->sysbench != nullptr) {
              queries = raw->sysbench->RunEvent(ctx, op);
            } else if (raw->tpcc != nullptr) {
              no = raw->tpcc->RunTransaction(ctx);
              queries = 1;
            } else {
              queries = raw->tatp->RunTransaction(ctx);
            }
            if (start >= window_start && ctx.now <= window_end) {
              POLAR_PROF_SCOPE(kMetrics);
              metrics.queries += queries;
              metrics.events++;
              new_orders += no;
              metrics.latency.Add(ctx.now - start);
            }
            return true;
          },
          n, nodes[n].db->cache(), setup_end);
    }
  }

  executor.RunUntil(setup_end + config.warmup);
  const Nanos t0 = executor.MinClock(setup_end + config.warmup);
  const Nanos t1 = t0 + config.measure;
  window_start = t0;
  window_end = t1;
  if (config.mode == SharingMode::kCxl) cxl_locks->ResetStats();
  else rdma_group->locks().ResetStats();

  executor.RunUntil(t1);

  SharingResult result;
  metrics.window = config.measure;
  result.metrics = metrics;
  result.new_orders = new_orders;
  for (auto& node : nodes) {
    result.local_dram_bytes += node.pool->local_dram_bytes();
  }
  const sim::VirtualLockTable& table =
      config.mode == SharingMode::kCxl ? cxl_locks->table()
                                       : rdma_group->locks().table();
  result.lock_waits = table.contended_acquisitions();
  result.total_lock_wait = table.total_wait();
  result.breakdown = TimeBreakdown::OfLanes(executor, setup_end);
  if (config.mode == SharingMode::kCxl) {
    for (auto& node : nodes) {
      auto* pool = static_cast<sharing::CxlSharedBufferPool*>(node.pool);
      result.invalidations += pool->invalidations_observed();
      result.sync_lines += pool->dirty_lines_flushed();
    }
  } else {
    for (auto& node : nodes) {
      result.invalidations +=
          static_cast<sharing::RdmaSharedBufferPool*>(node.pool)
              ->invalidations_received();
    }
  }
  return result;
}

}  // namespace polarcxl::harness
