#include "harness/recovery_driver.h"

#include <memory>

#include "harness/instance_driver.h"
#include "sim/executor.h"

namespace polarcxl::harness {

namespace {
using engine::BufferPoolKind;

/// The RDMA-based scheme's LBP holds this fraction of the dataset.
constexpr double kRecoveryLbpFraction = 0.3;

BufferPoolKind KindFor(RecoveryScheme scheme) {
  switch (scheme) {
    case RecoveryScheme::kVanilla:
      return BufferPoolKind::kDram;
    case RecoveryScheme::kRdmaBased:
      return BufferPoolKind::kTieredRdma;
    case RecoveryScheme::kPolarRecv:
      return BufferPoolKind::kCxl;
  }
  return BufferPoolKind::kDram;
}

/// Emulates work in flight at the instant of the crash: committed-but-
/// unflushed updates ("too new" pages) plus write-locked torn pages and a
/// torn LRU manipulation — the hazards PolarRecv must repair.
void InjectCxlHazards(sim::ExecContext& ctx, engine::Database* db,
                      const workload::SysbenchConfig& sysbench,
                      uint32_t torn_updates, uint64_t seed) {
  auto* pool = static_cast<bufferpool::CxlBufferPool*>(db->pool());
  Rng rng(seed);
  engine::Table* t = db->table(size_t{0});
  for (uint32_t i = 0; i < torn_updates; i++) {
    const uint64_t id = 1 + rng.Uniform(sysbench.rows_per_table);
    const uint32_t k = static_cast<uint32_t>(rng.Next());
    t->UpdateColumn(ctx, id, 0,
                    Slice(reinterpret_cast<const char*>(&k), 4))
        .ok();  // appended to the (soon lost) log buffer, not flushed
  }
  uint32_t torn = 0;
  for (uint32_t b = 0; b < pool->num_blocks() && torn < 4; b++) {
    bufferpool::CxlBlockMeta m = pool->LoadMeta(ctx, b);
    if (m.in_use == 0 || m.id == engine::Database::kSuperblockPage) continue;
    engine::PageView page(pool->FrameRaw(b));
    if (!page.is_leaf()) continue;
    std::memset(pool->FrameRaw(b) + 4096, 0xEF, 256);
    m.lock_state = 1;
    pool->StoreMeta(ctx, b, m);
    torn++;
  }
  bufferpool::CxlPoolHeader h = pool->LoadHeader(ctx);
  h.lru_mutex = 1;
  pool->StoreHeader(ctx, h);
}
}  // namespace

const char* RecoverySchemeName(RecoveryScheme scheme) {
  switch (scheme) {
    case RecoveryScheme::kVanilla:
      return "vanilla";
    case RecoveryScheme::kRdmaBased:
      return "rdma-based";
    case RecoveryScheme::kPolarRecv:
      return "polar-recv";
  }
  return "unknown";
}

RecoveryResult RunRecoveryExperiment(const RecoveryConfig& config) {
  const BufferPoolKind kind = KindFor(config.scheme);
  const uint64_t dataset_pages = SysbenchDatasetPages(config.sysbench);
  const uint64_t pool_pages =
      kind == BufferPoolKind::kTieredRdma
          ? LbpPages(dataset_pages, kRecoveryLbpFraction)
          : dataset_pages;

  // ---- durable world ----
  storage::SimDisk disk("disk");
  storage::PageStore store(&disk);
  storage::RedoLog log(&disk);
  cxl::CxlFabric fabric;
  POLAR_CHECK(
      fabric
          .AddDevice((bufferpool::CxlBufferPool::RegionBytes(dataset_pages) +
                      (32 << 20) + kPageSize) /
                     kPageSize * kPageSize)
          .ok());
  auto host = fabric.AttachHost(0);
  POLAR_CHECK(host.ok());
  cxl::CxlMemoryManager manager(fabric.capacity());
  rdma::RdmaNetwork net;
  net.RegisterHost(0);
  rdma::RdmaNic::Options server_nic;
  server_nic.bandwidth_bps = 4 * sim::BandwidthModel{}.rdma_nic_bps;
  net.RegisterHost(100, server_nic);
  rdma::RemoteMemoryPool remote(&net, 100, dataset_pages + 1024);

  engine::DatabaseEnv env;
  env.store = &store;
  env.log = &log;
  env.cxl = *host;
  env.cxl_manager = &manager;
  env.remote = &remote;

  engine::DatabaseOptions opt;
  opt.node = 1;
  opt.rdma_host_node = 0;
  opt.pool_kind = kind;
  opt.pool_pages = pool_pages;
  opt.cpu_cache_bytes = config.cpu_cache_bytes;

  sim::ExecContext setup_ctx;
  WorkloadSpec load_spec;
  load_spec.sysbench = config.sysbench;
  auto created = CreateAndLoad(setup_ctx, env, opt, load_spec);
  POLAR_CHECK(created.ok());
  std::unique_ptr<engine::Database> db = std::move(*created);

  // ---- phase 1: run until the crash ----
  RecoveryResult result;
  result.qps = TimeSeries(config.bucket);
  result.crash_at = config.crash_at;

  sim::Executor executor;
  // The lanes, the checkpointer, and the lanes again after the restart.
  executor.ReserveLanes(2 * config.lanes + 1);
  std::vector<std::unique_ptr<workload::SysbenchWorkload>> workloads;
  std::vector<uint32_t> lane_ids;
  engine::Database* db_ptr = db.get();

  auto add_lanes = [&](engine::Database* target, Nanos start_at) {
    for (uint32_t l = 0; l < config.lanes; l++) {
      workloads.push_back(std::make_unique<workload::SysbenchWorkload>(
          target, config.sysbench, 0, config.seed + workloads.size()));
      workload::SysbenchWorkload* wl = workloads.back().get();
      const workload::SysbenchOp op = config.op;
      const Nanos pace = config.pace_interval;
      TimeSeries* series = &result.qps;
      auto next_start = std::make_shared<Nanos>(start_at);
      lane_ids.push_back(executor.AddLane(
          [wl, op, series, pace, next_start](sim::ExecContext& ctx) {
            if (pace > 0) {
              // Fixed-rate open-loop pacing (skips missed slots).
              if (ctx.now < *next_start) ctx.now = *next_start;
              *next_start = ctx.now + pace;
            }
            const uint32_t queries = wl->RunEvent(ctx, op);
            series->Add(ctx.now, queries);
            return true;
          },
          0, target->cache(), start_at));
    }
  };
  // Background checkpointer.
  const uint32_t checkpointer = executor.AddLane(
      [&db_ptr, &config](sim::ExecContext& ctx) {
        if (db_ptr != nullptr) db_ptr->Checkpoint(ctx);
        ctx.now += config.checkpoint_interval;
        return true;
      },
      0, nullptr, config.checkpoint_interval);

  add_lanes(db.get(), 0);
  executor.RunUntil(config.crash_at);

  // Pre-crash steady rate (skip the first quarter as warm-up).
  {
    const size_t first = static_cast<size_t>(config.crash_at / 4 /
                                             config.bucket);
    const size_t last = static_cast<size_t>(config.crash_at / config.bucket);
    double sum = 0;
    size_t n = 0;
    for (size_t b = first; b < last && b < result.qps.num_buckets(); b++) {
      sum += result.qps.RatePerSec(b);
      n++;
    }
    result.pre_crash_qps = n == 0 ? 0 : sum / static_cast<double>(n);
  }

  // ---- the crash ----
  for (uint32_t id : lane_ids) executor.ParkLane(id);
  executor.ParkLane(checkpointer);
  MemOffset cxl_region = 0;
  if (kind == BufferPoolKind::kCxl) {
    cxl_region = db->cxl_region();
    sim::ExecContext inject_ctx;
    inject_ctx.now = config.crash_at;
    InjectCxlHazards(inject_ctx, db.get(), config.sysbench,
                     config.torn_updates, config.seed);
  }
  log.LoseUnflushedTail();
  db_ptr = nullptr;
  db.reset();  // DRAM state gone

  // ---- recovery ----
  sim::ExecContext rctx;
  rctx.now = config.crash_at + config.process_restart;
  std::unique_ptr<bufferpool::BufferPool> pool;
  sim::MemorySpace::Options mo;
  mo.name = "recover-dram";
  sim::MemorySpace recover_dram(mo);

  switch (config.scheme) {
    case RecoveryScheme::kVanilla:
    case RecoveryScheme::kRdmaBased: {
      // A cold local buffer pool: the vanilla restart's DRAM-BP has no
      // remote tier; the RDMA-based one reads bases from the surviving
      // remote pool.
      const bool vanilla = config.scheme == RecoveryScheme::kVanilla;
      bufferpool::TieredRdmaBufferPool::Options po;
      po.lbp_capacity_pages = pool_pages;
      po.node = 0;
      po.tenant = 1;
      po.phys_base = vanilla ? 1ULL << 44 : 1ULL << 45;
      pool = std::make_unique<bufferpool::TieredRdmaBufferPool>(
          po, &recover_dram, vanilla ? nullptr : &remote, &store);
      pool->SetWal(&log);
      result.aries = recovery::RecoverAries(rctx, pool.get(), &log);
      break;
    }
    case RecoveryScheme::kPolarRecv: {
      bufferpool::CxlBufferPool::Options po;
      po.capacity_pages = pool_pages;
      po.tenant = 1;
      auto attached = bufferpool::CxlBufferPool::Attach(rctx, po, cxl_region,
                                                        *host, &store);
      POLAR_CHECK(attached.ok());
      (*attached)->SetWal(&log);
      result.polar = recovery::PolarRecv(rctx, attached->get(), &log);
      pool = std::move(*attached);
      break;
    }
  }

  auto reopened = engine::Database::OpenWithPool(rctx, env, opt,
                                                 std::move(pool));
  POLAR_CHECK(reopened.ok());
  db = std::move(*reopened);
  db_ptr = db.get();
  result.serving_at = rctx.now;

  // ---- phase 2: resume traffic ----
  add_lanes(db.get(), result.serving_at);
  executor.ResumeLane(checkpointer, result.serving_at);
  executor.RunUntil(config.total);

  // Warm-up point: first bucket after serving_at at >= 90% of pre-crash.
  result.warmed_at = config.total;
  const size_t from = static_cast<size_t>(result.serving_at / config.bucket);
  for (size_t b = from + 1; b < result.qps.num_buckets(); b++) {
    if (result.qps.RatePerSec(b) >= 0.9 * result.pre_crash_qps) {
      result.warmed_at = static_cast<Nanos>(b) * config.bucket;
      break;
    }
  }
  return result;
}

}  // namespace polarcxl::harness
