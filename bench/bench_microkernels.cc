// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Host-side kernel microbenchmarks: the SIMD intra-node search, the
// CPU-cache-sim probe paths (memo hit, probed hit, miss/evict, batched
// range), the buffer-pool Fetch/Unfix round-trip and B+tree get/update on
// every pool kind, B+tree insert on the CXL pool, a bandwidth-channel
// transfer and a histogram insertion. Unlike bench_sim_throughput (a whole
// simulated workload, noisy on shared boxes), each kernel here runs in a
// tight loop over a pinned working set, so per-kernel regressions stand out
// even when end-to-end numbers wobble. Full-scale runs refresh the
// committed BENCH_microkernels.json; the SIMD level is recorded so the
// POLAR_NO_SIMD build's numbers are not compared against vector builds.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/simd.h"
#include "engine/database.h"
#include "engine/node_search.h"
#include "harness/report.h"
#include "harness/world_builder.h"
#include "sim/bandwidth_channel.h"
#include "sim/cpu_cache.h"

namespace polarcxl::bench {
namespace {

using engine::BufferPoolKind;
using sim::CpuCacheSim;
using sim::ExecContext;

struct KernelResult {
  std::string name;
  double ns_per_op = 0;
  uint64_t ops = 0;
};

/// Runs `fn(iters)` in growing batches until it has consumed at least 40 ms
/// of thread CPU time, then reports ns/op over everything measured. `fn`
/// must return a value data-dependent on its work (defeats dead-code
/// elimination; the sink is printed at the end under -v).
template <typename Fn>
KernelResult TimeKernel(const char* name, uint64_t batch, Fn&& fn,
                        uint64_t* sink) {
  // Warm up: one batch primes host caches and the branch predictor.
  *sink += fn(batch);
  double elapsed = 0;
  uint64_t ops = 0;
  while (elapsed < 0.04) {
    const double t0 = harness::ThreadCpuSeconds();
    *sink += fn(batch);
    elapsed += harness::ThreadCpuSeconds() - t0;
    ops += batch;
  }
  KernelResult r;
  r.name = name;
  r.ns_per_op = elapsed * 1e9 / static_cast<double>(ops);
  r.ops = ops;
  return r;
}

// ---------------------------------------------------------------------------
// Node search kernels
// ---------------------------------------------------------------------------

std::vector<uint8_t> MakeNode(uint32_t stride, uint32_t n) {
  std::vector<uint8_t> node(static_cast<size_t>(stride) * n + 64, 0);
  for (uint32_t i = 0; i < n; i++) {
    const uint64_t key = 5 + 10ULL * i;
    std::memcpy(node.data() + static_cast<size_t>(i) * stride, &key, 8);
  }
  return node;
}

template <uint32_t (*Search)(const uint8_t*, uint32_t, uint32_t, uint64_t)>
KernelResult NodeSearchBench(const char* name, uint32_t stride, uint32_t n,
                             uint64_t* sink) {
  const std::vector<uint8_t> node = MakeNode(stride, n);
  const uint8_t* base = node.data();
  return TimeKernel(
      name, 200000,
      [&](uint64_t iters) {
        uint64_t acc = 0;
        uint64_t q = 12345;
        for (uint64_t i = 0; i < iters; i++) {
          q = q * 2862933555777941757ULL + 3037000493ULL;  // LCG query mix
          acc += Search(base, stride, n, q % (10ULL * n + 10));
        }
        return acc;
      },
      sink);
}

// ---------------------------------------------------------------------------
// CPU-cache-sim probe kernels
// ---------------------------------------------------------------------------

/// Memo-hit path: a line set small enough that every access after warm-up
/// is an AccessFastLine hit.
KernelResult CacheMemoHit(uint64_t* sink) {
  CpuCacheSim sim(4 << 20, 16);
  return TimeKernel(
      "cache_access_memo_hit", 200000,
      [&](uint64_t iters) {
        uint64_t acc = 0;
        for (uint64_t i = 0; i < iters; i++) {
          acc += sim.Access((i % 64) * kCacheLineSize, false, nullptr).hit;
        }
        return acc;
      },
      sink);
}

/// Probed-hit path: the working set fits the cache but spans far more lines
/// than the memo has slots, so most accesses fall through to the full
/// ProbeWays probe and still hit.
KernelResult CacheProbeHit(uint64_t* sink) {
  CpuCacheSim sim(4 << 20, 16);
  const uint64_t lines = (4 << 20) / kCacheLineSize / 4;  // quarter capacity
  return TimeKernel(
      "cache_access_probe_hit", 200000,
      [&](uint64_t iters) {
        uint64_t acc = 0;
        uint64_t x = 99;
        for (uint64_t i = 0; i < iters; i++) {
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
          acc += sim.Access((x % lines) * kCacheLineSize, false, nullptr).hit;
        }
        return acc;
      },
      sink);
}

/// Miss/evict path: a working set far larger than the cache, so nearly
/// every access probes, misses, and evicts an older line.
KernelResult CacheMissEvict(uint64_t* sink) {
  CpuCacheSim sim(1 << 20, 16);
  const uint64_t lines = 1ULL << 20;  // 64x the cache's line count
  return TimeKernel(
      "cache_access_miss_evict", 200000,
      [&](uint64_t iters) {
        uint64_t acc = 0;
        uint64_t x = 7;
        for (uint64_t i = 0; i < iters; i++) {
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
          acc += sim.Access((x % lines) * kCacheLineSize, true, nullptr).hit;
        }
        return acc;
      },
      sink);
}

/// Batched range kernel (what TouchRange/ProbeRange serve for multi-line
/// rows and frame streams): 64-line ranges over a warm region.
KernelResult CacheTouchRange(uint64_t* sink) {
  CpuCacheSim sim(8 << 20, 16);
  const uint64_t ranges = 256;
  return TimeKernel(
      "cache_touch_range64", 20000,
      [&](uint64_t iters) {
        uint64_t acc = 0;
        CpuCacheSim::RangeResult out;
        for (uint64_t i = 0; i < iters; i++) {
          sim.TouchRange((i % ranges) * 64, 64, false, nullptr, &out);
          acc += static_cast<uint64_t>(__builtin_popcountll(out.hit_mask));
        }
        return acc;  // ops below are counted per range (64 lines each)
      },
      sink);
}

// ---------------------------------------------------------------------------
// Buffer-pool Fetch/Unfix round-trip
// ---------------------------------------------------------------------------

/// One simulated host with every memory backend wired up, so each pool kind
/// gets its natural substrate (CXL region, DRAM frames, tiered RDMA).
struct KernelWorld {
  KernelWorld() : disk("d"), store(&disk), log(&disk) {
    POLAR_CHECK(fabric.AddDevice(256 << 20).ok());
    auto host = fabric.AttachHost(0);
    POLAR_CHECK(host.ok());
    acc = *host;
    manager = std::make_unique<cxl::CxlMemoryManager>(fabric.capacity());
    net.RegisterHost(0);
    net.RegisterHost(100);
    remote = std::make_unique<rdma::RemoteMemoryPool>(&net, 100, 1 << 15);
  }

  std::unique_ptr<engine::Database> MakeDb(BufferPoolKind kind,
                                           uint64_t rows = 1000,
                                           uint32_t pool_pages = 512) {
    engine::DatabaseEnv env;
    env.store = &store;
    env.log = &log;
    env.cxl = acc;
    env.cxl_manager = manager.get();
    env.remote = remote.get();
    engine::DatabaseOptions opt;
    opt.pool_kind = kind;
    opt.pool_pages = pool_pages;
    ExecContext ctx;
    auto db = engine::Database::Create(ctx, env, opt);
    POLAR_CHECK(db.ok());
    auto table = (*db)->CreateTable(ctx, "t", 64);
    POLAR_CHECK(table.ok());
    for (uint64_t k = 1; k <= rows; k++) {
      POLAR_CHECK((*table)->Insert(ctx, k, std::string(64, 'x')).ok());
    }
    return std::move(*db);
  }

  storage::SimDisk disk;
  storage::PageStore store;
  storage::RedoLog log;
  cxl::CxlFabric fabric;
  cxl::CxlAccessor* acc = nullptr;
  std::unique_ptr<cxl::CxlMemoryManager> manager;
  rdma::RdmaNetwork net;
  std::unique_ptr<rdma::RemoteMemoryPool> remote;
};

KernelResult FetchUnfix(const std::string& name, BufferPoolKind kind,
                        uint64_t* sink) {
  // The fetched page is the tree root, so after warm-up every Fetch is a
  // steady-state pool hit — the path a point select pays per descent level.
  KernelWorld world;
  auto db = world.MakeDb(kind);
  bufferpool::BufferPool* pool = db->pool();
  ExecContext ctx;
  ctx.cache = db->cache();
  const PageId root = db->table(size_t{0})->tree()->root();
  return TimeKernel(
      name.c_str(), 50000,
      [&](uint64_t iters) {
        uint64_t acc = 0;
        for (uint64_t i = 0; i < iters; i++) {
          auto ref = pool->Fetch(ctx, root, /*for_write=*/false);
          POLAR_CHECK(ref.ok());
          acc += ref->block;
          pool->Unfix(ctx, *ref, root, /*dirty=*/false, /*new_lsn=*/0);
        }
        return acc;
      },
      sink);
}

// ---------------------------------------------------------------------------
// B+tree operations
// ---------------------------------------------------------------------------

constexpr uint64_t kTreeRows = 20000;

/// Times `op(tree, ctx, i)` for i = 0, 1, ... on a warm B+tree of kTreeRows
/// 64-byte rows whose pool (8192 frames: every page stays resident, so
/// inserts never evict) is of `kind`.
template <typename Op>
KernelResult TreeKernel(const std::string& name, BufferPoolKind kind, Op op,
                        uint64_t* sink) {
  KernelWorld world;
  auto db = world.MakeDb(kind, kTreeRows, 8192);
  engine::BTree* tree = db->table(size_t{0})->tree();
  ExecContext ctx;
  ctx.cache = db->cache();
  uint64_t i = 0;
  return TimeKernel(
      name.c_str(), 20000,
      [&](uint64_t iters) {
        uint64_t acc = 0;
        for (const uint64_t end = i + iters; i < end; i++) {
          acc += op(tree, ctx, i);
        }
        return acc;
      },
      sink);
}

/// A scattered existing key: consecutive ops land on different leaves.
uint64_t TreeKey(uint64_t i) { return 1 + (i * 2654435761ULL) % kTreeRows; }

// ---------------------------------------------------------------------------
// Simulator bookkeeping
// ---------------------------------------------------------------------------

/// One 16 KB page transfer on a 12 GB/s channel every 2 us of virtual time.
KernelResult ChannelTransfer(uint64_t* sink) {
  sim::BandwidthChannel ch("bench", 12ULL * 1000 * 1000 * 1000);
  Nanos now = 0;
  return TimeKernel(
      "channel_transfer", 200000,
      [&](uint64_t iters) {
        uint64_t acc = 0;
        for (uint64_t i = 0; i < iters; i++) {
          acc += static_cast<uint64_t>(ch.Transfer(now, 16384));
          now += 2000;
        }
        return acc;
      },
      sink);
}

/// Latency-histogram insertion over an LCG spread of values below 2^30 ns.
KernelResult HistogramAdd(uint64_t* sink) {
  Histogram h;
  Nanos v = 1;
  return TimeKernel(
      "histogram_add", 200000,
      [&](uint64_t iters) {
        for (uint64_t i = 0; i < iters; i++) {
          h.Add(v);
          v = (v * 1664525 + 1013904223) & ((Nanos{1} << 30) - 1);
        }
        return h.count();
      },
      sink);
}

void WriteJson(const std::vector<KernelResult>& results) {
  harness::JsonWriter w("microkernels",
                        "host-side kernels in tight loops over pinned "
                        "working sets",
                        BenchScale());
  w.Field("unit", "ns_per_op (host CPU time, tight loop)")
      .Key("kernels")
      .BeginObject();
  for (const KernelResult& r : results) w.Field(r.name, r.ns_per_op, 2);
  w.EndObject();
  w.Commit();
}

int Main() {
  PrintHeader("kernel microbenchmarks",
              "n/a (host-side kernels: node search, cache probes, "
              "fetch/unfix, B+tree ops, channel, histogram)");
  std::vector<KernelResult> results;
  uint64_t sink = 0;

  // Node search: internal-node stride (8B key + 4B child) at B+tree fanout,
  // and leaf stride for a 64B row; scalar reference beside the fast kernel.
  results.push_back(NodeSearchBench<engine::NodeLowerBound>(
      "node_search_internal", 12, 1360, &sink));
  results.push_back(NodeSearchBench<engine::NodeLowerBoundScalar>(
      "node_search_internal_scalar", 12, 1360, &sink));
  results.push_back(NodeSearchBench<engine::NodeLowerBound>(
      "node_search_leaf64", 72, 226, &sink));
  results.push_back(NodeSearchBench<engine::NodeLowerBoundScalar>(
      "node_search_leaf64_scalar", 72, 226, &sink));

  results.push_back(CacheMemoHit(&sink));
  results.push_back(CacheProbeHit(&sink));
  results.push_back(CacheMissEvict(&sink));
  results.push_back(CacheTouchRange(&sink));

  const std::pair<BufferPoolKind, std::string> kinds[] = {
      {BufferPoolKind::kCxl, "cxl"},
      {BufferPoolKind::kDram, "dram"},
      {BufferPoolKind::kTieredRdma, "tiered_rdma"},
  };
  for (const auto& [kind, kind_name] : kinds) {
    results.push_back(FetchUnfix("fetch_unfix_" + kind_name, kind, &sink));
    std::string row;  // capacity reused: a steady-state get allocates nothing
    results.push_back(TreeKernel(
        "btree_get_" + kind_name, kind,
        [&row](engine::BTree* tree, ExecContext& ctx, uint64_t i) {
          POLAR_CHECK(tree->GetTo(ctx, TreeKey(i), &row).ok());
          return row.size();
        },
        &sink));
    results.push_back(TreeKernel(
        "btree_update_" + kind_name, kind,
        [](engine::BTree* tree, ExecContext& ctx, uint64_t i) {
          const uint32_t v = static_cast<uint32_t>(i);
          const Slice patch(reinterpret_cast<const char*>(&v), 4);
          POLAR_CHECK(tree->UpdatePartial(ctx, TreeKey(i), 0, patch).ok());
          return uint64_t{1};
        },
        &sink));
  }
  const std::string value(64, 'y');
  results.push_back(TreeKernel(
      "btree_insert_cxl", BufferPoolKind::kCxl,
      [&value](engine::BTree* tree, ExecContext& ctx, uint64_t i) {
        // Ascending new keys: the tree grows at its right edge.
        POLAR_CHECK(tree->Insert(ctx, kTreeRows + 1 + i, value).ok());
        return uint64_t{1};
      },
      &sink));

  results.push_back(ChannelTransfer(&sink));
  results.push_back(HistogramAdd(&sink));

  harness::ReportTable table("Kernel timings (" + std::string(kSimdLevel) +
                                 " build)",
                             {"kernel", "ns/op", "ops"});
  for (const KernelResult& r : results) {
    table.AddRow({r.name, harness::Fmt(r.ns_per_op, 2), std::to_string(r.ops)});
  }
  table.Print();
  std::printf("sink=%llu\n", static_cast<unsigned long long>(sink));
  WriteJson(results);
  return 0;
}

}  // namespace
}  // namespace polarcxl::bench

int main() { return polarcxl::bench::Main(); }
