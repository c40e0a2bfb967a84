// Copyright 2026 The PolarCXLMem Reproduction Authors.
// A memory domain (local DRAM, CXL-behind-switch, ...) with a latency
// profile, optional shared bandwidth channels, and CPU-cache interplay.
// Buffer pools and the engine charge all of their memory traffic through
// MemorySpace, which is what makes read/write amplification and bandwidth
// saturation observable.
#pragma once

#include <cstdint>
#include <string>

#include "common/macros.h"
#include "common/prof.h"
#include "common/types.h"
#include "sim/bandwidth_channel.h"
#include "sim/cpu_cache.h"
#include "sim/exec_context.h"
#include "sim/latency_model.h"
#include "sim/route.h"

namespace polarcxl::sim {

/// Cost view of one physical memory domain. The actual bytes are owned
/// elsewhere (e.g., by CxlMemoryDevice); MemorySpace only models time and
/// bandwidth. It holds no mutable state: every charge lands on the
/// caller's ExecContext, its CPU cache and the channels, so world
/// snapshots have nothing of it to capture.
class MemorySpace {
 public:
  /// Latency defaults are LatencyModel's local DRAM profile.
  struct Options {
    std::string name = "mem";
    /// Latency of one uncached line access.
    Nanos line_latency = LatencyModel{}.line.dram_local;
    /// Streaming (multi-line pipelined) profile.
    StreamCost stream_read = LatencyModel{}.dram_stream_read;
    StreamCost stream_write = LatencyModel{}.dram_stream_write;
    /// Link between the accessing host and this memory (nullable). All
    /// traffic — demand misses, streams, writebacks — occupies it.
    BandwidthChannel* link = nullptr;
    /// Device/pool-side channel shared by all hosts (nullable).
    BandwidthChannel* pool = nullptr;
    /// Address-dependent fabric route (nullable). When set, every miss /
    /// stream / writeback resolves its physical address and additionally
    /// rides the returned channels (switch uplinks, transit fabrics, device
    /// port) and pays the route's extra latency. Null = legacy link+pool
    /// cost only.
    const AddressRouter* router = nullptr;
    /// clflush cost per dirty line and invalidate cost per clean line.
    Nanos clflush_line = LatencyModel{}.cxl_clflush_line;
    Nanos invalidate_line = LatencyModel{}.invalidate_line;
  };

  explicit MemorySpace(Options options) : opt_(std::move(options)) {}
  // CPU-cache lines name their home space by address.
  POLAR_DISALLOW_COPY(MemorySpace);

  /// Access `len` bytes at `addr` with CPU-cache semantics, charging
  /// ctx.now. Within one call, the first miss pays full latency and further
  /// misses pay the pipelined streaming slope (models MLP).
  ///
  /// Defined here so the dominant call shape — a single line, hitting in
  /// cache (b-tree probes, header reads) — inlines into callers; ranges and
  /// lanes without a CPU cache take the out-of-line path.
  void Touch(ExecContext& ctx, uint64_t addr, uint32_t len, bool write) {
    if (len == 0) return;
    POLAR_PROF_SCOPE(kCacheSim);
    TouchElem(ctx, addr, len, ctx.cache != nullptr, write);
  }

  /// Fused sequence of Touch() calls against one frame: element i accesses
  /// `lens ? lens[i] : uniform_len` bytes at `base + offs[i]`, and writes
  /// them when bit i of `write_mask` is set (so n <= 64). Simulated state
  /// and time evolve exactly as if Touch() were called once per element in
  /// order — in particular the first-miss-pays-full-latency MLP reset
  /// applies per element, not per sequence. What is saved is host work: one
  /// call (and one profiler scope) instead of n, with the single-line
  /// classification hoisted per element inside one loop. This is the
  /// engine's read charge for b-tree probe lists (uniform 8-byte key reads)
  /// and fused probes+payload batches, with a zero mask, and the buffer
  /// pools' fused metadata charge, where one Fetch emits a mixed read/write
  /// sequence over the header/meta lines.
  void TouchSeqMasked(ExecContext& ctx, uint64_t base, const uint32_t* offs,
                      const uint32_t* lens, uint32_t n, uint32_t uniform_len,
                      uint64_t write_mask) {
    POLAR_PROF_SCOPE(kCacheSim);
    const bool cached = ctx.cache != nullptr;
    for (uint32_t i = 0; i < n; i++) {
      const uint32_t len = lens != nullptr ? lens[i] : uniform_len;
      if (len == 0) continue;
      TouchElem(ctx, base + offs[i], len, cached, (write_mask >> i) & 1);
    }
  }

  /// Bulk copy of `len` bytes (page transfer / memcpy) at streaming cost;
  /// bypasses the CPU cache model.
  void Stream(ExecContext& ctx, uint64_t addr, uint32_t len, bool write);

  /// Uncached access (ntload/ntstore): always pays device latency, never
  /// consults or fills the CPU cache — charged exactly like Touch() from a
  /// lane without a CPU cache. Used for coherency flags that another host
  /// may overwrite at any time.
  void TouchUncached(ExecContext& ctx, uint64_t addr, uint32_t len,
                     bool write);

  /// clflush [addr, addr+len): writes back dirty lines, drops all resident
  /// lines. Returns the number of dirty lines written back.
  uint32_t Flush(ExecContext& ctx, uint64_t addr, uint32_t len);

  /// Drop resident lines of the range from the CPU cache (coherency
  /// invalidation of clean data: next access will miss to the device).
  void Invalidate(ExecContext& ctx, uint64_t addr, uint32_t len);

  const std::string& name() const { return opt_.name; }
  Nanos line_latency() const { return opt_.line_latency; }
  BandwidthChannel* link() const { return opt_.link; }
  BandwidthChannel* pool() const { return opt_.pool; }

 private:
  /// One Touch()-equivalent access (shared body of Touch and the fused
  /// sequence kernels; `cached` is hoisted by the caller). len must be > 0.
  void TouchElem(ExecContext& ctx, uint64_t addr, uint32_t len, bool cached,
                 bool write) {
    const uint64_t first = addr / kCacheLineSize;
    const uint64_t last = (addr + len - 1) / kCacheLineSize;
    if (first == last && cached) {
      // Memo-hit check first: it applies the full hit-path state updates
      // itself, so the (large, out-of-line) probe is skipped entirely for
      // the hot repeating lines.
      if (ctx.cache->AccessFastLine(first, write)) {
        ctx.mem_line_hits++;
        ctx.now += LineLatency::kCpuCacheHit;
        ctx.t_mem += LineLatency::kCpuCacheHit;
        return;
      }
      const auto r = ctx.cache->AccessProbeLine(first, write, this);
      if (r.hit) {
        ctx.mem_line_hits++;
        ctx.now += LineLatency::kCpuCacheHit;
        ctx.t_mem += LineLatency::kCpuCacheHit;
        return;
      }
      TouchSingleMiss(ctx, r, write, first * kCacheLineSize);
      return;
    }
    TouchMulti(ctx, first, last, write);
  }

  /// Charge the channels for `bytes` moving between host and device at time
  /// `now`; returns the (possibly queued) completion time. Routed through
  /// `ctx`'s effect queue so shared channels defer under epoch-parallel
  /// execution.
  Nanos ChargeChannels(ExecContext& ctx, Nanos now, uint64_t bytes);

  /// Charge one demand-miss line at ctx.now: channel traffic plus service
  /// latency (full line latency for the first miss of a call, pipelined
  /// streaming slope for the rest — memory-level parallelism). `addr` is
  /// the line's physical address, used only for fabric routing.
  void ChargeMiss(ExecContext& ctx, uint32_t miss_idx, bool write,
                  uint64_t addr);

  /// Resolve `addr` against opt_.router and charge every route channel for
  /// `bytes` at ctx.now; returns the latest queued completion (0 when the
  /// route is empty). When `service_extra` is non-null the route's extra
  /// traversal latency is added to it (first miss / stream head only —
  /// later pipelined misses overlap the path like they overlap the device).
  Nanos ChargeRoute(ExecContext& ctx, uint64_t addr, uint64_t bytes,
                    Nanos* service_extra);

  /// Posted writeback of an evicted dirty line homed in THIS space:
  /// consumes this home's channels (and its fabric route for `addr`)
  /// without stalling the lane.
  void ChargeWriteback(ExecContext& ctx, uint64_t addr, uint64_t bytes);

  /// Out-of-line halves of Touch(): the miss/eviction tail of a single-line
  /// access, and the chunked multi-line path (which also takes every access
  /// from a lane with no CPU cache).
  void TouchSingleMiss(ExecContext& ctx, const CpuCacheSim::AccessResult& r,
                       bool write, uint64_t addr);
  void TouchMulti(ExecContext& ctx, uint64_t first, uint64_t last,
                  bool write);

  /// Lines [first, last] as demand misses that bypass the CPU cache: the
  /// whole of an uncached access, and of a Touch() from a lane with no
  /// CPU cache.
  void MissLines(ExecContext& ctx, uint64_t first, uint64_t last,
                 bool write);

  Options opt_;
};

}  // namespace polarcxl::sim
