#include "sim/memory_space.h"

#include <algorithm>

#include "common/prof.h"
#include "sim/epoch.h"

namespace polarcxl::sim {

Nanos MemorySpace::ChargeChannels(ExecContext& ctx, Nanos now,
                                  uint64_t bytes) {
  POLAR_PROF_SCOPE(kChannels);
  Nanos done = now;
  if (opt_.link != nullptr) {
    done = ChargeChannel(ctx, *opt_.link, now, bytes);
  }
  if (opt_.pool != nullptr) {
    done = std::max(done, ChargeChannel(ctx, *opt_.pool, now, bytes));
  }
  return done;
}

Nanos MemorySpace::ChargeRoute(ExecContext& ctx, uint64_t addr,
                               uint64_t bytes, Nanos* service_extra) {
  const RouteCost* rc = opt_.router->Resolve(addr);
  if (rc == nullptr) return 0;
  Nanos done = 0;
  for (uint32_t i = 0; i < rc->num_channels; i++) {
    done = std::max(done, ChargeChannel(ctx, *rc->channels[i], ctx.now,
                                        bytes));
  }
  if (service_extra != nullptr) *service_extra += rc->extra_latency;
  return done;
}

void MemorySpace::ChargeMiss(ExecContext& ctx, uint32_t miss_idx, bool write,
                             uint64_t addr) {
  ctx.mem_line_misses++;
  Nanos queued_done = ChargeChannels(ctx, ctx.now, kCacheLineSize);
  // First miss of the call pays full latency; later misses overlap and
  // pay only the pipelined slope (memory-level parallelism).
  Nanos service =
      miss_idx == 0
          ? opt_.line_latency
          : static_cast<Nanos>(write ? opt_.stream_write.per_line_ns
                                     : opt_.stream_read.per_line_ns);
  if (opt_.router != nullptr) {
    queued_done = std::max(
        queued_done, ChargeRoute(ctx, addr, kCacheLineSize,
                                 miss_idx == 0 ? &service : nullptr));
  }
  ctx.now = std::max(ctx.now + service, queued_done + service - 1);
}

void MemorySpace::ChargeWriteback(ExecContext& ctx, uint64_t addr,
                                  uint64_t bytes) {
  ChargeChannels(ctx, ctx.now, bytes);
  if (opt_.router != nullptr) ChargeRoute(ctx, addr, bytes, nullptr);
}

void MemorySpace::TouchSingleMiss(ExecContext& ctx,
                                  const CpuCacheSim::AccessResult& r,
                                  bool write, uint64_t addr) {
  const Nanos entry = ctx.now;
  if (r.evicted_dirty && r.evicted_home != nullptr) {
    // Posted writeback: consumes the victim's home bandwidth but does
    // not stall the lane.
    r.evicted_home->ChargeWriteback(ctx, r.evicted_addr, kCacheLineSize);
  }
  ChargeMiss(ctx, 0, write, addr);
  ctx.t_mem += ctx.now - entry;
}

void MemorySpace::MissLines(ExecContext& ctx, uint64_t first, uint64_t last,
                            bool write) {
  const Nanos entry = ctx.now;
  uint32_t miss_idx = 0;
  for (uint64_t line = first; line <= last; line++) {
    ChargeMiss(ctx, miss_idx, write, line * kCacheLineSize);
    miss_idx++;
  }
  ctx.t_mem += ctx.now - entry;
}

void MemorySpace::TouchMulti(ExecContext& ctx, uint64_t first, uint64_t last,
                             bool write) {
  if (ctx.cache == nullptr) {
    MissLines(ctx, first, last, write);
    return;
  }
  const Nanos entry = ctx.now;
  uint32_t miss_idx = 0;
  // Let the cache sim classify up to 64 lines per call, then replay the
  // timing charges in the original line order. Hits only advance the clock
  // (+kCpuCacheHit each, no channel traffic), so a run of consecutive hits
  // is applied as one multiplication; misses and dirty evictions must replay
  // one by one because each channel Transfer both depends on and advances
  // ctx.now.
  CpuCacheSim::RangeResult rr;
  for (uint64_t line = first; line <= last;) {
    const uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(64, last - line + 1));
    ctx.cache->TouchRange(line, chunk, write, this, &rr);
    uint32_t ev = 0;
    uint32_t i = 0;
    while (i < chunk) {
      const uint64_t rest = rr.hit_mask >> i;
      if (rest & 1) {
        // Length of the consecutive-hit run starting at i.
        const uint32_t run =
            ~rest == 0 ? 64 - i
                       : static_cast<uint32_t>(__builtin_ctzll(~rest));
        ctx.mem_line_hits += run;
        ctx.now += LineLatency::kCpuCacheHit * static_cast<Nanos>(run);
        i += run;
        continue;
      }
      if (ev < rr.num_evictions && rr.evictions[ev].index == i) {
        MemorySpace* home = rr.evictions[ev].home;
        if (home != nullptr) {
          home->ChargeWriteback(ctx, rr.evictions[ev].addr, kCacheLineSize);
        }
        ev++;
      }
      ChargeMiss(ctx, miss_idx, write, (line + i) * kCacheLineSize);
      miss_idx++;
      i++;
    }
    line += chunk;
  }
  ctx.t_mem += ctx.now - entry;
}

void MemorySpace::Stream(ExecContext& ctx, uint64_t addr, uint32_t len,
                         bool write) {
  if (len == 0) return;
  POLAR_PROF_SCOPE(kCacheSim);
  const Nanos entry = ctx.now;
  const uint32_t lines = (len + kCacheLineSize - 1) / kCacheLineSize;
  const StreamCost& sc = write ? opt_.stream_write : opt_.stream_read;
  Nanos queued_done = ChargeChannels(ctx, ctx.now, len);
  Nanos service = sc.Cost(lines);
  if (opt_.router != nullptr) {
    // The whole stream is one fabric transaction: the route's extra
    // latency is paid once, and the full payload rides every crossed
    // channel.
    queued_done = std::max(queued_done,
                           ChargeRoute(ctx, addr, len, &service));
  }
  ctx.now = std::max(ctx.now + service, queued_done);
  // Streamed data may still sit in cache from earlier Touches; a subsequent
  // Touch will simply hit. We deliberately do not install streamed lines.
  ctx.t_mem += ctx.now - entry;
}

void MemorySpace::TouchUncached(ExecContext& ctx, uint64_t addr,
                                uint32_t len, bool write) {
  if (len == 0) return;
  POLAR_PROF_SCOPE(kCacheSim);
  MissLines(ctx, addr / kCacheLineSize, (addr + len - 1) / kCacheLineSize,
            write);
}

uint32_t MemorySpace::Flush(ExecContext& ctx, uint64_t addr, uint32_t len) {
  POLAR_PROF_SCOPE(kCacheSim);
  const Nanos entry = ctx.now;
  uint32_t dirty = 0;
  uint32_t clean = 0;
  if (ctx.cache != nullptr) {
    ctx.cache->FlushRange(addr, len, &dirty, &clean);
  }
  if (dirty > 0) {
    Nanos queued_done = ChargeChannels(
        ctx, ctx.now, static_cast<uint64_t>(dirty) * kCacheLineSize);
    const Nanos service = opt_.clflush_line * dirty;
    if (opt_.router != nullptr) {
      // Route resolved once at the range head: flush batches stay one
      // fabric transaction (a range can interleave across devices, but
      // per-line resolution is not worth the precision here).
      queued_done = std::max(
          queued_done,
          ChargeRoute(ctx, addr, static_cast<uint64_t>(dirty) * kCacheLineSize,
                      nullptr));
    }
    ctx.now = std::max(ctx.now + service, queued_done);
  }
  ctx.now += static_cast<Nanos>(clean) * opt_.invalidate_line;
  ctx.t_mem += ctx.now - entry;
  return dirty;
}

void MemorySpace::Invalidate(ExecContext& ctx, uint64_t addr, uint32_t len) {
  POLAR_PROF_SCOPE(kCacheSim);
  const Nanos entry = ctx.now;
  uint32_t dirty = 0;
  uint32_t clean = 0;
  if (ctx.cache != nullptr) {
    ctx.cache->FlushRange(addr, len, &dirty, &clean);
  }
  // Coherency invalidation targets clean lines (the protocol guarantees no
  // concurrent writer), but if dirty lines exist they must be written back.
  if (dirty > 0) {
    ChargeChannels(ctx, ctx.now,
                   static_cast<uint64_t>(dirty) * kCacheLineSize);
    if (opt_.router != nullptr) {
      ChargeRoute(ctx, addr, static_cast<uint64_t>(dirty) * kCacheLineSize,
                  nullptr);
    }
    ctx.now += opt_.clflush_line * dirty;
  }
  ctx.now += static_cast<Nanos>(clean) * opt_.invalidate_line;
  ctx.t_mem += ctx.now - entry;
}

}  // namespace polarcxl::sim
