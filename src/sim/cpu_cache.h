// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Set-associative CPU cache simulator. Tracks which cache lines of the
// simulated physical address space are resident/dirty so that (a) CXL/DRAM
// access costs reflect locality, and (b) the Section 3.3 coherency protocol
// can count exactly how many dirty lines a clflush writes back.
//
// This is the single hottest function of the whole simulator (one call per
// simulated cache-line access), so the layout is optimized for the probe
// path: tags live in their own contiguous array (a set's tags span at most
// two host cache lines), sets are a power of two so indexing is a mask, and
// residency/dirtiness are per-set bitmasks so empty sets are skipped in O(1).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/simd.h"
#include "common/types.h"

namespace polarcxl::sim {

class MemorySpace;

/// One CPU cache domain (the LLC share of one database instance). Not
/// thread-safe; the executor serializes all lanes of an experiment (distinct
/// experiments own distinct caches and may run on distinct threads).
class CpuCacheSim {
 public:
  /// `capacity_bytes` is rounded down to a whole power-of-two number of
  /// sets (capacity_bytes() reports the effective size).
  CpuCacheSim(uint64_t capacity_bytes, uint32_t ways = 16);

  struct AccessResult {
    bool hit = false;
    bool evicted_dirty = false;
    uint64_t evicted_addr = 0;      // line-aligned byte address
    MemorySpace* evicted_home = nullptr;
  };

  /// Memo-only hit test for the line containing `addr` (the dominant case:
  /// hot lines — root-page keys, LRU heads, block metadata — repeat
  /// constantly). On a memo hit this applies exactly the updates the full
  /// probe path would (tick refresh, dirty bit, hit counter), so callers
  /// may skip AccessProbe() entirely; on false nothing was touched.
  ///
  /// Kept tiny and separate from the probe/evict tail so MemorySpace::Touch
  /// — one call per simulated line access — inlines whole into its callers;
  /// see Access().
  bool AccessFast(uint64_t addr, bool write) {
    return AccessFastLine(addr / kCacheLineSize, write);
  }

  /// Line-number form of AccessFast for callers that already divided the
  /// address (MemorySpace::Touch computes the line to classify single-line
  /// accesses; round-tripping through a byte address re-did the shift).
  bool AccessFastLine(uint64_t line, bool write) {
    const uint64_t tag = line + 1;
    // Recent-line memo, direct-mapped by line: hot lines repeat far apart
    // in the access stream, so a keyed table catches them where an MRU
    // pair would thrash. The tag re-check against the slot makes an entry
    // self-invalidating if its slot was since evicted; state evolution is
    // identical to the probed hit path (same tick/dirty/counter updates),
    // so the memo never alters simulated time.
    Memo& memo = st_.memo[static_cast<uint32_t>(line) & (kMemoSize - 1)];
    if (tag == memo.tag && st_.tags[memo.slot] == tag) {
      st_.ticks[memo.slot] = ++st_.tick;
      if (write) st_.dirty[memo.set] |= memo.bit;
      st_.hits++;
      return true;
    }
    return false;
  }

  /// Access the line containing `addr`. On miss the line is installed
  /// (write-allocate) and the victim, if dirty, is reported for writeback
  /// accounting. `home` is remembered for future eviction/flush charging.
  AccessResult Access(uint64_t addr, bool write, MemorySpace* home) {
    AccessResult result;
    if (AccessFast(addr, write)) {
      result.hit = true;
      return result;
    }
    return AccessProbe(addr, write, home);
  }

  AccessResult AccessProbe(uint64_t addr, bool write, MemorySpace* home) {
    return AccessProbeLine(addr / kCacheLineSize, write, home);
  }

  /// The probe/evict tail of Access(), taken when the memo misses.
  /// Out-of-line on purpose: it is large, and keeping it out of Access()
  /// lets the memo fast path inline at every Touch call site.
  POLAR_NOINLINE AccessResult AccessProbeLine(uint64_t line, bool write,
                                              MemorySpace* home) {
    AccessResult result;
    const uint64_t tag = line + 1;
    const uint32_t set = SetIndex(line);
    const size_t base = static_cast<size_t>(set) * ways_;
    const uint64_t* tags = &st_.tags[base];
    st_.tick++;

    // Branchless probe (no early exit) so the compiler can vectorize the
    // tag compares; a set's tags are contiguous (at most two host lines).
    const uint32_t match = ProbeWays(tags, tag);
    if (match != ways_) {
      st_.ticks[base + match] = st_.tick;
      if (write) st_.dirty[set] |= 1ULL << match;
      st_.hits++;
      result.hit = true;
      SetMemo(tag, base + match, set, match);
      return result;
    }

    st_.misses++;
    const uint64_t valid = st_.valid[set];
    uint32_t victim;
    if (valid != full_set_mask_) {
      victim = static_cast<uint32_t>(
          __builtin_ctzll(~valid & full_set_mask_));
      st_.valid[set] = valid | (1ULL << victim);
      st_.live_lines++;
    } else {
      victim = 0;
      uint32_t best = st_.ticks[base];
      for (uint32_t w = 1; w < ways_; w++) {
        if (st_.ticks[base + w] < best) {
          best = st_.ticks[base + w];
          victim = w;
        }
      }
      if ((st_.dirty[set] >> victim) & 1) {
        result.evicted_dirty = true;
        result.evicted_addr = (tags[victim] - 1) * kCacheLineSize;
        result.evicted_home = st_.homes[base + victim];
      }
    }
    st_.tags[base + victim] = tag;
    st_.homes[base + victim] = home;
    st_.ticks[base + victim] = st_.tick;
    if (write) {
      st_.dirty[set] |= 1ULL << victim;
    } else {
      st_.dirty[set] &= ~(1ULL << victim);
    }
    SetMemo(tag, base + victim, set, victim);
    return result;
  }

  /// Batched access to `count` consecutive lines (count <= 64), equivalent
  /// to calling Access() once per line in ascending order — the resulting
  /// cache state (tags/ticks/valid/dirty/counters) is bit-identical. Bit i
  /// of `hit_mask` reports a hit for line `first_line + i`; dirty evictions
  /// are recorded in line order with the index of the miss that caused
  /// them, so the caller can replay timing charges in the original order.
  struct RangeResult {
    uint64_t hit_mask;
    uint32_t num_evictions;
    struct Eviction {
      uint32_t index;          // which line of the range evicted it
      uint64_t addr;           // line-aligned byte address of the victim
      MemorySpace* home;
    };
    Eviction evictions[64];
  };

  /// Faster than per-line Access() for ranges: each line first consults
  /// the recent-line memo (distinct lines use distinct slots, so re-read
  /// rows hit per line), and whole-set misses are classified with one
  /// `valid` bitmask test instead of a 16-way tag probe. The memo never
  /// influences simulated state — memo and probed hit paths apply the
  /// same tick/dirty updates — so all of this is exact.
  void TouchRange(uint64_t first_line, uint32_t count, bool write,
                  MemorySpace* home, RangeResult* out) {
    // Hash every line's set up front (pure arithmetic) and prefetch the
    // tag rows: the multiplicative hash scatters consecutive lines across
    // a tags array much larger than host L2, so the serial loop in
    // ProbeRange would otherwise stall on each row. ProbeRange reuses the
    // precomputed indices, so the hash is not paid twice.
    uint32_t sets[64];
    for (uint32_t i = 0; i < count; i++) {
      sets[i] = SetIndex(first_line + i);
      __builtin_prefetch(&st_.tags[static_cast<size_t>(sets[i]) * ways_]);
    }
    ProbeRange(first_line, count, write, home, sets, out);
  }

  /// The classify/install kernel behind TouchRange: `sets[i]` must be
  /// SetIndex(first_line + i) (TouchRange precomputes and prefetches them;
  /// separated so callers that already know the set indices — or want to
  /// interleave prefetch with other work — skip the hash pass). Each
  /// non-empty probed set costs one tags-row load via ProbeWays.
  void ProbeRange(uint64_t first_line, uint32_t count, bool write,
                  MemorySpace* home, const uint32_t* sets,
                  RangeResult* out) {
    out->hit_mask = 0;
    out->num_evictions = 0;
    for (uint32_t i = 0; i < count; i++) {
      const uint64_t line = first_line + i;
      const uint64_t tag = line + 1;
      // Distinct lines occupy distinct memo slots, so a re-read of a
      // recently touched multi-line row hits per line here without any
      // probing; the updates AccessFastLine applies are identical to the
      // probed hit path below.
      if (AccessFastLine(line, write)) {
        out->hit_mask |= 1ULL << i;
        continue;
      }
      const uint32_t set = sets[i];
      const size_t base = static_cast<size_t>(set) * ways_;
      st_.tick++;
      const uint64_t valid = st_.valid[set];
      if (valid == 0) {
        // Empty set: installs into way 0 without probing any tags.
        st_.misses++;
        st_.valid[set] = 1;
        st_.live_lines++;
        st_.tags[base] = tag;
        st_.homes[base] = home;
        st_.ticks[base] = st_.tick;
        if (write) {
          st_.dirty[set] |= 1;
        } else {
          st_.dirty[set] &= ~1ULL;
        }
        SetMemo(tag, base, set, 0);
        continue;
      }
      const uint64_t* tags = &st_.tags[base];
      const uint32_t match = ProbeWays(tags, tag);
      if (match != ways_) {
        st_.ticks[base + match] = st_.tick;
        if (write) st_.dirty[set] |= 1ULL << match;
        st_.hits++;
        out->hit_mask |= 1ULL << i;
        SetMemo(tag, base + match, set, match);
        continue;
      }
      st_.misses++;
      uint32_t victim;
      if (valid != full_set_mask_) {
        victim = static_cast<uint32_t>(
            __builtin_ctzll(~valid & full_set_mask_));
        st_.valid[set] = valid | (1ULL << victim);
        st_.live_lines++;
      } else {
        victim = 0;
        uint32_t best = st_.ticks[base];
        for (uint32_t w = 1; w < ways_; w++) {
          if (st_.ticks[base + w] < best) {
            best = st_.ticks[base + w];
            victim = w;
          }
        }
        if ((st_.dirty[set] >> victim) & 1) {
          RangeResult::Eviction& ev = out->evictions[out->num_evictions++];
          ev.index = i;
          ev.addr = (tags[victim] - 1) * kCacheLineSize;
          ev.home = st_.homes[base + victim];
        }
      }
      st_.tags[base + victim] = tag;
      st_.homes[base + victim] = home;
      st_.ticks[base + victim] = st_.tick;
      if (write) {
        st_.dirty[set] |= 1ULL << victim;
      } else {
        st_.dirty[set] &= ~(1ULL << victim);
      }
      SetMemo(tag, base + victim, set, victim);
    }
  }

  /// True if the line containing addr is resident.
  bool Contains(uint64_t addr) const;

  /// clflush semantics over [addr, addr+len): every resident line is
  /// dropped; the number of *dirty* lines (writebacks needed) is returned in
  /// `dirty_out` and the number of clean resident lines in `clean_out`.
  void FlushRange(uint64_t addr, uint64_t len, uint32_t* dirty_out,
                  uint32_t* clean_out);

  /// Drop lines without writeback accounting (used when the simulation
  /// resets an instance; a crash powering off a host does this implicitly).
  void InvalidateAll();

  uint64_t hits() const { return st_.hits; }
  uint64_t misses() const { return st_.misses; }
  uint64_t capacity_bytes() const {
    return static_cast<uint64_t>(num_sets_) * ways_ * kCacheLineSize;
  }
  uint32_t ways() const { return ways_; }
  uint32_t num_sets() const { return num_sets_; }
  /// Currently resident lines (diagnostics / cheap emptiness checks).
  uint64_t live_lines() const { return st_.live_lines; }

  // Recent-hit memo (see Access), direct-mapped by line address. tag == 0
  // means empty; a stale entry is harmless because the slot's tag is
  // re-checked before use. 256 entries x 32 bytes stays within host L1
  // while catching well over half of single-line accesses.
  static constexpr uint32_t kMemoSize = 256;
  struct Memo {
    uint64_t tag = 0;
    size_t slot = 0;
    uint32_t set = 0;
    uint64_t bit = 0;
  };

  /// Full mutable cache state, for world snapshot/restore. homes stores
  /// raw MemorySpace pointers, so a State is only valid for restoring the
  /// same world instance it was captured from (restore-in-place).
  struct State {
    uint32_t tick = 0;
    uint64_t live_lines = 0;
    std::array<Memo, kMemoSize> memo{};
    // Structure-of-arrays slot state, row-major by set: the probe loop
    // only touches tags; ticks/homes are visited on hit-refresh/eviction.
    std::vector<uint64_t> tags;  // (line_addr + 1); 0 == empty
    std::vector<uint32_t> ticks;
    std::vector<MemorySpace*> homes;
    // Per-set way bitmasks (ways <= 64).
    std::vector<uint64_t> valid;
    std::vector<uint64_t> dirty;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  State Capture() const { return st_; }

  void Restore(const State& s) {
    POLAR_CHECK(s.tags.size() == st_.tags.size());
    st_ = s;
  }

 private:
  /// Way index holding `tag`, or ways_ if absent. A tag lives in at most
  /// one way of its set (installs happen only on miss), so accumulating an
  /// equality bitmask and taking ctz is exact. The 16-way layout (tags span
  /// exactly two host cache lines) is by far the common configuration, so
  /// it gets an explicit packed-compare specialization: four 256-bit (or
  /// eight 128-bit) equality compares folded into one 16-bit mask. The
  /// scalar mask loop is both the non-16-way path and the POLAR_NO_SIMD
  /// fallback; all variants return the identical index.
  uint32_t ProbeWays(const uint64_t* tags, uint64_t tag) const {
    uint32_t mask = 0;
#if POLAR_SIMD_AVX2
    if (ways_ == 16) {
      const __m256i needle = _mm256_set1_epi64x(static_cast<long long>(tag));
      for (uint32_t i = 0; i < 4; i++) {
        const __m256i row = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(tags + 4 * i));
        const __m256i eq = _mm256_cmpeq_epi64(row, needle);
        mask |= static_cast<uint32_t>(
                    _mm256_movemask_pd(_mm256_castsi256_pd(eq)))
                << (4 * i);
      }
      return mask != 0 ? static_cast<uint32_t>(__builtin_ctz(mask)) : 16;
    }
#elif POLAR_SIMD_SSE41
    if (ways_ == 16) {
      const __m128i needle = _mm_set1_epi64x(static_cast<long long>(tag));
      for (uint32_t i = 0; i < 8; i++) {
        const __m128i row = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(tags + 2 * i));
        const __m128i eq = _mm_cmpeq_epi64(row, needle);
        mask |= static_cast<uint32_t>(
                    _mm_movemask_pd(_mm_castsi128_pd(eq)))
                << (2 * i);
      }
      return mask != 0 ? static_cast<uint32_t>(__builtin_ctz(mask)) : 16;
    }
#else
    if (ways_ == 16) {
      for (uint32_t w = 0; w < 16; w++) {
        mask |= static_cast<uint32_t>(tags[w] == tag) << w;
      }
      return mask != 0 ? static_cast<uint32_t>(__builtin_ctz(mask)) : 16;
    }
#endif
    for (uint32_t w = 0; w < ways_; w++) {
      mask |= static_cast<uint32_t>(tags[w] == tag) << w;
    }
    return mask != 0 ? static_cast<uint32_t>(__builtin_ctz(mask)) : ways_;
  }

  void SetMemo(uint64_t tag, size_t slot, uint32_t set, uint32_t way) {
    // tag is line + 1, so (tag - 1) recovers the memo index key.
    st_.memo[static_cast<uint32_t>(tag - 1) & (kMemoSize - 1)] =
        Memo{tag, slot, set, 1ULL << way};
  }

  uint32_t SetIndex(uint64_t line_addr) const {
    // Multiplicative hash avoids pathological striding when buffer pools
    // hand out page-aligned regions; sets are a power of two so the mix is
    // reduced with a mask instead of a modulo.
    return static_cast<uint32_t>((line_addr * 0x9E3779B97F4A7C15ULL) >> 33) &
           set_mask_;
  }

  uint32_t num_sets_;
  uint32_t set_mask_;        // num_sets_ - 1
  uint32_t ways_;
  uint64_t full_set_mask_;   // low `ways_` bits set
  State st_;  // everything a snapshot captures; see State
};

}  // namespace polarcxl::sim
