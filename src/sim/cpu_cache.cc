#include "sim/cpu_cache.h"

#include <algorithm>

namespace polarcxl::sim {

namespace {
uint32_t FloorPow2(uint32_t v) {
  uint32_t p = 1;
  while (p * 2 <= v && p * 2 != 0) p *= 2;
  return p;
}
}  // namespace

CpuCacheSim::CpuCacheSim(uint64_t capacity_bytes, uint32_t ways)
    : ways_(ways) {
  POLAR_CHECK(ways > 0);
  POLAR_CHECK_MSG(ways <= 64, "at most 64 ways (per-set bitmasks)");
  const uint64_t lines = capacity_bytes / kCacheLineSize;
  const uint32_t raw_sets = static_cast<uint32_t>(lines / ways);
  POLAR_CHECK_MSG(raw_sets > 0, "cache too small");
  num_sets_ = FloorPow2(raw_sets);
  set_mask_ = num_sets_ - 1;
  full_set_mask_ =
      ways_ == 64 ? ~0ULL : ((1ULL << ways_) - 1);
  const size_t slots = static_cast<size_t>(num_sets_) * ways_;
  st_.tags.resize(slots, 0);
  st_.ticks.resize(slots, 0);
  st_.homes.resize(slots, nullptr);
  st_.valid.resize(num_sets_, 0);
  st_.dirty.resize(num_sets_, 0);
}

bool CpuCacheSim::Contains(uint64_t addr) const {
  if (st_.live_lines == 0) return false;
  const uint64_t line = addr / kCacheLineSize;
  const uint64_t tag = line + 1;
  const uint32_t set = SetIndex(line);
  if (st_.valid[set] == 0) return false;
  const uint64_t* tags = &st_.tags[static_cast<size_t>(set) * ways_];
  for (uint32_t w = 0; w < ways_; w++) {
    if (tags[w] == tag) return true;
  }
  return false;
}

void CpuCacheSim::FlushRange(uint64_t addr, uint64_t len, uint32_t* dirty_out,
                             uint32_t* clean_out) {
  uint32_t dirty = 0;
  uint32_t clean = 0;
  if (len == 0 || st_.live_lines == 0) {
    if (dirty_out != nullptr) *dirty_out = 0;
    if (clean_out != nullptr) *clean_out = 0;
    return;
  }
  const uint64_t first = addr / kCacheLineSize;
  const uint64_t last = (addr + len - 1) / kCacheLineSize;
  const uint64_t range_lines = last - first + 1;
  const uint64_t total_lines = static_cast<uint64_t>(num_sets_) * ways_;

  if (range_lines >= total_lines) {
    // The range covers more lines than the cache can hold: sweeping the
    // occupied slots directly is cheaper than probing per range line.
    for (uint32_t set = 0; set < num_sets_; set++) {
      uint64_t occupied = st_.valid[set];
      while (occupied != 0) {
        const uint32_t w = static_cast<uint32_t>(__builtin_ctzll(occupied));
        occupied &= occupied - 1;
        const size_t slot = static_cast<size_t>(set) * ways_ + w;
        const uint64_t line = st_.tags[slot] - 1;
        if (line < first || line > last) continue;
        if ((st_.dirty[set] >> w) & 1) dirty++;
        else clean++;
        st_.tags[slot] = 0;
        st_.homes[slot] = nullptr;
        st_.valid[set] &= ~(1ULL << w);
        st_.dirty[set] &= ~(1ULL << w);
        st_.live_lines--;
      }
    }
  } else {
    for (uint64_t line = first; line <= last; line++) {
      const uint64_t tag = line + 1;
      const uint32_t set = SetIndex(line);
      if (st_.valid[set] == 0) continue;  // cheap skip of non-resident sets
      const size_t base = static_cast<size_t>(set) * ways_;
      for (uint32_t w = 0; w < ways_; w++) {
        if (st_.tags[base + w] == tag) {
          if ((st_.dirty[set] >> w) & 1) dirty++;
          else clean++;
          st_.tags[base + w] = 0;
          st_.homes[base + w] = nullptr;
          st_.valid[set] &= ~(1ULL << w);
          st_.dirty[set] &= ~(1ULL << w);
          st_.live_lines--;
          break;
        }
      }
    }
  }
  if (dirty_out != nullptr) *dirty_out = dirty;
  if (clean_out != nullptr) *clean_out = clean;
}

void CpuCacheSim::InvalidateAll() {
  if (st_.live_lines == 0) return;
  std::fill(st_.tags.begin(), st_.tags.end(), 0);
  std::fill(st_.homes.begin(), st_.homes.end(), nullptr);
  std::fill(st_.valid.begin(), st_.valid.end(), 0);
  std::fill(st_.dirty.begin(), st_.dirty.end(), 0);
  st_.live_lines = 0;
}

}  // namespace polarcxl::sim
