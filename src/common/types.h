// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Fundamental scalar types used across the simulator and the engine.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

namespace polarcxl {

/// Virtual time in nanoseconds. All simulated latencies and clocks use this.
using Nanos = int64_t;

/// Log sequence number of the redo log (byte offset semantics, like InnoDB).
using Lsn = uint64_t;

/// Identifier of a 16 KB database page within a page store.
using PageId = uint32_t;

/// Identifier of a database node / instance in a cluster.
using NodeId = uint32_t;

/// A byte offset into a (simulated) physical memory region.
using MemOffset = uint64_t;

constexpr PageId kInvalidPageId = UINT32_MAX;
constexpr NodeId kInvalidNodeId = UINT32_MAX;
constexpr Lsn kInvalidLsn = UINT64_MAX;

/// Size of a database page. PolarDB (InnoDB lineage) uses 16 KB pages; the
/// paper's read/write-amplification arguments are all phrased against this.
constexpr uint32_t kPageSize = 16 * 1024;

/// One page's bytes, as the page store and the RDMA tier hold them.
using PageImage = std::array<uint8_t, kPageSize>;

/// Shared handle to an immutable page image. The page store, the remote
/// memory pool, world snapshots and the RDMA-tier buffer pools' frames pass
/// these around instead of copying 16 KB; a holder that must change the
/// bytes first makes sure it holds the only reference (copy-on-write).
using PageImageRef = std::shared_ptr<const PageImage>;

/// CPU cache line size; the granularity of CXL load/store and of the
/// cache-coherency protocol in Section 3.3.
constexpr uint32_t kCacheLineSize = 64;

constexpr uint32_t kLinesPerPage = kPageSize / kCacheLineSize;

// Convenience duration literals (integer math; virtual time only).
constexpr Nanos kNanosPerMicro = 1000;
constexpr Nanos kNanosPerMilli = 1000 * 1000;
constexpr Nanos kNanosPerSec = 1000 * 1000 * 1000;

constexpr Nanos Micros(double us) { return static_cast<Nanos>(us * 1000.0); }
constexpr Nanos Millis(double ms) {
  return static_cast<Nanos>(ms * 1000.0 * 1000.0);
}
constexpr Nanos Secs(double s) {
  return static_cast<Nanos>(s * 1000.0 * 1000.0 * 1000.0);
}

}  // namespace polarcxl
