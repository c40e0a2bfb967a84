// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Virtual-time reader/writer lock table. Lock *contention* is simulated in
// virtual time: a transaction registers its hold interval as it executes,
// and later (virtual-time-wise) requesters are granted after it. Its one
// user is DistLockManager: distributed page locks across multi-primary
// nodes.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/macros.h"
#include "common/types.h"

namespace polarcxl::sim {

/// Keyed reader/writer lock table in virtual time. Not thread-safe (the
/// executor serializes lanes). Grant order follows registration order, which
/// the min-clock scheduler keeps approximately equal to virtual-time order;
/// inversions are bounded by one transaction's duration.
class VirtualLockTable {
 public:
  /// Shared holds block later exclusive requests for at most this long.
  /// Registered S release times can sit up to one whole transaction in the
  /// future because the executor runs each transaction atomically; real
  /// read latches are held for at most ~a statement, so longer apparent
  /// blocks are a scheduling artifact, not contention.
  static constexpr Nanos kMaxReaderBlock = 100'000;

  /// Earliest time >= now at which an exclusive lock on `key` can be held.
  Nanos AcquireExclusive(uint64_t key, Nanos now);
  /// Declare the exclusive hold acquired above as ending at `end`.
  void ReleaseExclusive(uint64_t key, Nanos end);

  /// Earliest time >= now at which a shared lock on `key` can be held.
  /// Readers overlap each other but not writers.
  Nanos AcquireShared(uint64_t key, Nanos now);
  void ReleaseShared(uint64_t key, Nanos end);

  /// Total time requesters spent waiting (sum over acquisitions).
  Nanos total_wait() const { return total_wait_; }
  uint64_t contended_acquisitions() const { return contended_; }
  uint64_t acquisitions() const { return acquisitions_; }

  void Clear() { locks_.clear(); }

  /// Clears wait statistics only (lock state is preserved) — used to scope
  /// measurements to a window.
  void ResetStats() {
    total_wait_ = 0;
    contended_ = 0;
    acquisitions_ = 0;
  }

 private:
  struct LockRec {
    Nanos x_free_at = 0;   // last exclusive hold ends here
    Nanos s_max_end = 0;   // latest shared hold ends here
  };

  void Account(Nanos now, Nanos grant) {
    acquisitions_++;
    if (grant > now) {
      contended_++;
      total_wait_ += grant - now;
    }
  }

  std::unordered_map<uint64_t, LockRec> locks_;
  Nanos total_wait_ = 0;
  uint64_t contended_ = 0;
  uint64_t acquisitions_ = 0;
};

}  // namespace polarcxl::sim
