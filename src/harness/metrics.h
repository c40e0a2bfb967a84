// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Measurement plumbing shared by the experiment drivers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"

namespace polarcxl::sim {
class Executor;
}  // namespace polarcxl::sim

namespace polarcxl::harness {

/// Aggregate result of one measured run.
struct RunMetrics {
  uint64_t queries = 0;      // completed in the measurement window
  uint64_t events = 0;       // transactions / sysbench events
  Nanos window = 0;          // virtual measurement window
  Histogram latency;         // per-event latency

  double Qps() const {
    return window <= 0 ? 0.0
                       : static_cast<double>(queries) * kNanosPerSec /
                             static_cast<double>(window);
  }
  double Tps() const {
    return window <= 0 ? 0.0
                       : static_cast<double>(events) * kNanosPerSec /
                             static_cast<double>(window);
  }
  double AvgLatencyUs() const { return latency.Mean() / 1000.0; }
  double P95LatencyUs() const {
    return static_cast<double>(latency.Percentile(95)) / 1000.0;
  }
};

/// Where the lanes' virtual time went, summed over all lanes (includes
/// setup/warm-up time; meaningful as proportions).
struct TimeBreakdown {
  Nanos total = 0;
  Nanos mem = 0;
  Nanos io = 0;
  Nanos net = 0;
  Nanos lock = 0;
  Nanos Cpu() const { return total - mem - io - net - lock; }

  /// Sums every lane of `executor`, counting `total` from `origin` to each
  /// lane's clock.
  static TimeBreakdown OfLanes(sim::Executor& executor, Nanos origin);

  double Pct(Nanos part) const {
    return total == 0 ? 0.0
                      : static_cast<double>(part) /
                            static_cast<double>(total);
  }
};

/// Byte counters snapshotted around the measurement window to compute
/// delivered bandwidth of a channel.
struct BandwidthProbe {
  uint64_t before = 0;
  uint64_t after = 0;
  double Gbps(Nanos window) const {
    return window <= 0 ? 0.0
                       : static_cast<double>(after - before) /
                             static_cast<double>(window);  // bytes/ns == GB/s
  }
};

}  // namespace polarcxl::harness
