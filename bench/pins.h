// Copyright 2026 The PolarCXLMem Reproduction Authors.
// The pins manifest: every quick-scale lane_steps value and cost ceiling
// that the pinned benches check themselves against (CheckPins in
// bench_common.h) whenever they run at kScale. determinism_test pins the
// fig7 point against the same constants; tools/check.sh holds no numbers.
//
// lane_steps is pure virtual-time output: host speed, thread counts, SIMD
// level and snapshot forks cannot move it, only a semantic change to the
// simulation can (RNG draw order, latency arithmetic, cache state machine,
// eviction order, ...). Update a pin only alongside an explanation of what
// changed the simulated execution. A pin read by one test stays there.
#pragma once

#include <cstdint>

namespace polarcxl::bench::pins {

/// POLAR_BENCH_SCALE of every pin below (fig7: 4 ms warmup, 12 ms measure).
inline constexpr double kScale = 0.1;

/// bench_sim_throughput's fig7 8-instance point-select pooling point.
struct Fig7 {
  uint64_t cxl;
  uint64_t tiered_rdma;
};
/// Legacy serial executor (POLAR_WORLD_THREADS unset or 0).
inline constexpr Fig7 kFig7Serial{22105, 17460};
/// Epoch discipline (POLAR_WORLD_THREADS >= 1), identical for every thread
/// count. Differs from serial by design: deferred cross-shard charges see
/// window-frozen channel ledgers, which shifts a handful of completions on
/// multi-instance shared channels.
inline constexpr Fig7 kFig7Epoch{22107, 17460};

/// bench_fig14_fault_resilience under the canonical fault schedule: cxl,
/// dram, tiered_rdma. Chaos worlds are single-group, so the epoch
/// discipline replays the serial timeline exactly: these hold at every
/// sweep and world thread count.
inline constexpr uint64_t kChaos[] = {27857, 35212, 25375};

/// bench_slo_capacity: the scale-1.0 sweep point of cxl, dram and
/// tiered_rdma, then chaos-under-peak. Arrivals, admission, sheds and
/// retries all run on the simulated clock, so these hold for any sweep or
/// world thread count.
inline constexpr uint64_t kSlo[] = {47468, 47328, 41387, 35498};

struct SerialEpoch {
  uint64_t serial;
  uint64_t epoch;
};
/// bench_fabric_topology's 2-switch reference point (8 instances,
/// round-robin page interleave, 1 GB/s device ports); world threads 1/2/4
/// share the epoch value.
inline constexpr SerialEpoch kFabric{5666, 5666};
/// `bench_sim_throughput scale`: the fig7 CXL world at 64 instances; the
/// epoch run uses 1 worker.
inline constexpr SerialEpoch kScale64{87662, 87766};

/// Ceiling on scheduler bookkeeping per lane-step in that 64-instance pair.
/// The timing wheel holds ~2.1-2.2 flat across 8..256 instances; a binary
/// heap paid ~9-11 (O(log n) sift levels), so 3.0 catches any return to
/// O(log n) with headroom.
inline constexpr double kMaxSchedOpsPerStep = 3.0;

/// Ceiling on the engine+cache_sim share of profiled self CPU time in a
/// POLAR_PROF build of the fig7 quick run. The third-wave hot-path work
/// measured ~90%; a pool that re-virtualizes or a probe path that bloats
/// pushes past this.
inline constexpr double kMaxHotShare = 0.93;

}  // namespace polarcxl::bench::pins
