// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Fault-resilience experiment driver: run a sysbench-style read/write mix
// against one database instance while a FaultPlan injects CXL device
// outages, NIC brownouts, disk stalls and node freezes at exact virtual
// timestamps, and record the throughput-over-time curve (ok vs failed
// operations per bucket). Used by bench_fig14_fault_resilience and the
// fault-subsystem tests.
//
// Determinism contract: RunChaos is a pure function of its config — the
// same plan + seed produce bit-identical timelines and lane_steps for any
// POLAR_SWEEP_THREADS value (the sweep parallelizes across experiments,
// never within one).
#pragma once

#include <cstdint>

#include "common/histogram.h"
#include "engine/database.h"
#include "faults/fault_injector.h"
#include "harness/metrics.h"
#include "harness/world_builder.h"
#include "workload/sysbench.h"

namespace polarcxl::harness {

struct ChaosConfig {
  engine::BufferPoolKind kind = engine::BufferPoolKind::kCxl;
  /// Fault schedule with timestamps relative to the measurement-window
  /// start (the driver shifts it by the post-warmup clock before arming).
  faults::FaultPlan plan;
  uint32_t lanes = 8;
  workload::SysbenchConfig sysbench;
  /// Fraction of operations that are single-column updates (the rest are
  /// point reads). Drawn per-op from the lane RNG.
  double write_fraction = 0.25;
  double lbp_fraction = 0.3;        // tiered baseline LBP sizing
  uint64_t cpu_cache_bytes = 4ULL << 20;
  Nanos warmup = Millis(100);
  Nanos measure = Millis(800);
  Nanos bucket = Millis(10);        // timeline resolution
  /// Virtual think-time after a failed operation (a real client backs off
  /// instead of hammering a dead device).
  Nanos error_backoff = Micros(50);
  /// Periodic checkpoint cadence (0 = never). Without checkpoints every
  /// page stays dirty after load and a CXL outage rejects all reads of
  /// cached pages; with them, clean pages are re-served from storage.
  Nanos checkpoint_interval = Millis(100);
  uint64_t seed = 7;
  /// In-world parallelism knob, same semantics as PoolingConfig: -1 reads
  /// POLAR_WORLD_THREADS, 0 = legacy serial, >= 1 = epoch execution. A
  /// chaos world is single-instance (one shard group), so every thread
  /// count replays the exact serial timeline — this knob exists to run the
  /// epoch machinery under the chaos pins.
  int world_threads = -1;
};

struct ChaosResult : RunStats {
  /// Operations completed / failed per bucket, origin at the measurement
  /// window start.
  TimeSeries ok{Millis(10)};
  TimeSeries failed{Millis(10)};
  uint64_t ok_ops = 0;
  uint64_t failed_ops = 0;
};

/// Runs one fault-resilience experiment end to end. With a `cache`, the
/// post-warmup (fault-free) world is snapshotted and forked across runs
/// sharing the setup key — the plan, measure window and bucket are per-run,
/// so one warmed world serves many fault schedules. Forked runs are
/// bit-identical to cold ones.
ChaosResult RunChaos(const ChaosConfig& config, WorldCache* cache = nullptr);

/// The canonical mixed-fault schedule used by the resilience bench and the
/// determinism tests: CXL outage, NIC brownout, flaky windows, link
/// degradation and a disk stall at fixed fractions of `measure`.
faults::FaultPlan CanonicalChaosPlan(Nanos measure);

const char* ChaosPoolName(engine::BufferPoolKind kind);

}  // namespace polarcxl::harness
