// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Crash-recovery experiment driver (Figure 10): run a sysbench workload,
// kill the instance at a fixed virtual time, recover with one of the three
// schemes, resume, and record the throughput-over-time curve.
#pragma once

#include <cstdint>

#include "common/histogram.h"
#include "engine/database.h"
#include "recovery/polar_recv.h"
#include "recovery/recovery.h"
#include "workload/sysbench.h"

namespace polarcxl::harness {

enum class RecoveryScheme {
  kVanilla,    // DRAM pool: everything rebuilt from storage + redo
  kRdmaBased,  // tiered pool: bases fetched from surviving remote memory
  kPolarRecv,  // PolarCXLMem: instant recovery from CXL
};

const char* RecoverySchemeName(RecoveryScheme scheme);

struct RecoveryConfig {
  RecoveryScheme scheme = RecoveryScheme::kPolarRecv;
  workload::SysbenchOp op = workload::SysbenchOp::kReadWrite;
  workload::SysbenchConfig sysbench;
  uint32_t lanes = 16;
  Nanos crash_at = Secs(6);
  Nanos total = Secs(18);
  Nanos bucket = Secs(0.25);       // throughput time-series resolution
  Nanos checkpoint_interval = Secs(3);
  Nanos process_restart = Secs(1.5);  // OS/process restart before recovery
  /// Emulated in-flight work torn by the crash (CXL scheme hazards).
  uint32_t torn_updates = 32;
  /// Fixed per-lane event pacing interval (0 = run open loop). The paper
  /// equalizes workload pressure across schemes so redo volumes match;
  /// pacing reproduces that methodology.
  Nanos pace_interval = 0;
  /// Per-instance LLC share (small relative to the dataset at bench scale).
  uint64_t cpu_cache_bytes = 28ULL << 20;
  uint64_t seed = 99;
};

struct RecoveryResult {
  TimeSeries qps{Secs(0.25)};
  Nanos crash_at = 0;
  Nanos serving_at = 0;     // recovery complete, first query admitted
  Nanos warmed_at = 0;      // first bucket back at >= 90% pre-crash rate
  double pre_crash_qps = 0;
  recovery::RecoveryStats aries;      // vanilla / RDMA schemes
  recovery::PolarRecvStats polar;     // PolarRecv scheme
};

RecoveryResult RunRecoveryExperiment(const RecoveryConfig& config);

}  // namespace polarcxl::harness
