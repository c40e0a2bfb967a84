// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Simulated shared-storage backend (PolarFS-like: NVMe + replication over
// its own network). Far slower than any memory tier; the thing buffer pools
// exist to avoid.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/types.h"
#include "faults/fault_injector.h"
#include "sim/bandwidth_channel.h"
#include "sim/exec_context.h"
#include "sim/latency_model.h"

namespace polarcxl::storage {

class SimDisk {
 public:
  /// Access latencies come from sim::LatencyModel (disk_read_latency,
  /// disk_write_latency).
  struct Options {
    uint64_t bandwidth_bps = sim::BandwidthModel{}.storage_bps;
    /// I/O operation ceiling (0 = unlimited). Shared PolarFS-style volumes
    /// saturate on IOPS under many small WAL appends — the paper's "WAL
    /// persistency bottleneck" at high instance counts.
    uint64_t iops = 0;
  };

  explicit SimDisk(std::string name) : SimDisk(std::move(name), Options()) {}
  SimDisk(std::string name, Options options)
      : name_(std::move(name)),
        opt_(options),
        channel_(name_ + ".io", options.bandwidth_bps),
        ops_(name_ + ".iops", options.iops) {}

  /// Charges a read of `bytes`; returns completion time.
  Nanos Read(sim::ExecContext& ctx, uint64_t bytes);
  /// Charges a durable write of `bytes`.
  Nanos Write(sim::ExecContext& ctx, uint64_t bytes);

  sim::BandwidthChannel& channel() { return channel_; }
  /// IOPS ledger ("bytes" are operations).
  sim::BandwidthChannel& ops_channel() { return ops_; }

  /// Fault-injection hook point (nullable; disk-stall windows).
  void set_fault_injector(faults::FaultInjector* injector) {
    faults_ = injector;
  }

  uint64_t read_bytes() const {
    return read_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t write_bytes() const {
    return write_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t read_ops() const {
    return read_ops_.load(std::memory_order_relaxed);
  }
  uint64_t write_ops() const {
    return write_ops_.load(std::memory_order_relaxed);
  }
  void ResetStats();

  /// Byte/op counters for world snapshots (the two ledgers are captured
  /// with the world's other channels).
  struct State {
    uint64_t read_bytes = 0;
    uint64_t write_bytes = 0;
    uint64_t read_ops = 0;
    uint64_t write_ops = 0;
  };
  State Capture() const {
    return State{read_bytes(), write_bytes(), read_ops(), write_ops()};
  }
  void Restore(const State& s) {
    read_bytes_.store(s.read_bytes, std::memory_order_relaxed);
    write_bytes_.store(s.write_bytes, std::memory_order_relaxed);
    read_ops_.store(s.read_ops, std::memory_order_relaxed);
    write_ops_.store(s.write_ops, std::memory_order_relaxed);
  }

 private:
  std::string name_;
  Options opt_;
  faults::FaultInjector* faults_ = nullptr;
  sim::BandwidthChannel channel_;
  sim::BandwidthChannel ops_;  // "bytes" are operations
  // Relaxed atomics: the disk is shared by every instance, so epoch-parallel
  // shards bump these concurrently; the adds commute, so totals stay
  // bit-identical to serial execution.
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> write_ops_{0};
};

}  // namespace polarcxl::storage
