// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Verbs-like RDMA network connecting hosts and memory servers. One-sided
// READ/WRITE and two-sided RPC, with latency from the paper's Table 2 fit
// and bandwidth/IOPS contention from the endpoint NIC models.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/macros.h"
#include "common/status.h"
#include "common/types.h"
#include "faults/fault_injector.h"
#include "rdma/rdma_nic.h"
#include "sim/exec_context.h"
#include "sim/latency_model.h"

namespace polarcxl::rdma {

class RdmaNetwork {
 public:
  RdmaNetwork() = default;
  POLAR_DISALLOW_COPY(RdmaNetwork);

  /// Registers a host (or memory server) NIC. Idempotent per node.
  RdmaNic* RegisterHost(NodeId node, RdmaNic::Options options = {});
  RdmaNic* nic(NodeId node);

  /// Fault hook: whether a verbs op from `src` to `dst` can be posted at
  /// all right now (NIC brownout / flaky windows). Callers that can
  /// degrade gracefully check this before Read/Write/Rpc and propagate the
  /// Status instead of charging a transfer that would never complete.
  Status Precheck(sim::ExecContext& ctx, NodeId src, NodeId dst) {
    if (faults_ == nullptr) return Status::OK();
    return faults_->OnVerbsOp(ctx, src, dst);
  }

  /// Fault-injection hook point (nullable; null = zero-cost pass-through).
  void set_fault_injector(faults::FaultInjector* injector) {
    faults_ = injector;
  }
  faults::FaultInjector* fault_injector() { return faults_; }

  /// One-sided RDMA READ of `bytes` from `dst`'s memory into `src`'s local
  /// DRAM. Advances ctx.now; returns completion time.
  Nanos Read(sim::ExecContext& ctx, NodeId src, NodeId dst, uint64_t bytes);

  /// One-sided RDMA WRITE of `bytes` from `src`'s DRAM into `dst`'s memory.
  Nanos Write(sim::ExecContext& ctx, NodeId src, NodeId dst, uint64_t bytes);

  /// Two-sided send/recv RPC round trip with small payloads.
  Nanos Rpc(sim::ExecContext& ctx, NodeId src, NodeId dst,
            uint64_t req_bytes = 64, uint64_t resp_bytes = 64);

  const sim::LatencyModel& latency() const { return lat_; }

  uint64_t total_ops() const {
    return total_ops_.load(std::memory_order_relaxed);
  }
  uint64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  void ResetStats();

  /// Network counters for world snapshots (the NICs' channel ledgers are
  /// captured with the world's other channels).
  struct State {
    uint64_t total_ops = 0;
    uint64_t total_bytes = 0;
  };
  State Capture() const { return State{total_ops(), total_bytes()}; }
  void Restore(const State& s) {
    total_ops_.store(s.total_ops, std::memory_order_relaxed);
    total_bytes_.store(s.total_bytes, std::memory_order_relaxed);
  }

 private:
  Nanos OneSided(sim::ExecContext& ctx, NodeId src, NodeId dst,
                 uint64_t bytes, bool is_read);

  sim::LatencyModel lat_;
  std::unordered_map<NodeId, std::unique_ptr<RdmaNic>> nics_;
  faults::FaultInjector* faults_ = nullptr;
  // Relaxed atomics: all instances charge verbs through one network object,
  // so epoch-parallel shards bump these concurrently; the adds commute.
  std::atomic<uint64_t> total_ops_{0};
  std::atomic<uint64_t> total_bytes_{0};
};

}  // namespace polarcxl::rdma
