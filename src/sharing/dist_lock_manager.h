// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Distributed page locks for multi-primary deployments (PolarDB-MP-style).
// Grants are computed in virtual time via the VirtualLockTable; each
// acquisition pays a transport-specific RPC cost (low-latency CXL mailbox
// RPC for PolarCXLMem, verbs RPC for the RDMA baseline).
#pragma once

#include <memory>
#include <utility>

#include "common/macros.h"
#include "common/types.h"
#include "rdma/rdma_network.h"
#include "sim/exec_context.h"
#include "sim/lock_table.h"

namespace polarcxl::sharing {

/// How a node reaches the lock service.
class LockTransport {
 public:
  virtual ~LockTransport() = default;
  /// Charges one lock-service round trip issued by `from`.
  virtual void ChargeRpc(sim::ExecContext& ctx, NodeId from) = 0;
  /// Charges an asynchronous one-way notification (release messages).
  virtual void ChargeOneWay(sim::ExecContext& ctx, NodeId from) = 0;
};

/// Lock service reached over CXL shared-memory mailboxes.
class CxlLockTransport final : public LockTransport {
 public:
  explicit CxlLockTransport(Nanos round_trip) : round_trip_(round_trip) {}
  void ChargeRpc(sim::ExecContext& ctx, NodeId from) override {
    (void)from;
    ctx.Advance(round_trip_);
  }
  void ChargeOneWay(sim::ExecContext& ctx, NodeId from) override {
    (void)from;
    ctx.Advance(round_trip_ / 2);
  }

 private:
  Nanos round_trip_;
};

/// Lock service reached over the RDMA network (consumes NIC resources).
class RdmaLockTransport final : public LockTransport {
 public:
  RdmaLockTransport(rdma::RdmaNetwork* net, NodeId server)
      : net_(net), server_(server) {}
  void ChargeRpc(sim::ExecContext& ctx, NodeId from) override {
    net_->Rpc(ctx, from, server_);
  }
  void ChargeOneWay(sim::ExecContext& ctx, NodeId from) override {
    net_->Write(ctx, from, server_, 64);
  }

 private:
  rdma::RdmaNetwork* net_;
  NodeId server_;
};

/// The lock service. One instance shared by all nodes of a cluster.
class DistLockManager {
 public:
  /// A waiter that cannot get the lock within the spin window goes to
  /// sleep; being woken costs scheduler latency + cache pollution. Under
  /// heavy contention this dominates both systems equally — the effect the
  /// paper cites for the narrowing advantage beyond 40-60% shared data.
  static constexpr Nanos kSpinThreshold = 15'000;
  static constexpr Nanos kContextSwitchCost = 16'000;

  explicit DistLockManager(std::unique_ptr<LockTransport> transport)
      : transport_(std::move(transport)) {}
  POLAR_DISALLOW_COPY(DistLockManager);

  /// Acquire: pays the RPC, then waits (in virtual time) for the grant.
  /// All time spent here is attributed to ctx.t_lock.
  void AcquireExclusive(sim::ExecContext& ctx, NodeId node, uint64_t key) {
    const Nanos entry = ctx.now;
    const Nanos net_before = ctx.t_net;
    transport_->ChargeRpc(ctx, node);
    Granted(ctx, table_.AcquireExclusive(key, ctx.now));
    ctx.t_net = net_before;  // lock-service traffic counts as lock time
    ctx.t_lock += ctx.now - entry;
  }
  void ReleaseExclusive(sim::ExecContext& ctx, NodeId node, uint64_t key) {
    const Nanos entry = ctx.now;
    const Nanos net_before = ctx.t_net;
    transport_->ChargeOneWay(ctx, node);
    table_.ReleaseExclusive(key, ctx.now);
    ctx.t_net = net_before;
    ctx.t_lock += ctx.now - entry;
  }
  void AcquireShared(sim::ExecContext& ctx, NodeId node, uint64_t key) {
    const Nanos entry = ctx.now;
    const Nanos net_before = ctx.t_net;
    transport_->ChargeRpc(ctx, node);
    Granted(ctx, table_.AcquireShared(key, ctx.now));
    ctx.t_net = net_before;
    ctx.t_lock += ctx.now - entry;
  }
  void ReleaseShared(sim::ExecContext& ctx, NodeId node, uint64_t key) {
    const Nanos entry = ctx.now;
    const Nanos net_before = ctx.t_net;
    transport_->ChargeOneWay(ctx, node);
    table_.ReleaseShared(key, ctx.now);
    ctx.t_net = net_before;
    ctx.t_lock += ctx.now - entry;
  }

  const sim::VirtualLockTable& table() const { return table_; }
  void ResetStats() { table_.ResetStats(); }

 private:
  void Granted(sim::ExecContext& ctx, Nanos grant) {
    if (grant > ctx.now + kSpinThreshold) {
      ctx.now = grant + kContextSwitchCost;
    } else {
      ctx.now = grant;
    }
  }

  std::unique_ptr<LockTransport> transport_;
  sim::VirtualLockTable table_;
};

}  // namespace polarcxl::sharing
