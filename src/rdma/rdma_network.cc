#include "rdma/rdma_network.h"

#include <algorithm>

#include "sim/epoch.h"

namespace polarcxl::rdma {

RdmaNic* RdmaNetwork::RegisterHost(NodeId node, RdmaNic::Options options) {
  auto it = nics_.find(node);
  if (it != nics_.end()) return it->second.get();
  auto nic =
      std::make_unique<RdmaNic>("nic" + std::to_string(node), options);
  RdmaNic* raw = nic.get();
  nics_[node] = std::move(nic);
  return raw;
}

RdmaNic* RdmaNetwork::nic(NodeId node) {
  auto it = nics_.find(node);
  POLAR_CHECK_MSG(it != nics_.end(), "node has no registered NIC");
  return it->second.get();
}

Nanos RdmaNetwork::OneSided(sim::ExecContext& ctx, NodeId src, NodeId dst,
                            uint64_t bytes, bool is_read) {
  const Nanos entry = ctx.now;
  if (faults_ != nullptr) faults_->OnVerbsTransfer(ctx, src, dst, bytes);
  RdmaNic* s = nic(src);
  RdmaNic* d = nic(dst);
  total_ops_.fetch_add(1, std::memory_order_relaxed);
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);

  // Doorbell: one verbs op on the initiator NIC.
  const Nanos db_done = sim::ChargeChannel(ctx, s->doorbell(), ctx.now, 1);
  // Wire occupancy on both endpoints.
  const Nanos src_done = sim::ChargeChannel(ctx, s->wire(), ctx.now, bytes);
  const Nanos dst_done = sim::ChargeChannel(ctx, d->wire(), ctx.now, bytes);
  const Nanos queued = std::max({db_done, src_done, dst_done});

  const Nanos service = is_read ? lat_.RdmaRead(bytes) : lat_.RdmaWrite(bytes);
  ctx.now = std::max(ctx.now + service, queued + service / 4);
  ctx.t_net += ctx.now - entry;
  return ctx.now;
}

Nanos RdmaNetwork::Read(sim::ExecContext& ctx, NodeId src, NodeId dst,
                        uint64_t bytes) {
  return OneSided(ctx, src, dst, bytes, /*is_read=*/true);
}

Nanos RdmaNetwork::Write(sim::ExecContext& ctx, NodeId src, NodeId dst,
                         uint64_t bytes) {
  return OneSided(ctx, src, dst, bytes, /*is_read=*/false);
}

Nanos RdmaNetwork::Rpc(sim::ExecContext& ctx, NodeId src, NodeId dst,
                       uint64_t req_bytes, uint64_t resp_bytes) {
  const Nanos entry = ctx.now;
  if (faults_ != nullptr) {
    faults_->OnVerbsTransfer(ctx, src, dst, req_bytes + resp_bytes);
  }
  RdmaNic* s = nic(src);
  RdmaNic* d = nic(dst);
  total_ops_.fetch_add(2, std::memory_order_relaxed);
  total_bytes_.fetch_add(req_bytes + resp_bytes, std::memory_order_relaxed);
  const Nanos db_done = sim::ChargeChannel(ctx, s->doorbell(), ctx.now, 1);
  const Nanos db2_done = sim::ChargeChannel(ctx, d->doorbell(), ctx.now, 1);
  const Nanos src_done =
      sim::ChargeChannel(ctx, s->wire(), ctx.now, req_bytes + resp_bytes);
  const Nanos dst_done =
      sim::ChargeChannel(ctx, d->wire(), ctx.now, req_bytes + resp_bytes);
  const Nanos queued = std::max({db_done, db2_done, src_done, dst_done});
  ctx.now = std::max(ctx.now + lat_.rdma_rpc_round_trip, queued);
  ctx.t_net += ctx.now - entry;
  return ctx.now;
}

void RdmaNetwork::ResetStats() {
  total_ops_.store(0, std::memory_order_relaxed);
  total_bytes_.store(0, std::memory_order_relaxed);
  for (auto& [node, nic] : nics_) nic->ResetStats();
}

}  // namespace polarcxl::rdma
