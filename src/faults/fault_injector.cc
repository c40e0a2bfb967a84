#include "faults/fault_injector.h"

#include <algorithm>

#include "common/rng.h"

namespace polarcxl::faults {

void FaultInjector::Domain::Add(const FaultEvent& e) {
  events.push_back(e);
  min_at = std::min(min_at, e.at);
  max_until = std::max(max_until, e.until);
}

FaultInjector::Domain& FaultInjector::DomainFor(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCxlDown:
    case FaultKind::kCxlDegrade:
    case FaultKind::kCxlFlaky:
      return cxl_;
    case FaultKind::kNicDown:
    case FaultKind::kNicDegrade:
    case FaultKind::kNicFlaky:
      return nic_;
    case FaultKind::kDiskStall:
      return disk_;
    case FaultKind::kNodeCrash:
      return crash_;
  }
  POLAR_CHECK_MSG(false, "unreachable fault kind");
  return cxl_;
}

Status FaultInjector::Arm(FaultPlan plan) {
  plan.Normalize();
  POLAR_RETURN_IF_ERROR(plan.Validate());
  Disarm();
  plan_ = std::move(plan);
  for (const FaultEvent& e : plan_.events) DomainFor(e.kind).Add(e);
  armed_ = true;
  return Status::OK();
}

void FaultInjector::Disarm() {
  armed_ = false;
  plan_ = FaultPlan{};
  cxl_ = Domain{};
  nic_ = Domain{};
  disk_ = Domain{};
  crash_ = Domain{};
}

void FaultInjector::ResetStats() {
  for (Counter* c : {&cxl_failures_, &cxl_degraded_, &nic_failures_,
                     &nic_degraded_, &disk_stalls_}) {
    c->store(0, std::memory_order_relaxed);
  }
}

bool FaultInjector::Draw(sim::ExecContext& ctx, double probability) const {
  const uint64_t n = ++ctx.fault_draws;
  const uint64_t h = Mix64(
      plan_.seed ^ Mix64((static_cast<uint64_t>(ctx.lane_id) << 32) | n));
  // Top 53 bits -> [0,1), the same uniform mapping as Rng::NextDouble.
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < probability;
}

Status FaultInjector::OnCxlAccess(sim::ExecContext& ctx, NodeId node) {
  if (!armed_ || cxl_.Idle(ctx.now)) return Status::OK();
  Nanos inflate = 0;
  for (const FaultEvent& e : cxl_.events) {
    if (!e.Active(ctx.now) || !e.Matches(node)) continue;
    switch (e.kind) {
      case FaultKind::kCxlDown:
        Bump(cxl_failures_);
        return Status::IOError("cxl device down");
      case FaultKind::kCxlFlaky:
        if (Draw(ctx, e.probability)) {
          Bump(cxl_failures_);
          return Status::IOError("cxl access dropped");
        }
        break;
      case FaultKind::kCxlDegrade:
        inflate += e.extra_latency;
        break;
      default:
        break;
    }
  }
  if (inflate > 0) {
    Bump(cxl_degraded_);
    ctx.t_mem += inflate;
    ctx.Advance(inflate);
  }
  return Status::OK();
}

void FaultInjector::OnCxlTransfer(sim::ExecContext& ctx, NodeId node,
                                  uint64_t bytes) {
  if (!armed_ || cxl_.Idle(ctx.now)) return;
  Nanos inflate = 0;
  for (const FaultEvent& e : cxl_.events) {
    if (e.kind != FaultKind::kCxlDegrade) continue;
    if (!e.Active(ctx.now) || !e.Matches(node)) continue;
    inflate += static_cast<Nanos>(e.per_kb_ns *
                                  (static_cast<double>(bytes) / 1024.0));
  }
  if (inflate > 0) {
    Bump(cxl_degraded_);
    ctx.t_mem += inflate;
    ctx.Advance(inflate);
  }
}

Status FaultInjector::OnVerbsOp(sim::ExecContext& ctx, NodeId src,
                                NodeId dst) {
  if (!armed_ || nic_.Idle(ctx.now)) return Status::OK();
  for (const FaultEvent& e : nic_.events) {
    if (!e.Active(ctx.now)) continue;
    if (!e.Matches(src) && !e.Matches(dst)) continue;
    switch (e.kind) {
      case FaultKind::kNicDown:
        Bump(nic_failures_);
        return Status::IOError("nic brownout");
      case FaultKind::kNicFlaky:
        if (Draw(ctx, e.probability)) {
          Bump(nic_failures_);
          return Status::IOError("verbs op dropped");
        }
        break;
      default:
        break;
    }
  }
  return Status::OK();
}

void FaultInjector::OnVerbsTransfer(sim::ExecContext& ctx, NodeId src,
                                    NodeId dst, uint64_t bytes) {
  if (!armed_ || nic_.Idle(ctx.now)) return;
  Nanos inflate = 0;
  for (const FaultEvent& e : nic_.events) {
    if (e.kind != FaultKind::kNicDegrade) continue;
    if (!e.Active(ctx.now)) continue;
    if (!e.Matches(src) && !e.Matches(dst)) continue;
    inflate += e.extra_latency;
    inflate += static_cast<Nanos>(e.per_kb_ns *
                                  (static_cast<double>(bytes) / 1024.0));
  }
  if (inflate > 0) {
    Bump(nic_degraded_);
    // Caller (RdmaNetwork) attributes the whole op span to t_net.
    ctx.Advance(inflate);
  }
}

void FaultInjector::OnDiskOp(sim::ExecContext& ctx) {
  if (!armed_ || disk_.Idle(ctx.now)) return;
  Nanos stall = 0;
  for (const FaultEvent& e : disk_.events) {
    if (e.kind == FaultKind::kDiskStall && e.Active(ctx.now)) {
      stall += e.extra_latency;
    }
  }
  if (stall > 0) {
    Bump(disk_stalls_);
    // Caller (SimDisk) attributes the whole op span to t_io.
    ctx.Advance(stall);
  }
}

std::vector<FaultEvent> FaultInjector::EventsOfKind(FaultKind kind) const {
  std::vector<FaultEvent> out;
  if (!armed_) return out;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

}  // namespace polarcxl::faults
