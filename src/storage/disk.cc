#include "storage/disk.h"

#include <algorithm>

#include "sim/epoch.h"

namespace polarcxl::storage {

namespace {
constexpr Nanos kReadLatency = sim::LatencyModel{}.disk_read_latency;
constexpr Nanos kWriteLatency = sim::LatencyModel{}.disk_write_latency;
}  // namespace

Nanos SimDisk::Read(sim::ExecContext& ctx, uint64_t bytes) {
  read_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  read_ops_.fetch_add(1, std::memory_order_relaxed);
  const Nanos entry = ctx.now;
  if (faults_ != nullptr) faults_->OnDiskOp(ctx);
  const Nanos queued =
      std::max(sim::ChargeChannel(ctx, channel_, ctx.now, bytes),
               sim::ChargeChannel(ctx, ops_, ctx.now, 1));
  ctx.now = std::max(ctx.now + kReadLatency, queued + kReadLatency / 2);
  ctx.t_io += ctx.now - entry;
  return ctx.now;
}

Nanos SimDisk::Write(sim::ExecContext& ctx, uint64_t bytes) {
  write_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  write_ops_.fetch_add(1, std::memory_order_relaxed);
  const Nanos entry = ctx.now;
  if (faults_ != nullptr) faults_->OnDiskOp(ctx);
  const Nanos queued =
      std::max(sim::ChargeChannel(ctx, channel_, ctx.now, bytes),
               sim::ChargeChannel(ctx, ops_, ctx.now, 1));
  ctx.now = std::max(ctx.now + kWriteLatency, queued + kWriteLatency / 2);
  ctx.t_io += ctx.now - entry;
  return ctx.now;
}

void SimDisk::ResetStats() {
  read_bytes_.store(0, std::memory_order_relaxed);
  write_bytes_.store(0, std::memory_order_relaxed);
  read_ops_.store(0, std::memory_order_relaxed);
  write_ops_.store(0, std::memory_order_relaxed);
  channel_.ResetStats();
  ops_.ResetStats();
}

}  // namespace polarcxl::storage
