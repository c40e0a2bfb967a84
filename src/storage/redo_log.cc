#include "storage/redo_log.h"

#include <algorithm>
#include <utility>

#include "sim/epoch.h"

namespace polarcxl::storage {

Lsn RedoLog::AppendMtr(std::vector<RedoRecord> records) {
  return AppendMtr(&records);
}

Lsn RedoLog::AppendMtr(std::vector<RedoRecord>* records) {
  for (RedoRecord& rec : *records) {
    rec.lsn = st_.next_lsn;
    st_.next_lsn += rec.SizeBytes();
    st_.buffer.push_back(std::move(rec));
  }
  records->clear();
  return st_.next_lsn;
}

void RedoLog::SealBuffer() {
  const size_t n = st_.buffer.size();
  st_.durable_segs.push_back(
      std::make_shared<std::vector<RedoRecord>>(std::move(st_.buffer)));
  st_.buffer.clear();
  // The next fill resembles the recent ones, so pre-size the fresh buffer to
  // skip its geometric-growth element moves. Take the smaller of the last
  // two fills: one bulk flush (a load's checkpoint) must not leave its size
  // reserved in the next segment, which holds a few commits' records.
  st_.buffer.reserve(std::min(n, last_fill_));
  last_fill_ = n;
}

Lsn RedoLog::Flush(sim::ExecContext& ctx) {
  if (st_.buffer.empty()) return st_.flushed_lsn;
  const uint64_t bytes = st_.next_lsn - st_.flushed_lsn;
  disk_->Write(ctx, bytes);
  SealBuffer();
  st_.flushed_lsn = st_.next_lsn;
  return st_.flushed_lsn;
}

Lsn RedoLog::GroupCommit(sim::ExecContext& ctx, Nanos window) {
  if (window <= 0) return Flush(ctx);
  if (st_.buffer.empty()) return st_.flushed_lsn;
  if (ctx.now < st_.last_batch_completion) {
    // A flush led by another committer is in flight (in virtual time);
    // this commit's bytes ride that same write: charge channel occupancy
    // but no additional I/O, and complete with the batch.
    const Nanos entry = ctx.now;
    const uint64_t bytes = st_.next_lsn - st_.flushed_lsn;
    sim::ChargeChannel(ctx, disk_->channel(), ctx.now, bytes);
    SealBuffer();
    st_.flushed_lsn = st_.next_lsn;
    ctx.now = st_.last_batch_completion;
    ctx.t_io += ctx.now - entry;
    return st_.flushed_lsn;
  }
  // Lead a new batch: linger `window` to let followers accumulate, then
  // flush once. The linger is commit wait, charged to I/O like the
  // follower's wait and the flush itself.
  ctx.now += window;
  ctx.t_io += window;
  const Lsn flushed = Flush(ctx);
  st_.last_batch_completion = ctx.now;
  return flushed;
}

void RedoLog::LoseUnflushedTail() {
  st_.buffer.clear();
  st_.next_lsn = st_.flushed_lsn;
}

void RedoLog::Checkpoint(Lsn lsn) {
  POLAR_CHECK(lsn <= st_.flushed_lsn);
  // A checkpoint that does not advance puts no new segment behind it.
  if (lsn <= st_.checkpoint_lsn) return;
  st_.checkpoint_lsn = lsn;
  // Segments wholly at or below the checkpoint form a prefix; no redo pass
  // reads below the checkpoint, so the whole prefix goes.
  st_.durable_segs.erase(
      st_.durable_segs.begin(),
      std::partition_point(st_.durable_segs.begin(), st_.durable_segs.end(),
                           [lsn](const Segment& s) {
                             return s->back().end_lsn() <= lsn;
                           }));
}

std::vector<const RedoRecord*> RedoLog::DurableRecordsFrom(Lsn from) const {
  std::vector<const RedoRecord*> out;
  // Segments and the records within each are LSN-ordered (sealed segments
  // are never empty), so binary search the first segment reaching past
  // `from`, then the start record within each remaining segment.
  auto seg = std::partition_point(
      st_.durable_segs.begin(), st_.durable_segs.end(),
      [from](const Segment& s) { return s->back().end_lsn() <= from; });
  for (; seg != st_.durable_segs.end(); ++seg) {
    const std::vector<RedoRecord>& recs = **seg;
    auto it = std::partition_point(
        recs.begin(), recs.end(),
        [from](const RedoRecord& r) { return r.end_lsn() <= from; });
    for (; it != recs.end(); ++it) out.push_back(&*it);
  }
  return out;
}

void RedoLog::ChargeScan(sim::ExecContext& ctx, Lsn from) {
  if (st_.flushed_lsn <= from) return;
  disk_->Read(ctx, st_.flushed_lsn - from);
}

}  // namespace polarcxl::storage
