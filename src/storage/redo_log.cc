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
    rec.lsn = next_lsn_;
    next_lsn_ += rec.SizeBytes();
    buffer_.push_back(std::move(rec));
  }
  records->clear();
  return next_lsn_;
}

void RedoLog::SealBuffer() {
  const size_t n = buffer_.size();
  durable_segs_.push_back(
      std::make_shared<std::vector<RedoRecord>>(std::move(buffer_)));
  buffer_.clear();
  // The next fill resembles the recent ones, so pre-size the fresh buffer to
  // skip its geometric-growth element moves. Take the smaller of the last
  // two fills: one bulk flush (a load's checkpoint) must not leave its size
  // reserved in the next segment, which holds a few commits' records.
  buffer_.reserve(std::min(n, last_fill_));
  last_fill_ = n;
}

Lsn RedoLog::Flush(sim::ExecContext& ctx) {
  if (buffer_.empty()) return flushed_lsn_;
  const uint64_t bytes = next_lsn_ - flushed_lsn_;
  disk_->Write(ctx, bytes);
  SealBuffer();
  flushed_lsn_ = next_lsn_;
  return flushed_lsn_;
}

Lsn RedoLog::GroupCommit(sim::ExecContext& ctx, Nanos window) {
  if (window <= 0) return Flush(ctx);
  if (buffer_.empty()) return flushed_lsn_;
  if (ctx.now < last_batch_completion_) {
    // A flush led by another committer is in flight (in virtual time);
    // this commit's bytes ride that same write: charge channel occupancy
    // but no additional I/O, and complete with the batch.
    const Nanos entry = ctx.now;
    const uint64_t bytes = next_lsn_ - flushed_lsn_;
    sim::ChargeChannel(ctx, disk_->channel(), ctx.now, bytes);
    SealBuffer();
    flushed_lsn_ = next_lsn_;
    ctx.now = last_batch_completion_;
    ctx.t_io += ctx.now - entry;
    return flushed_lsn_;
  }
  // Lead a new batch: linger `window` to let followers accumulate, then
  // flush once. The linger is commit wait, charged to I/O like the
  // follower's wait and the flush itself.
  ctx.now += window;
  ctx.t_io += window;
  const Lsn flushed = Flush(ctx);
  last_batch_completion_ = ctx.now;
  return flushed;
}

void RedoLog::LoseUnflushedTail() {
  buffer_.clear();
  next_lsn_ = flushed_lsn_;
}

void RedoLog::Checkpoint(Lsn lsn) {
  POLAR_CHECK(lsn <= flushed_lsn_);
  // A checkpoint that does not advance puts no new segment behind it.
  if (lsn <= checkpoint_lsn_) return;
  checkpoint_lsn_ = lsn;
  // Segments wholly at or below the checkpoint form a prefix; no redo pass
  // reads below the checkpoint, so the whole prefix goes.
  durable_segs_.erase(
      durable_segs_.begin(),
      std::partition_point(durable_segs_.begin(), durable_segs_.end(),
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
      durable_segs_.begin(), durable_segs_.end(),
      [from](const Segment& s) { return s->back().end_lsn() <= from; });
  for (; seg != durable_segs_.end(); ++seg) {
    const std::vector<RedoRecord>& recs = **seg;
    auto it = std::partition_point(
        recs.begin(), recs.end(),
        [from](const RedoRecord& r) { return r.end_lsn() <= from; });
    for (; it != recs.end(); ++it) out.push_back(&*it);
  }
  return out;
}

void RedoLog::ChargeScan(sim::ExecContext& ctx, Lsn from) {
  if (flushed_lsn_ <= from) return;
  disk_->Read(ctx, flushed_lsn_ - from);
}

}  // namespace polarcxl::storage
