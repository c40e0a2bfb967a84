// Tests for the storage layer: simulated disk, page store, redo log.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <utility>

#include "storage/disk.h"
#include "storage/page_store.h"
#include "storage/redo_log.h"

namespace polarcxl::storage {
namespace {

using sim::ExecContext;

TEST(SimDiskTest, LatencyAndBandwidthCharged) {
  SimDisk disk("d");
  ExecContext ctx;
  disk.Read(ctx, kPageSize);
  EXPECT_GE(ctx.now, 90'000);
  const Nanos after_read = ctx.now;
  disk.Write(ctx, kPageSize);
  EXPECT_GE(ctx.now - after_read, 50'000);
  EXPECT_EQ(disk.read_bytes(), static_cast<uint64_t>(kPageSize));
  EXPECT_EQ(disk.write_ops(), 1u);
}

TEST(SimDiskTest, SaturationQueues) {
  SimDisk::Options o;
  o.bandwidth_bps = 1000000000;  // 1 GB/s
  SimDisk disk("d", o);
  ExecContext last;
  for (int i = 0; i < 1000; i++) {
    ExecContext ctx;
    disk.Write(ctx, 1 << 20);  // 1 GB total => ~1 s
    last = ctx;
  }
  EXPECT_GT(last.now, Secs(0.9));
}

TEST(PageStoreTest, UnwrittenPagesReadAsZero) {
  SimDisk disk("d");
  PageStore store(&disk);
  std::array<uint8_t, kPageSize> buf;
  buf.fill(0xFF);
  ExecContext ctx;
  store.ReadPage(ctx, 7, buf.data());
  for (uint8_t b : buf) ASSERT_EQ(b, 0);
  EXPECT_FALSE(store.Contains(7));
}

TEST(PageStoreTest, WriteReadRoundTrip) {
  SimDisk disk("d");
  PageStore store(&disk);
  std::array<uint8_t, kPageSize> in;
  for (size_t i = 0; i < in.size(); i++) in[i] = static_cast<uint8_t>(i * 7);
  ExecContext ctx;
  store.WritePage(ctx, 3, in.data());
  std::array<uint8_t, kPageSize> out{};
  store.ReadPage(ctx, 3, out.data());
  EXPECT_EQ(in, out);
  EXPECT_EQ(store.num_pages(), 1u);
  EXPECT_EQ(ctx.pages_read_io, 1u);
  EXPECT_EQ(ctx.pages_written_io, 1u);
}

class RedoLogTest : public ::testing::Test {
 protected:
  RedoLogTest() : disk_("d"), log_(&disk_) {}

  static RedoRecord MakeRecord(PageId page, uint16_t off,
                               std::vector<uint8_t> data) {
    RedoRecord r;
    r.page_id = page;
    r.page_off = off;
    r.len = static_cast<uint16_t>(data.size());
    r.data.assign(data.begin(), data.end());
    return r;
  }

  /// Appends `recs` as one mini-transaction and flushes them as one sealed
  /// segment.
  void FlushSegment(std::vector<RedoRecord> recs) {
    log_.AppendMtr(std::move(recs));
    ExecContext ctx;
    log_.Flush(ctx);
  }

  using Rec = std::pair<RedoKind, PageId>;

  /// (kind, page_id) of every durable record from LSN 0.
  std::vector<Rec> Durable() const {
    std::vector<Rec> out;
    for (const RedoRecord* r : log_.DurableRecordsFrom(0)) {
      out.emplace_back(r->kind, r->page_id);
    }
    return out;
  }

  SimDisk disk_;
  RedoLog log_;
};

TEST_F(RedoLogTest, LsnAdvancesByRecordBytes) {
  std::vector<RedoRecord> recs;
  recs.push_back(MakeRecord(1, 0, {1, 2, 3, 4}));
  const Lsn end = log_.AppendMtr(std::move(recs));
  EXPECT_EQ(end, 32u + 4u);  // 32-byte header + payload
  EXPECT_EQ(log_.current_lsn(), end);
  EXPECT_EQ(log_.flushed_lsn(), 0u);
  EXPECT_EQ(log_.unflushed_bytes(), end);
}

TEST_F(RedoLogTest, FlushMakesRecordsDurable) {
  std::vector<RedoRecord> recs;
  recs.push_back(MakeRecord(1, 8, {9, 9}));
  log_.AppendMtr(std::move(recs));
  ExecContext ctx;
  const Lsn flushed = log_.Flush(ctx);
  EXPECT_EQ(flushed, log_.current_lsn());
  EXPECT_GT(ctx.now, 0);
  EXPECT_EQ(log_.DurableRecordsFrom(0).size(), 1u);
}

TEST_F(RedoLogTest, CrashLosesUnflushedTail) {
  std::vector<RedoRecord> a;
  a.push_back(MakeRecord(1, 0, {1}));
  log_.AppendMtr(std::move(a));
  ExecContext ctx;
  log_.Flush(ctx);
  std::vector<RedoRecord> b;
  b.push_back(MakeRecord(2, 0, {2}));
  const Lsn before_crash = log_.AppendMtr(std::move(b));
  EXPECT_GT(before_crash, log_.flushed_lsn());

  log_.LoseUnflushedTail();
  EXPECT_EQ(log_.current_lsn(), log_.flushed_lsn());
  EXPECT_EQ(log_.DurableRecordsFrom(0).size(), 1u);
}

TEST_F(RedoLogTest, ScanFromLsnSkipsOlderRecords) {
  Lsn mid = 0;
  for (int i = 0; i < 10; i++) {
    std::vector<RedoRecord> recs;
    recs.push_back(MakeRecord(static_cast<PageId>(i), 0, {1, 2}));
    const Lsn end = log_.AppendMtr(std::move(recs));
    if (i == 4) mid = end;
  }
  ExecContext ctx;
  log_.Flush(ctx);
  const auto all = log_.DurableRecordsFrom(0);
  const auto tail = log_.DurableRecordsFrom(mid);
  EXPECT_EQ(all.size(), 10u);
  EXPECT_EQ(tail.size(), 5u);
  EXPECT_EQ(tail[0]->page_id, 5u);
}

TEST_F(RedoLogTest, CheckpointMonotonic) {
  std::vector<RedoRecord> recs;
  recs.push_back(MakeRecord(1, 0, {1, 2, 3}));
  log_.AppendMtr(std::move(recs));
  ExecContext ctx;
  const Lsn flushed = log_.Flush(ctx);
  log_.Checkpoint(flushed);
  EXPECT_EQ(log_.checkpoint_lsn(), flushed);
  log_.Checkpoint(0);  // must not regress
  EXPECT_EQ(log_.checkpoint_lsn(), flushed);
}

TEST_F(RedoLogTest, ChargeScanCostsProportionalToLogSize) {
  for (int i = 0; i < 100; i++) {
    std::vector<RedoRecord> recs;
    recs.push_back(MakeRecord(1, 0, std::vector<uint8_t>(100, 7)));
    log_.AppendMtr(std::move(recs));
  }
  ExecContext ctx;
  log_.Flush(ctx);
  disk_.ResetStats();
  ExecContext scan_ctx;
  log_.ChargeScan(scan_ctx, 0);
  EXPECT_EQ(disk_.read_bytes(), log_.flushed_lsn());
}

TEST_F(RedoLogTest, AtomicMtrAppendKeepsRecordsAdjacent) {
  std::vector<RedoRecord> recs;
  recs.push_back(MakeRecord(1, 0, {1}));
  recs.push_back(MakeRecord(2, 0, {2}));
  recs.push_back(MakeRecord(3, 0, {3}));
  log_.AppendMtr(std::move(recs));
  ExecContext ctx;
  log_.Flush(ctx);
  const auto all = log_.DurableRecordsFrom(0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_LT(all[0]->lsn, all[1]->lsn);
  EXPECT_LT(all[1]->lsn, all[2]->lsn);
  EXPECT_EQ(all[0]->end_lsn(), all[1]->lsn);
  EXPECT_EQ(all[1]->end_lsn(), all[2]->lsn);
}

TEST_F(RedoLogTest, CheckpointReleasesEverySegmentWhollyAtOrBelowIt) {
  FlushSegment({MakeRecord(1, 0, {1}), MakeRecord(2, 0, {2})});
  const Lsn first_end = log_.flushed_lsn();
  FlushSegment({MakeRecord(3, 0, {3})});
  FlushSegment({MakeRecord(4, 0, {4})});
  const Lsn current = log_.current_lsn();
  const Lsn flushed = log_.flushed_lsn();

  // A checkpoint at a segment's end releases that segment only.
  log_.Checkpoint(first_end);
  const std::vector<Rec> rest = {{RedoKind::kRaw, 3}, {RedoKind::kRaw, 4}};
  EXPECT_EQ(Durable(), rest);
  // A repeated checkpoint at the same LSN releases nothing.
  log_.Checkpoint(first_end);
  EXPECT_EQ(log_.checkpoint_lsn(), first_end);
  EXPECT_EQ(Durable(), rest);

  log_.Checkpoint(flushed);
  EXPECT_EQ(log_.current_lsn(), current);
  EXPECT_EQ(log_.flushed_lsn(), flushed);
  EXPECT_EQ(log_.checkpoint_lsn(), flushed);
  EXPECT_TRUE(log_.DurableRecordsFrom(0).empty());
  EXPECT_TRUE(log_.DurableRecordsFrom(flushed).empty());
  // A scan still charges every byte from its start LSN.
  disk_.ResetStats();
  ExecContext scan_ctx;
  log_.ChargeScan(scan_ctx, 0);
  EXPECT_EQ(disk_.read_bytes(), flushed);

  // A segment flushed after the checkpoint survives a repeat of it.
  FlushSegment({MakeRecord(5, 0, {5})});
  log_.Checkpoint(flushed);
  EXPECT_EQ(Durable(), (std::vector<Rec>{{RedoKind::kRaw, 5}}));
}

TEST_F(RedoLogTest, CheckpointKeepsTheSegmentItFallsInside) {
  FlushSegment({MakeRecord(1, 0, {1})});
  const Lsn mid = log_.AppendMtr({MakeRecord(2, 0, {2})});
  FlushSegment({MakeRecord(3, 0, {3})});
  log_.Checkpoint(mid);
  EXPECT_EQ(Durable(),
            (std::vector<Rec>{{RedoKind::kRaw, 2}, {RedoKind::kRaw, 3}}));
  ASSERT_EQ(log_.DurableRecordsFrom(mid).size(), 1u);
  EXPECT_EQ(log_.DurableRecordsFrom(mid)[0]->page_id, 3u);
}

TEST_F(RedoLogTest, RestoreBringsBackSegmentsACheckpointReleased) {
  for (uint16_t i = 0; i < 6; i++) {
    const uint8_t b = static_cast<uint8_t>(i);
    FlushSegment({MakeRecord(i, i, {b, 7}),
                  MakeRecord(i + 100u, 3, std::vector<uint8_t>(300, b))});
  }
  log_.AppendMtr({MakeRecord(50, 0, {5})});  // unflushed
  const RedoLog::State snap = log_.Capture();
  std::vector<RedoRecord> captured;
  for (const RedoRecord* r : log_.DurableRecordsFrom(0)) {
    captured.push_back(*r);
  }
  const Lsn current = log_.current_lsn();
  const Lsn flushed = log_.flushed_lsn();

  ExecContext ctx;
  log_.Flush(ctx);
  log_.Checkpoint(log_.flushed_lsn());
  ASSERT_TRUE(log_.DurableRecordsFrom(0).empty());
  FlushSegment({MakeRecord(60, 0, {6})});

  log_.Restore(snap);
  EXPECT_EQ(log_.current_lsn(), current);
  EXPECT_EQ(log_.flushed_lsn(), flushed);
  EXPECT_EQ(log_.checkpoint_lsn(), 0u);
  const auto restored = log_.DurableRecordsFrom(0);
  ASSERT_EQ(restored.size(), captured.size());
  for (size_t i = 0; i < captured.size(); i++) {
    const RedoRecord& a = captured[i];
    const RedoRecord& b = *restored[i];
    EXPECT_EQ(a.lsn, b.lsn);
    EXPECT_EQ(a.page_id, b.page_id);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.page_off, b.page_off);
    EXPECT_EQ(a.len, b.len);
    ASSERT_EQ(a.data.size(), b.data.size());
    EXPECT_EQ(std::memcmp(a.data.data(), b.data.data(), a.data.size()), 0);
  }
  // The restored buffer flushes as before the capture.
  log_.Flush(ctx);
  EXPECT_EQ(log_.DurableRecordsFrom(0).size(), captured.size() + 1);
}

}  // namespace
}  // namespace polarcxl::storage
