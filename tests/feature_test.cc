// Tests for the extension features: group commit, the storage IOPS
// ceiling, and time attribution.
#include <gtest/gtest.h>

#include "engine/database.h"
#include "harness/instance_driver.h"

namespace polarcxl {
namespace {

using sim::ExecContext;

// ---------- group commit ----------

TEST(GroupCommitTest, ZeroWindowIsPlainFlush) {
  storage::SimDisk disk("d");
  storage::RedoLog log(&disk);
  std::vector<storage::RedoRecord> recs(1);
  recs[0].page_id = 1;
  recs[0].len = 4;
  recs[0].data = {1, 2, 3, 4};
  log.AppendMtr(std::move(recs));
  ExecContext ctx;
  log.GroupCommit(ctx, 0);
  EXPECT_EQ(log.flushed_lsn(), log.current_lsn());
  EXPECT_EQ(disk.write_ops(), 1u);
}

TEST(GroupCommitTest, InFlightCommitsShareOneIo) {
  storage::SimDisk disk("d");
  storage::RedoLog log(&disk);
  auto append = [&] {
    std::vector<storage::RedoRecord> recs(1);
    recs[0].page_id = 1;
    recs[0].len = 4;
    recs[0].data = {1, 2, 3, 4};
    log.AppendMtr(std::move(recs));
  };

  // Leader at t=0 lingers 20 us and flushes (completes ~70 us).
  append();
  ExecContext leader;
  log.GroupCommit(leader, Micros(20));
  EXPECT_EQ(disk.write_ops(), 1u);
  const Nanos completion = leader.now;
  EXPECT_GE(completion, Micros(70));

  // A follower whose commit lands inside the in-flight window rides along:
  // durable, same completion time, still one I/O.
  append();
  ExecContext follower;
  follower.now = Micros(30);
  log.GroupCommit(follower, Micros(20));
  EXPECT_EQ(disk.write_ops(), 1u);
  EXPECT_EQ(follower.now, completion);
  EXPECT_EQ(log.flushed_lsn(), log.current_lsn());

  // A commit after the batch completes leads a fresh one.
  append();
  ExecContext late;
  late.now = completion + Micros(1);
  log.GroupCommit(late, Micros(20));
  EXPECT_EQ(disk.write_ops(), 2u);
}

TEST(GroupCommitTest, EmptyBufferIsFree) {
  storage::SimDisk disk("d");
  storage::RedoLog log(&disk);
  ExecContext ctx;
  log.GroupCommit(ctx, Micros(20));
  EXPECT_EQ(disk.write_ops(), 0u);
  EXPECT_EQ(ctx.now, 0);
}

// ---------- storage IOPS ceiling ----------

TEST(DiskIopsTest, OperationRateIsCapped) {
  storage::SimDisk::Options o;
  o.iops = 10000;  // 10K ops/s
  storage::SimDisk disk("d", o);
  // 5000 tiny writes offered at t~0 must stretch to ~0.5 s.
  Nanos last = 0;
  for (int i = 0; i < 5000; i++) {
    ExecContext ctx;
    disk.Write(ctx, 64);
    last = std::max(last, ctx.now);
  }
  EXPECT_GT(last, Millis(400));
}

TEST(DiskIopsTest, UnlimitedByDefault) {
  storage::SimDisk disk("d");
  Nanos last = 0;
  for (int i = 0; i < 5000; i++) {
    ExecContext ctx;
    disk.Write(ctx, 64);
    last = std::max(last, ctx.now);
  }
  EXPECT_LT(last, Millis(1));  // latency only, no op queueing
}

// ---------- time attribution ----------

TEST(TimeAttributionTest, BucketsNeverExceedTotal) {
  harness::PoolingConfig c;
  c.kind = engine::BufferPoolKind::kTieredRdma;
  c.instances = 2;
  c.lanes_per_instance = 3;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 2000;
  c.warmup = Millis(20);
  c.measure = Millis(60);
  harness::PoolingResult r = harness::RunPooling(c);
  const auto& b = r.breakdown;
  EXPECT_GT(b.total, 0);
  EXPECT_GE(b.Cpu(), 0);  // components never exceed wall time
  EXPECT_GT(b.net, 0);    // the tiered pool must show network time
  EXPECT_NEAR(b.Pct(b.Cpu()) + b.Pct(b.mem) + b.Pct(b.io) + b.Pct(b.net) +
                  b.Pct(b.lock),
              1.0, 1e-9);
}

TEST(TimeAttributionTest, CxlPoolingShowsMemoryNotNetwork) {
  harness::PoolingConfig c;
  c.kind = engine::BufferPoolKind::kCxl;
  c.instances = 2;
  c.lanes_per_instance = 3;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 2000;
  c.cpu_cache_bytes = 1ULL << 20;
  c.warmup = Millis(20);
  c.measure = Millis(60);
  harness::PoolingResult r = harness::RunPooling(c);
  EXPECT_EQ(r.breakdown.net, 0);
  EXPECT_GT(r.breakdown.mem, 0);
}

}  // namespace
}  // namespace polarcxl
