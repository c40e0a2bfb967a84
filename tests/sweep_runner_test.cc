// The parallel sweep runner must never change experiment results: each
// experiment owns its whole simulated world, so fanning a sweep out over
// threads is pure wall-clock parallelism. These tests pin that contract —
// bit-identical PoolingResults at any thread count, including with the
// measurement windows rescaled through POLAR_BENCH_SCALE — and the bench
// knobs and pin check of bench/bench_common.h.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "harness/instance_driver.h"
#include "harness/sweep_runner.h"

namespace polarcxl::harness {
namespace {

PoolingConfig SmallPooling(engine::BufferPoolKind kind) {
  PoolingConfig c;
  c.kind = kind;
  c.instances = 2;
  c.lanes_per_instance = 3;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 1500;
  c.warmup = Millis(10);
  c.measure = Millis(40);
  return c;
}

void ExpectBitIdentical(const PoolingResult& a, const PoolingResult& b) {
  EXPECT_EQ(a.metrics.queries, b.metrics.queries);
  EXPECT_EQ(a.metrics.events, b.metrics.events);
  EXPECT_EQ(a.metrics.latency.max(), b.metrics.latency.max());
  EXPECT_DOUBLE_EQ(a.interconnect_gbps, b.interconnect_gbps);
  EXPECT_EQ(a.line_hits, b.line_hits);
  EXPECT_EQ(a.line_misses, b.line_misses);
  EXPECT_EQ(a.lane_steps, b.lane_steps);
  EXPECT_EQ(a.virtual_end, b.virtual_end);
  EXPECT_EQ(a.breakdown.total, b.breakdown.total);
  EXPECT_EQ(a.breakdown.mem, b.breakdown.mem);
}

TEST(SweepRunnerTest, SweepThreadsReadsEnv) {
  setenv("POLAR_SWEEP_THREADS", "3", 1);
  EXPECT_EQ(SweepThreads(), 3u);
  setenv("POLAR_SWEEP_THREADS", "0", 1);  // values < 1 clamp to 1
  EXPECT_EQ(SweepThreads(), 1u);
  unsetenv("POLAR_SWEEP_THREADS");
  EXPECT_GE(SweepThreads(), 1u);
}

TEST(SweepRunnerTest, IndexedTasksCoverEveryIndexOnce) {
  for (unsigned threads : {1u, 2u, 5u, 16u}) {
    constexpr size_t kN = 103;
    std::vector<std::atomic<int>> counts(kN);
    RunIndexedTasks(
        kN, [&](size_t i) { counts[i].fetch_add(1); }, threads);
    for (size_t i = 0; i < kN; i++) {
      EXPECT_EQ(counts[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
  // Empty sweep is a no-op.
  RunIndexedTasks(0, [](size_t) { FAIL(); }, 4);
}

TEST(SweepRunnerTest, PoolingSweepBitIdenticalAcrossThreadCounts) {
  std::vector<PoolingConfig> configs = {
      SmallPooling(engine::BufferPoolKind::kCxl),
      SmallPooling(engine::BufferPoolKind::kTieredRdma),
      SmallPooling(engine::BufferPoolKind::kDram),
  };
  auto run = [](const PoolingConfig& c) { return RunPooling(c); };
  const auto serial =
      RunSweep<PoolingConfig, PoolingResult>(configs, run, /*threads=*/1);
  const auto parallel =
      RunSweep<PoolingConfig, PoolingResult>(configs, run, /*threads=*/4);
  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (size_t i = 0; i < configs.size(); i++) {
    SCOPED_TRACE(i);
    ExpectBitIdentical(serial[i], parallel[i]);
  }
}

TEST(SweepRunnerTest, ScaledWindowsStayDeterministicAcrossThreadCounts) {
  // The figure benches scale their measurement windows via POLAR_BENCH_SCALE;
  // a rescaled sweep must still be thread-count independent.
  setenv("POLAR_BENCH_SCALE", "0.5", 1);
  PoolingConfig base = SmallPooling(engine::BufferPoolKind::kCxl);
  base.warmup = bench::Scaled(Millis(20));
  base.measure = bench::Scaled(Millis(80));
  EXPECT_EQ(base.measure, Millis(40));  // scale actually applied
  std::vector<PoolingConfig> configs = {base, base, base, base};
  configs[1].seed = 7;
  configs[2].kind = engine::BufferPoolKind::kTieredRdma;
  configs[3].sysbench.rows_per_table = 2000;
  auto run = [](const PoolingConfig& c) { return RunPooling(c); };
  const auto serial =
      RunSweep<PoolingConfig, PoolingResult>(configs, run, /*threads=*/1);
  const auto parallel =
      RunSweep<PoolingConfig, PoolingResult>(configs, run, /*threads=*/3);
  unsetenv("POLAR_BENCH_SCALE");
  for (size_t i = 0; i < configs.size(); i++) {
    SCOPED_TRACE(i);
    ExpectBitIdentical(serial[i], parallel[i]);
  }
}

TEST(BenchKnobsTest, MalformedScaleOrRepsExitsInsteadOfDefaulting) {
  // A typo must not silently run at full scale: that rewrites the committed
  // BENCH_*.json and skips the pin gates.
  for (const char* bad : {"0,1", "0", "-0.1", "abc", "", "0.1x", "nan"}) {
    SCOPED_TRACE(bad);
    setenv("POLAR_BENCH_SCALE", bad, 1);
    EXPECT_EXIT(bench::BenchScale(), ::testing::ExitedWithCode(2),
                "POLAR_BENCH_SCALE");
  }
  setenv("POLAR_BENCH_SCALE", "0.1", 1);
  EXPECT_EQ(bench::BenchScale(), bench::pins::kScale);
  unsetenv("POLAR_BENCH_SCALE");
  EXPECT_EQ(bench::BenchScale(), 1.0);

  for (const char* bad : {"0", "2.5", "x", "-3"}) {
    SCOPED_TRACE(bad);
    setenv("POLAR_BENCH_REPS", bad, 1);
    EXPECT_EXIT(bench::BenchReps(5), ::testing::ExitedWithCode(2),
                "POLAR_BENCH_REPS");
  }
  setenv("POLAR_BENCH_REPS", "3", 1);
  EXPECT_EQ(bench::BenchReps(5), 3);
  unsetenv("POLAR_BENCH_REPS");
  EXPECT_EQ(bench::BenchReps(5), 5);
}

TEST(BenchKnobsTest, MalformedThreadCountsExitInsteadOfDefaulting) {
  // A typo must not silently pick another execution discipline: "four" used
  // to run the serial executor (and check the serial pins), "2x" read as 2.
  for (const char* bad :
       {"four", "2x", "-1", "1.5", " 2", "+2", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    setenv("POLAR_SWEEP_THREADS", bad, 1);
    EXPECT_EXIT(SweepThreads(), ::testing::ExitedWithCode(2),
                "POLAR_SWEEP_THREADS");
    unsetenv("POLAR_SWEEP_THREADS");
    setenv("POLAR_WORLD_THREADS", bad, 1);
    EXPECT_EXIT(RunPooling(SmallPooling(engine::BufferPoolKind::kCxl)),
                ::testing::ExitedWithCode(2), "POLAR_WORLD_THREADS");
    unsetenv("POLAR_WORLD_THREADS");
  }
  // Unset and 0 run the serial executor, a positive count the epoch one.
  const PoolingConfig c = SmallPooling(engine::BufferPoolKind::kCxl);
  EXPECT_EQ(RunPooling(c).epochs, 0u);
  setenv("POLAR_WORLD_THREADS", "0", 1);
  EXPECT_EQ(RunPooling(c).epochs, 0u);
  setenv("POLAR_WORLD_THREADS", "2", 1);
  EXPECT_GT(RunPooling(c).epochs, 0u);
  unsetenv("POLAR_WORLD_THREADS");
}

TEST(BenchKnobsTest, CheckPinsNamesEveryDriftingValue) {
  using bench::Ceiling;
  using bench::Pin;
  setenv("POLAR_BENCH_SCALE", "0.1", 1);  // the pin scale
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(
      bench::CheckPins("unit", {Pin("steps", 5, 5), Ceiling("share", 0.5, 0.9)}),
      0);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("unit: pins checked"), std::string::npos) << out;

  ::testing::internal::CaptureStderr();
  EXPECT_EQ(bench::CheckPins("unit", {Pin("steps", 5, 5),
                                      Pin("epoch steps", 6, 7),
                                      Ceiling("share", 0.95, 0.9)}),
            1);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("epoch steps = 6, bench/pins.h pins it at 7"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("share = 0.95, bench/pins.h caps it at 0.9"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("steps = 5"), std::string::npos) << err;

  // Off the pin scale nothing is compared, and the run says so.
  setenv("POLAR_BENCH_SCALE", "1", 1);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(bench::CheckPins("unit", {Pin("steps", 6, 7)}), 0);
  const std::string skipped = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(skipped.find("unit: pins not checked"), std::string::npos)
      << skipped;
  unsetenv("POLAR_BENCH_SCALE");
}

}  // namespace
}  // namespace polarcxl::harness
