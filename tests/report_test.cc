// Tests for the reporting/metrics utilities used by the benchmark harness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "harness/metrics.h"
#include "harness/report.h"

namespace polarcxl::harness {
namespace {

TEST(FormatTest, Numbers) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(3.14159, 0), "3");
  EXPECT_EQ(FmtK(1234567), "1234.6K");
  EXPECT_EQ(FmtK(500), "0.5K");
  EXPECT_EQ(FmtGbps(11.994), "11.99GB/s");
  EXPECT_EQ(FmtPct(0.625), "62.5%");
  EXPECT_EQ(FmtUs(12345), "12.3us");
}

TEST(RunMetricsTest, RatesFromWindow) {
  RunMetrics m;
  m.queries = 1000;
  m.events = 100;
  m.window = Secs(0.5);
  EXPECT_DOUBLE_EQ(m.Qps(), 2000.0);
  EXPECT_DOUBLE_EQ(m.Tps(), 200.0);
}

TEST(RunMetricsTest, EmptyWindowIsZero) {
  RunMetrics m;
  EXPECT_DOUBLE_EQ(m.Qps(), 0.0);
  EXPECT_DOUBLE_EQ(m.Tps(), 0.0);
  EXPECT_DOUBLE_EQ(m.AvgLatencyUs(), 0.0);
}

TEST(RunMetricsTest, LatencyPercentiles) {
  RunMetrics m;
  for (int i = 1; i <= 100; i++) m.latency.Add(i * 1000);
  EXPECT_NEAR(m.AvgLatencyUs(), 50.5, 0.1);
  EXPECT_NEAR(m.P95LatencyUs(), 95.0, 4.0);
}

TEST(BandwidthProbeTest, DeltaOverWindow) {
  BandwidthProbe probe;
  probe.before = 1000;
  probe.after = 1000 + 3ULL * 1000 * 1000 * 1000;  // +3 GB
  EXPECT_NEAR(probe.Gbps(Secs(1)), 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(probe.Gbps(0), 0.0);
}

TEST(ReportTableTest, PrintsAlignedRows) {
  ReportTable table("unit", {"a", "column-b"});
  table.AddRow({"1", "2"});
  table.AddRow({"333333", "4"});
  // Printing must not crash and row arity is enforced.
  table.Print();
  EXPECT_DEATH(table.AddRow({"only-one"}), "POLAR_CHECK");
}

using Layout = JsonWriter::Layout;

TEST(JsonWriterTest, NestsWithCommasAndIndentation) {
  JsonWriter w;
  w.Field("a", 1);
  w.Key("obj").BeginObject().Field("b", true).Field("c", "x").EndObject();
  w.Key("list").BeginArray();
  // Everything inside an inline container stays on its line.
  w.BeginObject(Layout::kInline).Field("d", 2).Key("e").BeginObject();
  w.Field("f", false).EndObject().EndObject().Value(3).EndArray();
  w.Key("empty").BeginArray().EndArray();
  w.Key("row").BeginArray(Layout::kInline).Value(1).Value(2);
  w.BeginArray().Value(3).EndArray().EndArray();
  EXPECT_EQ(w.Finish(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"obj\": {\n"
            "    \"b\": true,\n"
            "    \"c\": \"x\"\n"
            "  },\n"
            "  \"list\": [\n"
            "    {\"d\": 2, \"e\": {\"f\": false}},\n"
            "    3\n"
            "  ],\n"
            "  \"empty\": [],\n"
            "  \"row\": [1, 2, [3]]\n"
            "}\n");
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControls) {
  JsonWriter w;
  w.Field("k\"ey", "say \"hi\" in C:\\dir\n");
  EXPECT_EQ(w.Finish(),
            "{\n  \"k\\\"ey\": \"say \\\"hi\\\" in C:\\\\dir\\u000a\"\n}\n");
}

TEST(JsonWriterTest, NumbersPrintAtTheCallersPrecision) {
  JsonWriter w;
  w.Field("pi", 3.14159, 2).Field("whole", 2.75, 0).Field("padded", 0.1, 4);
  w.Field("max_u64", uint64_t{18446744073709551615ULL}).Field("neg", -7);
  w.Field("nan", std::nan(""), 2);
  EXPECT_EQ(w.Finish(),
            "{\n  \"pi\": 3.14,\n  \"whole\": 3,\n  \"padded\": 0.1000,\n"
            "  \"max_u64\": 18446744073709551615,\n  \"neg\": -7,\n"
            "  \"nan\": null\n}\n");
}

TEST(JsonWriterTest, BenchHeaderAndFullScaleOnlyCommit) {
  JsonWriter quick("report_test", "unit \"workload\"", 0.1);
  quick.Field("x", 1);
  const std::string doc = JsonWriter(quick).Finish();
  EXPECT_EQ(doc.rfind("{\n  \"bench\": \"report_test\",\n"
                      "  \"workload\": \"unit \\\"workload\\\"\",\n"
                      "  \"scale\": 0.100,\n  \"host_cpus\": ",
                      0),
            0u)
      << doc;
  EXPECT_NE(doc.find(",\n  \"simd\": \""), std::string::npos) << doc;
  quick.Commit();  // a quick run must not refresh the committed file
  EXPECT_EQ(std::fopen("BENCH_report_test.json", "r"), nullptr);

  JsonWriter full("report_test", "unit", 1.0);
  full.Field("x", 1);
  const std::string expected = JsonWriter(full).Finish();
  full.Commit();
  FILE* f = std::fopen("BENCH_report_test.json", "r");
  ASSERT_NE(f, nullptr);
  std::string written(expected.size() + 1, '\0');
  written.resize(std::fread(written.data(), 1, written.size(), f));
  std::fclose(f);
  std::remove("BENCH_report_test.json");
  EXPECT_EQ(written, expected);
}

TEST(JsonWriterTest, MisuseFailsLoudly) {
  EXPECT_DEATH(JsonWriter().Value(1), "POLAR_CHECK");  // member without key
  EXPECT_DEATH(JsonWriter().BeginArray().EndObject(), "POLAR_CHECK");
  EXPECT_DEATH(JsonWriter().Key("a").Key("b"), "POLAR_CHECK");
}

}  // namespace
}  // namespace polarcxl::harness
