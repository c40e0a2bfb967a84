// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Plain-text table/series printers for the benchmark binaries, so every
// bench emits the same rows/series its paper figure reports, and the JSON
// writer behind every committed BENCH_*.json.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace polarcxl::harness {

/// Fixed-width aligned table, printed to stdout.
class ReportTable {
 public:
  ReportTable(std::string title, std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Streaming JSON writer: nests objects and arrays with automatic commas
/// and escapes strings. Doubles print at a precision the caller picks, so
/// committed values keep their rounding. A kBlock container puts each child
/// on its own indented line; a kInline one (and everything inside it) stays
/// on one line, e.g. a sweep point or a timeline.
class JsonWriter {
 public:
  enum class Layout { kBlock, kInline };

  /// Opens the root object.
  JsonWriter();
  /// Opens a BENCH_<bench>.json document: the root object starts with the
  /// header block every bench file shares (bench, workload, scale,
  /// host_cpus, simd).
  JsonWriter(std::string bench, std::string_view workload, double scale);

  /// Names the next value; only valid directly inside an object.
  JsonWriter& Key(std::string_view key);
  JsonWriter& BeginObject(Layout layout = Layout::kBlock) {
    return Begin(true, layout);
  }
  JsonWriter& EndObject() { return End(true); }
  JsonWriter& BeginArray(Layout layout = Layout::kBlock) {
    return Begin(false, layout);
  }
  JsonWriter& EndArray() { return End(false); }

  JsonWriter& Value(std::string_view s);
  JsonWriter& Value(const char* s) { return Value(std::string_view(s)); }
  JsonWriter& Value(bool b);
  template <std::integral T>
  JsonWriter& Value(T v) {
    return Raw(std::to_string(v));
  }
  /// Fixed-point with `digits` decimals; non-finite values print as null.
  JsonWriter& Value(double v, int digits);
  JsonWriter& Value(double v) = delete;  // pick a precision

  template <typename... Args>
  JsonWriter& Field(std::string_view key, Args&&... value) {
    return Key(key).Value(std::forward<Args>(value)...);
  }

  /// Closes the root object and returns the document.
  std::string Finish();

  /// Finishes the document and writes it to BENCH_<bench>.json in the
  /// working directory, but only on a full-scale run (scale 1): a quick
  /// pass must not clobber the committed file with numbers from a smaller
  /// workload. Prints which of the two happened.
  void Commit();

 private:
  struct Frame {
    bool object;
    bool inline_layout;
    size_t children = 0;
  };
  void NewLine();
  /// Separator and indentation before the next child of the open container.
  void NextChild();
  JsonWriter& Raw(std::string_view text);
  JsonWriter& Begin(bool object, Layout layout);
  JsonWriter& End(bool object);

  std::string out_;
  std::vector<Frame> stack_;
  bool key_pending_ = false;
  std::string bench_;
  double scale_ = 0;
};

/// Number formatting helpers.
std::string Fmt(double v, int digits = 2);
std::string FmtK(double v);        // 1234567 -> "1234.6K"
std::string FmtGbps(double v);     // bandwidth in GB/s
std::string FmtPct(double frac);   // 0.62 -> "62%"
std::string FmtUs(double ns);      // nanoseconds -> "12.3us"

}  // namespace polarcxl::harness
