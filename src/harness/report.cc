#include "harness/report.h"

#include <cmath>
#include <cstdio>
#include <thread>

#include "common/macros.h"
#include "common/simd.h"

namespace polarcxl::harness {

ReportTable::ReportTable(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void ReportTable::AddRow(std::vector<std::string> cells) {
  POLAR_CHECK(cells.size() == columns_.size());
  rows_.push_back(std::move(cells));
}

void ReportTable::Print() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); c++) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); c++) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::printf("\n== %s ==\n", title_.c_str());
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); c++) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(columns_);
  std::string rule;
  for (size_t c = 0; c < columns_.size(); c++) {
    rule.append(widths[c], '-');
    rule.append("  ");
  }
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
}

namespace {

std::string Quoted(std::string_view s) {
  std::string q = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) {
      q += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      q += buf;
    }
  }
  return q + '"';
}

}  // namespace

JsonWriter::JsonWriter() : out_("{"), stack_{Frame{true, false}} {}

JsonWriter::JsonWriter(std::string bench, std::string_view workload,
                       double scale)
    : JsonWriter() {
  bench_ = std::move(bench);
  scale_ = scale;
  Field("bench", bench_);
  Field("workload", workload);
  Field("scale", scale, 3);
  // Wall-clock figures move with the host; virtual-time ones do not.
  Field("host_cpus", std::thread::hardware_concurrency());
  Field("simd", kSimdLevel);
}

void JsonWriter::NewLine() {
  out_ += '\n';
  out_.append(2 * stack_.size(), ' ');
}

void JsonWriter::NextChild() {
  Frame& f = stack_.back();
  if (f.children++ > 0) out_ += f.inline_layout ? ", " : ",";
  if (!f.inline_layout) NewLine();
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  POLAR_CHECK(!stack_.empty() && stack_.back().object && !key_pending_);
  NextChild();
  out_ += Quoted(key);
  out_ += ": ";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view text) {
  POLAR_CHECK(!stack_.empty());
  if (stack_.back().object) {
    POLAR_CHECK_MSG(key_pending_, "object member without a Key");
    key_pending_ = false;
  } else {
    NextChild();
  }
  out_ += text;
  return *this;
}

JsonWriter& JsonWriter::Begin(bool object, Layout layout) {
  Raw(object ? "{" : "[");
  const bool inline_layout =
      layout == Layout::kInline || stack_.back().inline_layout;
  stack_.push_back(Frame{object, inline_layout});
  return *this;
}

JsonWriter& JsonWriter::End(bool object) {
  POLAR_CHECK(!stack_.empty() && stack_.back().object == object &&
              !key_pending_);
  const Frame f = stack_.back();
  stack_.pop_back();
  if (!f.inline_layout && f.children > 0) NewLine();
  out_ += object ? '}' : ']';
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view s) { return Raw(Quoted(s)); }

JsonWriter& JsonWriter::Value(bool b) { return Raw(b ? "true" : "false"); }

JsonWriter& JsonWriter::Value(double v, int digits) {
  return Raw(std::isfinite(v) ? Fmt(v, digits) : "null");
}

std::string JsonWriter::Finish() {
  POLAR_CHECK(stack_.size() == 1);
  End(true);
  return out_ + '\n';
}

void JsonWriter::Commit() {
  POLAR_CHECK(!bench_.empty());
  const std::string path = "BENCH_" + bench_ + ".json";
  const std::string doc = Finish();
  if (scale_ != 1.0) {
    std::printf("POLAR_BENCH_SCALE != 1: %s not refreshed\n", path.c_str());
    return;
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

std::string Fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string FmtK(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fK", v / 1000.0);
  return buf;
}

std::string FmtGbps(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2fGB/s", v);
  return buf;
}

std::string FmtPct(double frac) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%%", frac * 100.0);
  return buf;
}

std::string FmtUs(double ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1000.0);
  return buf;
}

}  // namespace polarcxl::harness
