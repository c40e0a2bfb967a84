#include "faults/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace polarcxl::faults {

namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kCxlDown, "cxl-down"},
    {FaultKind::kCxlDegrade, "cxl-degrade"},
    {FaultKind::kCxlFlaky, "cxl-flaky"},
    {FaultKind::kNicDown, "nic-down"},
    {FaultKind::kNicDegrade, "nic-degrade"},
    {FaultKind::kNicFlaky, "nic-flaky"},
    {FaultKind::kDiskStall, "disk-stall"},
    {FaultKind::kNodeCrash, "node-crash"},
};
static_assert(sizeof(kKindNames) / sizeof(kKindNames[0]) == kNumFaultKinds);

bool ParseKind(std::string_view token, FaultKind* out) {
  for (const KindName& kn : kKindNames) {
    if (token == kn.name) {
      *out = kn.kind;
      return true;
    }
  }
  return false;
}

/// "10ms" / "3us" / "40ns" / "2s" / "1500" (bare = ns) -> Nanos.
bool ParseDuration(std::string_view token, Nanos* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const std::string buf(token);
  const double v = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str() || v < 0) return false;
  const std::string_view suffix(end);
  if (suffix.empty() || suffix == "ns") {
    *out = static_cast<Nanos>(v);
  } else if (suffix == "us") {
    *out = static_cast<Nanos>(v * 1e3);
  } else if (suffix == "ms") {
    *out = static_cast<Nanos>(v * 1e6);
  } else if (suffix == "s") {
    *out = static_cast<Nanos>(v * 1e9);
  } else {
    return false;
  }
  return true;
}

bool ParseF64(std::string_view token, double* out) {
  char* end = nullptr;
  const std::string buf(token);
  *out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size() && !buf.empty();
}

bool ParseU64(std::string_view token, uint64_t* out) {
  char* end = nullptr;
  const std::string buf(token);
  *out = std::strtoull(buf.c_str(), &end, 10);
  return end == buf.c_str() + buf.size() && !buf.empty();
}

std::string FmtDuration(Nanos n) {
  char buf[32];
  if (n % kNanosPerMilli == 0 && n != 0) {
    std::snprintf(buf, sizeof(buf), "%lldms",
                  static_cast<long long>(n / kNanosPerMilli));
  } else if (n % kNanosPerMicro == 0 && n != 0) {
    std::snprintf(buf, sizeof(buf), "%lldus",
                  static_cast<long long>(n / kNanosPerMicro));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(n));
  }
  return buf;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  for (const KindName& kn : kKindNames) {
    if (kn.kind == kind) return kn.name;
  }
  return "unknown";
}

void FaultPlan::ShiftBy(Nanos delta) {
  for (FaultEvent& e : events) {
    e.at += delta;
    e.until += delta;
  }
}

void FaultPlan::Normalize() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.target < b.target;
                   });
}

Status FaultPlan::Validate() const {
  for (const FaultEvent& e : events) {
    if (e.until <= e.at) {
      return Status::InvalidArgument(std::string(FaultKindName(e.kind)) +
                                     ": empty or inverted fault window");
    }
    if (e.probability < 0.0 || e.probability > 1.0) {
      return Status::InvalidArgument(std::string(FaultKindName(e.kind)) +
                                     ": probability outside [0,1]");
    }
    if (e.extra_latency < 0 || e.per_kb_ns < 0.0) {
      return Status::InvalidArgument(std::string(FaultKindName(e.kind)) +
                                     ": negative latency inflation");
    }
  }
  // Reject overlapping windows of the same kind aimed at the same target
  // (including via the any-target wildcard). The injector resolves such
  // overlaps last-writer-wins, which silently drops the earlier window's
  // parameters — almost always a plan-authoring mistake.
  for (size_t i = 0; i < events.size(); i++) {
    for (size_t j = i + 1; j < events.size(); j++) {
      const FaultEvent& a = events[i];
      const FaultEvent& b = events[j];
      if (a.kind != b.kind) continue;
      const bool same_target = a.target == b.target ||
                               a.target == kAnyTarget ||
                               b.target == kAnyTarget;
      if (!same_target) continue;
      if (a.at < b.until && b.at < a.until) {
        return Status::InvalidArgument(
            std::string(FaultKindName(a.kind)) + ": overlapping windows [" +
            FmtDuration(a.at) + "," + FmtDuration(a.until) + ") and [" +
            FmtDuration(b.at) + "," + FmtDuration(b.until) +
            ") for the same target");
      }
    }
  }
  return Status::OK();
}

std::string FaultPlan::ToString() const {
  std::string out = "seed " + std::to_string(seed) + "\n";
  char buf[64];
  for (const FaultEvent& e : events) {
    out += FaultKindName(e.kind);
    out += " at=" + FmtDuration(e.at);
    out += " for=" + FmtDuration(e.until - e.at);
    if (e.target != kAnyTarget) {
      out += " target=" + std::to_string(e.target);
    }
    if (e.probability != 1.0) {
      std::snprintf(buf, sizeof(buf), " p=%g", e.probability);
      out += buf;
    }
    if (e.extra_latency != 0) {
      out += " add=" + FmtDuration(e.extra_latency);
    }
    if (e.per_kb_ns != 0.0) {
      std::snprintf(buf, sizeof(buf), " perkb=%g", e.per_kb_ns);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

Result<FaultPlan> FaultPlan::Parse(std::string_view text) {
  FaultPlan plan;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    line_no++;

    // Strip comments and surrounding whitespace.
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty()) continue;

    // Tokenize on whitespace.
    std::vector<std::string_view> tokens;
    size_t t = 0;
    while (t < line.size()) {
      while (t < line.size() && (line[t] == ' ' || line[t] == '\t')) t++;
      size_t start = t;
      while (t < line.size() && line[t] != ' ' && line[t] != '\t') t++;
      if (t > start) tokens.push_back(line.substr(start, t - start));
    }
    if (tokens.empty()) continue;

    const std::string where = "line " + std::to_string(line_no) + ": ";
    if (tokens[0] == "seed") {
      if (tokens.size() != 2 || !ParseU64(tokens[1], &plan.seed)) {
        return Status::InvalidArgument(where + "bad seed directive");
      }
      continue;
    }

    FaultEvent e;
    if (!ParseKind(tokens[0], &e.kind)) {
      return Status::InvalidArgument(where + "unknown fault kind '" +
                                     std::string(tokens[0]) + "'");
    }
    bool has_at = false;
    Nanos duration = 0;
    for (size_t i = 1; i < tokens.size(); i++) {
      const std::string_view tok = tokens[i];
      const size_t eq = tok.find('=');
      if (eq == std::string_view::npos) {
        return Status::InvalidArgument(where + "expected key=value, got '" +
                                       std::string(tok) + "'");
      }
      const std::string_view key = tok.substr(0, eq);
      const std::string_view val = tok.substr(eq + 1);
      bool ok;
      if (key == "at") {
        ok = ParseDuration(val, &e.at);
        has_at = ok;
      } else if (key == "for") {
        ok = ParseDuration(val, &duration);
      } else if (key == "add") {
        ok = ParseDuration(val, &e.extra_latency);
      } else if (key == "target") {
        uint64_t v = 0;
        ok = ParseU64(val, &v) && v <= UINT32_MAX;
        e.target = static_cast<uint32_t>(v);
      } else if (key == "p") {
        ok = ParseF64(val, &e.probability);
      } else if (key == "perkb") {
        ok = ParseF64(val, &e.per_kb_ns);
      } else {
        return Status::InvalidArgument(where + "unknown key '" +
                                       std::string(key) + "'");
      }
      if (!ok) {
        return Status::InvalidArgument(where + "bad value '" +
                                       std::string(val) + "' for key '" +
                                       std::string(key) + "'");
      }
    }
    if (!has_at) {
      return Status::InvalidArgument(where + "missing at=<time>");
    }
    e.until = e.at + duration;
    plan.events.push_back(e);
  }
  plan.Normalize();
  POLAR_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

}  // namespace polarcxl::faults
