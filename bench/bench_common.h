// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Shared helpers for the figure/table benchmark binaries.
#pragma once

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/pins.h"
#include "common/histogram.h"
#include "common/types.h"
#include "harness/report.h"

namespace polarcxl::bench {

/// Exits 2 naming a malformed knob. Falling back to a default instead would
/// turn a typo into a full-scale run, which rewrites the committed
/// BENCH_*.json and skips the pin gates.
[[noreturn]] inline void RejectEnv(const char* name, const char* value,
                                   const char* expected) {
  std::fprintf(stderr, "%s=\"%s\" is not %s\n", name, value, expected);
  std::exit(2);
}

/// POLAR_BENCH_SCALE scales measurement windows (default 1.0). Raise it for
/// tighter confidence; lower it for a quick smoke pass.
inline double BenchScale() {
  const char* env = std::getenv("POLAR_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(v > 0) || !std::isfinite(v)) {
    RejectEnv("POLAR_BENCH_SCALE", env, "a positive number");
  }
  return v;
}

/// POLAR_BENCH_REPS repeats each measured point (`fallback` when unset).
inline int BenchReps(int fallback) {
  const char* env = std::getenv("POLAR_BENCH_REPS");
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 1 || v > INT_MAX) {
    RejectEnv("POLAR_BENCH_REPS", env, "a positive integer");
  }
  return static_cast<int>(v);
}

inline Nanos Scaled(Nanos base) {
  return static_cast<Nanos>(static_cast<double>(base) * BenchScale());
}

/// Header block naming the paper artifact this binary regenerates.
inline void PrintHeader(const char* artifact, const char* paper_summary) {
  std::printf("=============================================================\n");
  std::printf("PolarCXLMem reproduction — %s\n", artifact);
  std::printf("Paper reports: %s\n", paper_summary);
  std::printf("Scale factor: %.2fx (POLAR_BENCH_SCALE)\n", BenchScale());
  std::printf("=============================================================\n");
}

/// A timeline's per-bucket counts as one inline JSON array.
inline void WriteBuckets(harness::JsonWriter& w, const char* key,
                         const TimeSeries& series) {
  w.Key(key).BeginArray(harness::JsonWriter::Layout::kInline);
  for (size_t b = 0; b < series.num_buckets(); b++) w.Value(series.bucket(b));
  w.EndArray();
}

/// One measured value held to its bench/pins.h entry: equal to `pin`, or at
/// most `pin` for a ceiling.
struct PinnedValue {
  std::string name;
  double got;
  double pin;
  bool ceiling = false;
};

/// An exact lane_steps pin.
inline PinnedValue Pin(std::string name, uint64_t got, uint64_t pin) {
  return {std::move(name), static_cast<double>(got), static_cast<double>(pin)};
}

/// A cost ceiling: `got` must stay at most `max`.
inline PinnedValue Ceiling(std::string name, double got, double max) {
  return {std::move(name), got, max, true};
}

/// The self-check a pinned bench ends with. At the pin scale it compares
/// every value with its pin: when all hold it prints one "pins checked" line
/// and returns 0, otherwise it names each drifting value on stderr and
/// returns 1 (the bench's exit code). At any other scale it prints that the
/// pins were not checked and returns 0; tools/check.sh fails a quick run
/// that lacks the "pins checked" line.
inline int CheckPins(const char* bench,
                     const std::vector<PinnedValue>& values) {
  if (BenchScale() != pins::kScale) {
    std::printf("%s: pins not checked (POLAR_BENCH_SCALE=%g; bench/pins.h "
                "pins scale %g)\n",
                bench, BenchScale(), pins::kScale);
    return 0;
  }
  int rc = 0;
  std::string held;
  for (const PinnedValue& v : values) {
    char got[160];
    std::snprintf(got, sizeof(got), "%s = %.10g", v.name.c_str(), v.got);
    if (v.ceiling ? v.got <= v.pin : v.got == v.pin) {
      held += (held.empty() ? "" : ", ") + std::string(got);
    } else {
      std::fprintf(stderr, "%s: pin drift: %s, bench/pins.h %s %.10g\n",
                   bench, got, v.ceiling ? "caps it at" : "pins it at", v.pin);
      rc = 1;
    }
  }
  if (rc == 0) std::printf("%s: pins checked: %s\n", bench, held.c_str());
  return rc;
}

}  // namespace polarcxl::bench
