// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Deterministic fault schedules. A FaultPlan is an ordered list of fault
// events over *virtual* time: device/port outages, link degradation, flaky
// op windows, NIC brownouts, disk stalls and node crashes. Plans are plain
// data — the FaultInjector applies them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace polarcxl::faults {

enum class FaultKind : uint8_t {
  kCxlDown = 0,   // CXL device/port unreachable: accesses fail
  kCxlDegrade,    // CXL link latency inflation / bandwidth degradation
  kCxlFlaky,      // CXL accesses fail with seeded probability
  kNicDown,       // NIC brownout: verbs ops fail
  kNicDegrade,    // verbs ops pay extra latency / per-KiB slowdown
  kNicFlaky,      // verbs ops fail with seeded probability
  kDiskStall,     // disk ops pay extra latency
  kNodeCrash,     // node freeze/crash marker, consumed by drivers/tests
};

constexpr int kNumFaultKinds = 8;

/// Wildcard target: the event applies to every node/device.
constexpr uint32_t kAnyTarget = UINT32_MAX;

const char* FaultKindName(FaultKind kind);

/// One scheduled fault, active over the half-open window [at, until).
struct FaultEvent {
  FaultKind kind = FaultKind::kCxlDown;
  Nanos at = 0;
  Nanos until = 0;
  /// NodeId (NIC/crash kinds) or device index (CXL kinds); kAnyTarget = all.
  uint32_t target = kAnyTarget;
  /// Failure probability per op, used by the flaky kinds.
  double probability = 1.0;
  /// Per-op latency inflation (degrade kinds and disk stalls).
  Nanos extra_latency = 0;
  /// Bandwidth degradation as extra nanoseconds per KiB transferred.
  double per_kb_ns = 0.0;

  bool Active(Nanos now) const { return now >= at && now < until; }
  bool Matches(uint32_t t) const {
    return target == kAnyTarget || t == kAnyTarget || target == t;
  }
};

/// An ordered fault schedule plus the seed for its probability draws.
/// Same plan + same seed => bit-identical injection decisions.
struct FaultPlan {
  std::vector<FaultEvent> events;
  uint64_t seed = 1;

  FaultPlan& Add(FaultEvent e) {
    events.push_back(e);
    return *this;
  }

  bool empty() const { return events.empty(); }

  /// Rebases every event by `delta` (drivers author plans relative to the
  /// measurement window and shift them to absolute virtual time).
  void ShiftBy(Nanos delta);

  /// Stable-sorts events by (at, kind, target) — injection order for events
  /// sharing a timestamp is part of the deterministic contract.
  void Normalize();

  /// Rejects inverted windows, out-of-range probabilities, negative
  /// latencies, and overlapping same-kind windows aimed at the same target
  /// (silent last-writer-wins is never what the plan author meant). Call
  /// after building or parsing a plan.
  Status Validate() const;

  /// Round-trippable text form (one event per line, same syntax as Parse).
  std::string ToString() const;

  /// Parses the plan syntax used by benches and tests:
  ///
  ///   # comment
  ///   seed 7
  ///   cxl-down   at=10ms for=5ms
  ///   cxl-flaky  at=20ms for=4ms p=0.25
  ///   nic-degrade at=1ms for=2ms add=3us perkb=40
  ///   disk-stall at=0 for=1ms add=300us target=2
  ///   node-crash at=30ms for=2ms target=1
  ///
  /// Durations take ns/us/ms/s suffixes (bare numbers are nanoseconds).
  /// The parsed plan is normalized and validated.
  static Result<FaultPlan> Parse(std::string_view text);
};

}  // namespace polarcxl::faults
