// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Open-loop traffic primitives: deterministic per-tenant arrival schedules
// and a bounded, QoS-classed admission queue. Every closed-loop bench in
// this repo issues the next op the instant the previous one completes; a
// cloud database serves the opposite regime — requests arrive whether or
// not the system keeps up — and what matters is goodput under a tail SLO.
// This header holds the pure pieces (no simulator dependencies); the
// traffic driver composes them with SimWorld.
//
// Determinism contract: GenerateArrivals is counter-mode — every uniform
// draw is a pure hash of (seed, tenant, draw index), so a tenant's schedule
// is bit-identical regardless of generation order, POLAR_SWEEP_THREADS, or
// POLAR_WORLD_THREADS. No shared RNG stream exists to race on.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.h"

namespace polarcxl::harness {

/// Tenant service class. Gold tenants get a weighted share of server pops
/// and their own queue cap; best-effort tenants absorb overload first.
enum class QosClass : uint8_t { kGold = 0, kBestEffort = 1 };
constexpr int kNumQosClasses = 2;

const char* QosClassName(QosClass qos);

/// Shape of one tenant's arrival process.
enum class ArrivalKind : uint8_t {
  kPoisson,      // homogeneous Poisson at rate_per_sec
  kBurstyOnOff,  // square wave: rate_per_sec during on, rate*off_factor off
};

struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate_per_sec = 100'000.0;
  // ---- kBurstyOnOff ----
  Nanos on_period = Millis(20);
  Nanos off_period = Millis(20);
  double off_factor = 0.1;  // off-window rate multiplier, in [0,1]
};

/// Instantaneous rate (ops/sec) of `spec` at offset `t` into the window.
double ArrivalRateAt(const ArrivalSpec& spec, Nanos t);
/// Upper bound on ArrivalRateAt over any t (the thinning envelope).
double ArrivalPeakRate(const ArrivalSpec& spec);

/// Materializes tenant `tenant_id`'s arrival timestamps over [0, window),
/// sorted ascending. Inhomogeneous processes use Lewis-Shedler thinning: a
/// homogeneous Poisson stream at the peak rate, each point kept with
/// probability rate(t)/peak — both draws counter-mode, so the schedule is a
/// pure function of (spec, seed, tenant_id, window).
std::vector<Nanos> GenerateArrivals(const ArrivalSpec& spec, uint64_t seed,
                                    uint32_t tenant_id, Nanos window);

/// One admitted (not yet served) request.
struct AdmittedOp {
  Nanos arrival = 0;    // absolute virtual arrival time
  uint32_t tenant = 0;  // index into the driver's tenant table
};

/// Bounded two-class FIFO with weighted round-robin service. Offer() is the
/// admission decision: a full class queue sheds the arrival immediately
/// (the client sees Unavailable, the server never spends a cycle on it).
/// Pop() interleaves classes by deficit credits — with both queues backlogged
/// gold receives kGoldWeight pops for every kBestEffortWeight best-effort
/// pops; an empty class forfeits its share (work-conserving).
class AdmissionQueue {
 public:
  static constexpr uint32_t kGoldWeight = 4;
  static constexpr uint32_t kBestEffortWeight = 1;

  struct Options {
    size_t gold_cap = 1024;
    size_t best_effort_cap = 1024;
  };

  AdmissionQueue() = default;
  explicit AdmissionQueue(Options opt) : opt_(opt) {}

  /// Enqueues if the class has room; false = shed at admission.
  bool Offer(QosClass qos, AdmittedOp op) {
    std::deque<AdmittedOp>& q = queue_[Idx(qos)];
    if (q.size() >= Cap(qos)) return false;
    q.push_back(op);
    return true;
  }

  /// Dequeues the next op by weighted round-robin; false when empty.
  bool Pop(AdmittedOp* out);

  size_t size() const { return queue_[0].size() + queue_[1].size(); }
  size_t size(QosClass qos) const { return queue_[Idx(qos)].size(); }
  bool empty() const { return size() == 0; }

  const Options& options() const { return opt_; }

 private:
  static int Idx(QosClass qos) { return static_cast<int>(qos); }
  size_t Cap(QosClass qos) const {
    return qos == QosClass::kGold ? opt_.gold_cap : opt_.best_effort_cap;
  }

  Options opt_;
  std::deque<AdmittedOp> queue_[kNumQosClasses];
  uint32_t credits_[kNumQosClasses] = {0, 0};
};

}  // namespace polarcxl::harness
