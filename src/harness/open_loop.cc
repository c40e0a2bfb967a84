#include "harness/open_loop.h"

#include <cmath>

#include "common/macros.h"
#include "common/rng.h"

namespace polarcxl::harness {

namespace {

/// Uniform double in [0, 1) from (seed, tenant, draw counter): the same
/// counter-mode idiom as FaultInjector::Draw.
double CounterU01(uint64_t seed, uint32_t tenant, uint64_t counter) {
  const uint64_t h =
      Mix64(seed ^ Mix64((static_cast<uint64_t>(tenant) << 40) | counter));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Hard cap on one tenant's schedule length: a typo'd rate should fail
/// loudly in the driver's accounting, not OOM the harness.
constexpr size_t kMaxArrivals = size_t{1} << 24;  // 16M

}  // namespace

const char* QosClassName(QosClass qos) {
  return qos == QosClass::kGold ? "gold" : "best-effort";
}

double ArrivalRateAt(const ArrivalSpec& spec, Nanos t) {
  switch (spec.kind) {
    case ArrivalKind::kPoisson:
      return spec.rate_per_sec;
    case ArrivalKind::kBurstyOnOff: {
      const Nanos cycle = spec.on_period + spec.off_period;
      if (cycle <= 0) return spec.rate_per_sec;
      const Nanos phase = t % cycle;
      return phase < spec.on_period ? spec.rate_per_sec
                                    : spec.rate_per_sec * spec.off_factor;
    }
  }
  return spec.rate_per_sec;
}

double ArrivalPeakRate(const ArrivalSpec& spec) {
  switch (spec.kind) {
    case ArrivalKind::kPoisson:
      return spec.rate_per_sec;
    case ArrivalKind::kBurstyOnOff:
      // off_factor <= 1 makes the on-rate the envelope; a misconfigured
      // factor > 1 still thins correctly against the larger rate.
      return spec.rate_per_sec * (spec.off_factor > 1.0 ? spec.off_factor
                                                        : 1.0);
  }
  return spec.rate_per_sec;
}

std::vector<Nanos> GenerateArrivals(const ArrivalSpec& spec, uint64_t seed,
                                    uint32_t tenant_id, Nanos window) {
  std::vector<Nanos> out;
  const double peak = ArrivalPeakRate(spec);
  if (peak <= 0.0 || window <= 0) return out;
  POLAR_CHECK_MSG(spec.off_factor >= 0.0, "negative off_factor");

  // Lewis-Shedler thinning over a homogeneous envelope at `peak`:
  //   dt ~ Exp(peak); keep the point iff u * peak < rate(t).
  // Exactly two counter draws per candidate point, so the draw index — and
  // with it every accepted timestamp — is a pure function of the spec.
  double t_ns = 0.0;
  const double wnd = static_cast<double>(window);
  uint64_t counter = 0;
  while (true) {
    const double u1 = CounterU01(seed, tenant_id, counter++);
    // -ln(1-u) of u in [0,1) is finite; Exp(peak) in seconds -> ns.
    t_ns += -std::log1p(-u1) / peak * 1e9;
    if (t_ns >= wnd) break;
    const double u2 = CounterU01(seed, tenant_id, counter++);
    if (u2 * peak < ArrivalRateAt(spec, static_cast<Nanos>(t_ns))) {
      out.push_back(static_cast<Nanos>(t_ns));
      POLAR_CHECK_MSG(out.size() <= kMaxArrivals,
                      "arrival schedule exceeds 16M points — bad rate?");
    }
  }
  return out;
}

bool AdmissionQueue::Pop(AdmittedOp* out) {
  const bool gold = !queue_[0].empty();
  const bool be = !queue_[1].empty();
  if (!gold && !be) return false;
  bool pick_gold;
  if (!be) {
    pick_gold = true;
  } else if (!gold) {
    pick_gold = false;
  } else {
    // Both backlogged: spend deficit credits, refill when exhausted. The
    // refill point is deterministic (no clock involved), so the interleave
    // is a pure function of the Offer/Pop sequence.
    if (credits_[0] == 0 && credits_[1] == 0) {
      credits_[0] = kGoldWeight;
      credits_[1] = kBestEffortWeight;
    }
    pick_gold = credits_[0] > 0;
  }
  const int idx = pick_gold ? 0 : 1;
  *out = queue_[idx].front();
  queue_[idx].pop_front();
  if (credits_[idx] > 0) credits_[idx]--;
  return true;
}

}  // namespace polarcxl::harness
