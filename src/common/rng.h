// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Deterministic, fast pseudo-random generators for workloads and tests.
#pragma once

#include <cstdint>

#include "common/macros.h"

namespace polarcxl {

/// The splitmix64 golden-ratio increment.
inline constexpr uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ULL;

/// splitmix64 output of the state after `x`: steps `x` by the gamma and
/// finalizes it. Also a stateless hash for counter-mode draws (hash the
/// counter, never advance a stream).
inline uint64_t Mix64(uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// splitmix64 — used for seeding and as a cheap general-purpose PRNG.
/// Deterministic across platforms; never seeded from wall-clock time so that
/// every simulation run is exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + kSplitMixGamma) {}

  uint64_t Next() {
    const uint64_t z = Mix64(state_);
    state_ += kSplitMixGamma;
    return z;
  }

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n) {
    POLAR_CHECK(n > 0);
    return Next() % n;
  }

  /// Uniform integer in [lo, hi] inclusive.
  uint64_t Range(uint64_t lo, uint64_t hi) {
    POLAR_CHECK(hi >= lo);
    return lo + Uniform(hi - lo + 1);
  }

  /// Bernoulli trial: true with probability p (0 <= p <= 1).
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Raw stream position, for world snapshot/restore. The value already
  /// includes the seeding gamma, so it must round-trip through
  /// set_raw_state(), never through the constructor.
  uint64_t raw_state() const { return state_; }
  void set_raw_state(uint64_t s) { state_ = s; }

 private:
  uint64_t state_;
};

/// Zipfian generator over [0, n), rejection-inversion method (Gray et al.).
/// Used for skewed workload key selection (sysbench's "special" distribution
/// analogue and TPC-C NURand-like hotspots).
class ZipfRng {
 public:
  ZipfRng(uint64_t seed, uint64_t n, double theta)
      : rng_(seed), n_(n), theta_(theta) {
    POLAR_CHECK(n > 0);
    zetan_ = Zeta(n);
    zeta2_ = Zeta(2);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - FastPow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
    // Constant for a given theta; computing pow() here instead of per draw
    // yields the exact same double, so the key sequence is unchanged.
    pow_half_theta_ = FastPow(0.5, theta_);
  }

  uint64_t Next() {
    const double u = rng_.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + pow_half_theta_) return 1;
    const double v =
        static_cast<double>(n_) * FastPow(eta_ * u - eta_ + 1.0, alpha_);
    uint64_t r = static_cast<uint64_t>(v);
    return r >= n_ ? n_ - 1 : r;
  }

  /// Underlying uniform stream position (the zeta/alpha constants are pure
  /// functions of (n, theta), so the stream is the only mutable state).
  uint64_t raw_state() const { return rng_.raw_state(); }
  void set_raw_state(uint64_t s) { rng_.set_raw_state(s); }

 private:
  static double FastPow(double base, double exp);

  double Zeta(uint64_t n) {
    double sum = 0;
    // For large n approximate the tail analytically to keep setup O(10^4).
    const uint64_t exact = n < 10000 ? n : 10000;
    for (uint64_t i = 1; i <= exact; i++) sum += FastPow(1.0 / static_cast<double>(i), theta_);
    if (n > exact) {
      // Integral approximation of sum_{exact+1..n} i^-theta.
      const double a = static_cast<double>(exact);
      const double b = static_cast<double>(n);
      sum += (FastPow(b, 1.0 - theta_) - FastPow(a, 1.0 - theta_)) / (1.0 - theta_);
    }
    return sum;
  }

  Rng rng_;
  uint64_t n_;
  double theta_;
  double zetan_;
  double zeta2_;
  double alpha_;
  double eta_;
  double pow_half_theta_;
};

inline double ZipfRng::FastPow(double base, double exp) {
  return __builtin_pow(base, exp);
}

}  // namespace polarcxl
