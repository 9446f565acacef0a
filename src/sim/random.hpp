// Deterministic pseudo-random source for workload generation.
//
// We implement xoshiro256** seeded via SplitMix64 rather than relying on
// <random> engines + distributions: the standard distributions'
// value sequences are implementation-defined, and every committed sweep
// artefact must replay bit-identically on any toolchain.
#ifndef XDRS_SIM_RANDOM_HPP
#define XDRS_SIM_RANDOM_HPP

#include <array>
#include <cstdint>
#include <vector>

namespace xdrs::sim {

/// xoshiro256** 1.0 (Blackman & Vigna), period 2^256 - 1.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Next 64 uniform random bits.
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept;

  /// Uniform integer in [0, bound).  Precondition: bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.  Precondition: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Exponential with the given mean (inverse-CDF method).
  double exponential(double mean) noexcept;

  /// Pareto with shape alpha and minimum scale xm; heavy-tailed for
  /// alpha <= 2.  Used for ON/OFF burst and flow-size models.
  double pareto(double alpha, double xm) noexcept;

  /// Standard normal via Box-Muller (no state carried between calls).
  double normal(double mean, double stddev) noexcept;

  /// Geometric: number of Bernoulli(p) failures before the first success.
  std::uint64_t geometric(double p) noexcept;

  /// Forks an independent, reproducible child stream; children derived from
  /// the same parent state with distinct tags never correlate.
  [[nodiscard]] Rng fork(std::uint64_t tag) noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Samples from a Zipf(s) distribution over {0, .., n-1} via a precomputed
/// inverse CDF table; O(log n) per sample.  Used for hotspot traffic
/// matrices where a few destinations attract most of the demand.
class ZipfSampler {
 public:
  /// Precondition: n >= 1, skew >= 0 (skew == 0 degenerates to uniform).
  ZipfSampler(std::size_t n, double skew);

  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

  /// Probability mass of rank k (for test assertions).
  [[nodiscard]] double pmf(std::size_t k) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace xdrs::sim

#endif  // XDRS_SIM_RANDOM_HPP
