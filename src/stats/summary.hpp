// Streaming scalar summary (Welford's online mean/variance) and the RFC 3550
// interarrival-jitter estimator behind the VOIP jitter report.
#ifndef XDRS_STATS_SUMMARY_HPP
#define XDRS_STATS_SUMMARY_HPP

#include <cmath>
#include <cstdint>

#include "sim/time.hpp"

namespace xdrs::stats {

/// Numerically stable running mean / variance / extrema.
class Summary {
 public:
  void record(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (n_ == 1) {
      min_ = max_ = x;
    } else {
      if (x < min_) min_ = x;
      if (x > max_) max_ = x;
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double variance() const noexcept {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return n_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return n_ == 0 ? 0.0 : max_; }

  /// Combines another summary as if its samples had been recorded here too
  /// (Chan et al. parallel Welford update).  Deterministic for identical
  /// operand states, which the mergeable RunReport relies on.
  void merge(const Summary& other) noexcept {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const std::uint64_t n = n_ + other.n_;
    const double delta = other.mean_ - mean_;
    mean_ += delta * static_cast<double>(other.n_) / static_cast<double>(n);
    m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                           static_cast<double>(other.n_) / static_cast<double>(n);
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    n_ = n;
  }

  void clear() noexcept { *this = Summary{}; }

  /// Full internal state, for exact serialization: from_state(s.state())
  /// reproduces a summary whose accessors and merge behaviour match `s`
  /// bit-for-bit (the doubles are the raw Welford accumulators).
  struct State {
    std::uint64_t n{0};
    double mean{0.0};
    double m2{0.0};
    double min{0.0};
    double max{0.0};
  };
  [[nodiscard]] State state() const noexcept { return {n_, mean_, m2_, min_, max_}; }
  [[nodiscard]] static Summary from_state(const State& s) noexcept {
    Summary out;
    out.n_ = s.n;
    out.mean_ = s.mean;
    out.m2_ = s.m2;
    out.min_ = s.min;
    out.max_ = s.max;
    return out;
  }

 private:
  std::uint64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// RFC 3550 §6.4.1 interarrival jitter: J += (|D| - J) / 16, where D is the
/// difference in transit time between consecutive packets of a flow.  The
/// metric VOIP monitoring actually uses, hence the paper's QoE framing.
class Rfc3550Jitter {
 public:
  /// Feed each delivered packet's send and receive timestamps in arrival
  /// order.
  void record(sim::Time sent, sim::Time received) noexcept {
    const std::int64_t transit = (received - sent).ps();
    if (has_prev_) {
      const double d = std::abs(static_cast<double>(transit - prev_transit_));
      jitter_ += (d - jitter_) / 16.0;
      ++samples_;
    }
    prev_transit_ = transit;
    has_prev_ = true;
  }

  [[nodiscard]] sim::Time jitter() const noexcept {
    return sim::Time::picoseconds(static_cast<std::int64_t>(jitter_));
  }
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

 private:
  double jitter_{0.0};
  std::int64_t prev_transit_{0};
  bool has_prev_{false};
  std::uint64_t samples_{0};
};

}  // namespace xdrs::stats

#endif  // XDRS_STATS_SUMMARY_HPP
