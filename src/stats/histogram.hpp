// Log-bucketed histogram for latency-scale values (HdrHistogram-style):
// power-of-two buckets, each split into 16 linear sub-buckets, giving a
// worst-case quantile error of ~6% across the full picosecond..second range
// at constant memory.  Used for every latency distribution a RunReport
// carries.
#ifndef XDRS_STATS_HISTOGRAM_HPP
#define XDRS_STATS_HISTOGRAM_HPP

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace xdrs::stats {

class Histogram {
 public:
  Histogram() = default;

  void record(std::int64_t value);
  void record_time(sim::Time t) { record(t.ps()); }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::int64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::int64_t max() const noexcept { return count_ == 0 ? 0 : max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value at quantile q in [0, 1]; returns an upper bound of the matching
  /// sub-bucket.  0 when empty.
  [[nodiscard]] std::int64_t quantile(double q) const;

  [[nodiscard]] std::int64_t p50() const { return quantile(0.50); }
  [[nodiscard]] std::int64_t p99() const { return quantile(0.99); }
  [[nodiscard]] std::int64_t p999() const { return quantile(0.999); }

  [[nodiscard]] sim::Time quantile_time(double q) const {
    return sim::Time::picoseconds(quantile(q));
  }
  [[nodiscard]] sim::Time mean_time() const {
    return sim::Time::picoseconds(static_cast<std::int64_t>(mean()));
  }

  void merge(const Histogram& other);
  void clear() noexcept;

  /// Full internal state, for exact serialization: `slots` holds the nonzero
  /// (slot index, count) pairs in ascending slot order; `count` is their sum.
  /// from_state(h.state()) reproduces a histogram whose every accessor —
  /// including quantiles and merge behaviour — matches `h` exactly.
  struct State {
    std::uint64_t count{0};
    std::int64_t sum{0};
    std::int64_t min{0};
    std::int64_t max{0};
    std::vector<std::pair<int, std::uint64_t>> slots;
  };
  [[nodiscard]] State state() const;
  /// Throws std::invalid_argument on out-of-range slot indices, zero slot
  /// counts or a count that disagrees with the slot sum.
  [[nodiscard]] static Histogram from_state(const State& s);

  /// "n=1234 mean=1.2us p50=1us p99=3us max=9us"
  [[nodiscard]] std::string summary_time() const;

 private:
  static constexpr int kSubBits = 4;                       // 16 sub-buckets
  static constexpr int kBuckets = 64 - kSubBits;           // exponent range
  static constexpr int kSlots = kBuckets << kSubBits;

  [[nodiscard]] static int slot_of(std::int64_t value) noexcept;
  [[nodiscard]] static std::int64_t slot_upper_bound(int slot) noexcept;

  std::array<std::uint64_t, static_cast<std::size_t>(kSlots)> slots_{};
  std::uint64_t count_{0};
  std::int64_t sum_{0};
  std::int64_t min_{0};
  std::int64_t max_{0};
};

}  // namespace xdrs::stats

#endif  // XDRS_STATS_HISTOGRAM_HPP
