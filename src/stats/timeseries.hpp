// Bounded time series for transient analysis: record
// (time, value) samples; when the capacity is exceeded, every other sample
// is dropped and the sampling stride doubles, preserving shape at bounded
// memory (a standard reservoir-free decimation scheme).
#ifndef XDRS_STATS_TIMESERIES_HPP
#define XDRS_STATS_TIMESERIES_HPP

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace xdrs::stats {

class TimeSeries {
 public:
  explicit TimeSeries(std::size_t max_samples = 1 << 16);

  void record(sim::Time at, double value);

  struct Sample {
    sim::Time at;
    double value;
  };

  [[nodiscard]] const std::vector<Sample>& samples() const noexcept { return samples_; }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] std::uint64_t stride() const noexcept { return stride_; }

  /// Samples offered to record(), kept or decimated away.
  [[nodiscard]] std::uint64_t offered() const noexcept { return offered_; }

  /// Peak value observed (over *all* offered samples, not only kept ones).
  [[nodiscard]] double peak() const noexcept { return peak_; }

  void clear() noexcept;

 private:
  std::size_t max_samples_;
  std::vector<Sample> samples_;
  std::uint64_t stride_{1};
  std::uint64_t offered_{0};
  double peak_{0.0};
};

}  // namespace xdrs::stats

#endif  // XDRS_STATS_TIMESERIES_HPP
