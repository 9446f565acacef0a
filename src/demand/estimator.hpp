// Demand estimation — the first stage of the scheduling logic (paper §3):
// "The scheduling logic processes the incoming requests, estimates the
//  demand matrix, and runs the scheduling algorithm."
//
// Estimators observe per-VOQ arrival/departure events (the "scheduling
// requests" of the paper carry exactly this information) and produce a
// demand matrix on request.  Three strategies are provided, matching the
// design space explored by the software baselines:
//   * Instantaneous — current backlog; what a hardware scheduler reading
//     VOQ occupancy registers sees.  Zero lag, zero smoothing.
//   * EWMA          — exponentially weighted backlog; smooths bursts, the
//     c-Through approach.
//   * Windowed rate — arrivals over a sliding window; the Helios approach,
//     estimating offered rate rather than backlog.
#ifndef XDRS_DEMAND_ESTIMATOR_HPP
#define XDRS_DEMAND_ESTIMATOR_HPP

#include <cstdint>
#include <vector>

#include "demand/demand_matrix.hpp"
#include "sim/time.hpp"

namespace xdrs::demand {

class DemandEstimator {
 public:
  virtual ~DemandEstimator() = default;

  /// `bytes` arrived at VOQ (src, dst) at time `at`.
  virtual void on_arrival(net::PortId src, net::PortId dst, std::int64_t bytes, sim::Time at) = 0;

  /// `bytes` departed from VOQ (src, dst) at time `at`.
  virtual void on_departure(net::PortId src, net::PortId dst, std::int64_t bytes, sim::Time at) = 0;

  /// A packet carrying a flow deadline entered VOQ (src, dst): `deadline`
  /// is the absolute time its flow must complete by.  Defaulted to a no-op
  /// so deadline-blind estimators ignore SLO information entirely; only
  /// deadline-aware estimators (EDF) override it.
  virtual void on_deadline(net::PortId src, net::PortId dst, sim::Time deadline, sim::Time at) {
    (void)src;
    (void)dst;
    (void)deadline;
    (void)at;
  }

  /// Writes the current estimate into `out` (resizing it as needed).
  virtual void snapshot(sim::Time now, DemandMatrix& out) = 0;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Exact current backlog.  The hardware design reads this directly from VOQ
/// occupancy counters, which is why hardware demand estimation is "quick".
class InstantaneousEstimator final : public DemandEstimator {
 public:
  InstantaneousEstimator(std::uint32_t inputs, std::uint32_t outputs);

  void on_arrival(net::PortId src, net::PortId dst, std::int64_t bytes, sim::Time at) override;
  void on_departure(net::PortId src, net::PortId dst, std::int64_t bytes, sim::Time at) override;
  void snapshot(sim::Time now, DemandMatrix& out) override;
  [[nodiscard]] const char* name() const noexcept override { return "instantaneous"; }

 private:
  DemandMatrix backlog_;
};

/// Exponentially weighted moving average of backlog, sampled at snapshot
/// times: est <- alpha * backlog + (1 - alpha) * est.
class EwmaEstimator final : public DemandEstimator {
 public:
  /// Precondition: 0 < alpha <= 1.
  EwmaEstimator(std::uint32_t inputs, std::uint32_t outputs, double alpha);

  void on_arrival(net::PortId src, net::PortId dst, std::int64_t bytes, sim::Time at) override;
  void on_departure(net::PortId src, net::PortId dst, std::int64_t bytes, sim::Time at) override;
  void snapshot(sim::Time now, DemandMatrix& out) override;
  [[nodiscard]] const char* name() const noexcept override { return "ewma"; }

 private:
  DemandMatrix backlog_;
  std::vector<double> est_;
  double alpha_;
};

/// Bytes that *arrived* within the trailing window, independent of whether
/// they have since been served: an offered-rate estimator.  Implemented as a
/// ring of time buckets per (src, dst) pair.
class WindowedRateEstimator final : public DemandEstimator {
 public:
  /// The window is `bucket_count * bucket_width` long.
  WindowedRateEstimator(std::uint32_t inputs, std::uint32_t outputs, sim::Time bucket_width,
                        std::uint32_t bucket_count);

  void on_arrival(net::PortId src, net::PortId dst, std::int64_t bytes, sim::Time at) override;
  void on_departure(net::PortId src, net::PortId dst, std::int64_t bytes, sim::Time at) override;
  void snapshot(sim::Time now, DemandMatrix& out) override;
  [[nodiscard]] const char* name() const noexcept override { return "windowed-rate"; }

  [[nodiscard]] sim::Time window() const noexcept {
    return bucket_width_ * static_cast<std::int64_t>(bucket_count_);
  }

 private:
  /// Index of the bucket containing time `at`, with stale buckets zeroed.
  void advance_to(sim::Time at);

  std::uint32_t inputs_;
  std::uint32_t outputs_;
  sim::Time bucket_width_;
  std::uint32_t bucket_count_;
  std::vector<std::int64_t> buckets_;  // [pair][bucket]
  std::int64_t current_epoch_{0};      // absolute bucket number of ring head
};

}  // namespace xdrs::demand

#endif  // XDRS_DEMAND_ESTIMATOR_HPP
