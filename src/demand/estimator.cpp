#include "demand/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace xdrs::demand {

// ---------------------------------------------------------------- Instantaneous

InstantaneousEstimator::InstantaneousEstimator(std::uint32_t inputs, std::uint32_t outputs)
    : backlog_{inputs, outputs} {}

void InstantaneousEstimator::on_arrival(net::PortId src, net::PortId dst, std::int64_t bytes,
                                        sim::Time /*at*/) {
  backlog_.add(src, dst, bytes);
}

void InstantaneousEstimator::on_departure(net::PortId src, net::PortId dst, std::int64_t bytes,
                                          sim::Time /*at*/) {
  backlog_.subtract_clamped(src, dst, bytes);
}

void InstantaneousEstimator::snapshot(sim::Time /*now*/, DemandMatrix& out) {
  out.copy_from(backlog_);
}

// ------------------------------------------------------------------------ EWMA

EwmaEstimator::EwmaEstimator(std::uint32_t inputs, std::uint32_t outputs, double alpha)
    : backlog_{inputs, outputs},
      est_(static_cast<std::size_t>(inputs) * outputs, 0.0),
      alpha_{alpha} {
  if (!(alpha > 0.0 && alpha <= 1.0)) {
    throw std::invalid_argument{"EwmaEstimator: alpha must be in (0, 1]"};
  }
}

void EwmaEstimator::on_arrival(net::PortId src, net::PortId dst, std::int64_t bytes,
                               sim::Time /*at*/) {
  backlog_.add(src, dst, bytes);
}

void EwmaEstimator::on_departure(net::PortId src, net::PortId dst, std::int64_t bytes,
                                 sim::Time /*at*/) {
  backlog_.subtract_clamped(src, dst, bytes);
}

void EwmaEstimator::snapshot(sim::Time /*now*/, DemandMatrix& out) {
  out.resize(backlog_.inputs(), backlog_.outputs());
  std::size_t k = 0;
  for (std::uint32_t i = 0; i < backlog_.inputs(); ++i) {
    for (std::uint32_t j = 0; j < backlog_.outputs(); ++j, ++k) {
      est_[k] = alpha_ * static_cast<double>(backlog_.at_unchecked(i, j)) + (1.0 - alpha_) * est_[k];
      out.set(i, j, static_cast<std::int64_t>(std::llround(est_[k])));
    }
  }
}

// --------------------------------------------------------------- Windowed rate

WindowedRateEstimator::WindowedRateEstimator(std::uint32_t inputs, std::uint32_t outputs,
                                             sim::Time bucket_width, std::uint32_t bucket_count)
    : inputs_{inputs},
      outputs_{outputs},
      bucket_width_{bucket_width},
      bucket_count_{bucket_count},
      buckets_(static_cast<std::size_t>(inputs) * outputs * bucket_count, 0) {
  if (bucket_width <= sim::Time::zero() || bucket_count == 0) {
    throw std::invalid_argument{"WindowedRateEstimator: window must be positive"};
  }
}

void WindowedRateEstimator::advance_to(sim::Time at) {
  const std::int64_t epoch = at.ps() / bucket_width_.ps();
  if (epoch <= current_epoch_) return;
  const std::int64_t steps =
      std::min<std::int64_t>(epoch - current_epoch_, bucket_count_);
  const std::size_t pairs = static_cast<std::size_t>(inputs_) * outputs_;
  for (std::int64_t s = 1; s <= steps; ++s) {
    const std::size_t slot =
        static_cast<std::size_t>((current_epoch_ + s) % bucket_count_);
    for (std::size_t p = 0; p < pairs; ++p) {
      buckets_[p * bucket_count_ + slot] = 0;
    }
  }
  current_epoch_ = epoch;
}

void WindowedRateEstimator::on_arrival(net::PortId src, net::PortId dst, std::int64_t bytes,
                                       sim::Time at) {
  advance_to(at);
  const std::size_t pair = static_cast<std::size_t>(src) * outputs_ + dst;
  const std::size_t slot = static_cast<std::size_t>(current_epoch_ % bucket_count_);
  buckets_[pair * bucket_count_ + slot] += bytes;
}

void WindowedRateEstimator::on_departure(net::PortId /*src*/, net::PortId /*dst*/,
                                         std::int64_t /*bytes*/, sim::Time /*at*/) {
  // Offered-rate estimation deliberately ignores service events.
}

void WindowedRateEstimator::snapshot(sim::Time now, DemandMatrix& out) {
  advance_to(now);
  out.resize(inputs_, outputs_);
  for (std::uint32_t i = 0; i < inputs_; ++i) {
    for (std::uint32_t j = 0; j < outputs_; ++j) {
      const std::size_t pair = static_cast<std::size_t>(i) * outputs_ + j;
      std::int64_t sum = 0;
      for (std::uint32_t b = 0; b < bucket_count_; ++b) sum += buckets_[pair * bucket_count_ + b];
      out.set(i, j, sum);
    }
  }
}

}  // namespace xdrs::demand
