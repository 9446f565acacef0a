#include "switching/ocs.hpp"

#include <algorithm>
#include <stdexcept>

namespace xdrs::switching {

namespace {

/// Settles every send due at a settle point's time, whatever its order.
constexpr std::uint64_t kAnyOrder = ~std::uint64_t{0};

}  // namespace

OpticalCircuitSwitch::OpticalCircuitSwitch(sim::Simulator& sim, OcsConfig cfg)
    : sim_{sim},
      cfg_{cfg},
      config_{cfg.ports, cfg.ports},
      busy_until_(cfg.ports, sim::Time::zero()),
      in_flight_(cfg.ports),
      failure_rng_{cfg.failure_seed} {
  if (cfg.ports == 0) throw std::invalid_argument{"OCS: ports must be >= 1"};
  if (cfg.port_rate.is_zero()) throw std::invalid_argument{"OCS: port rate must be positive"};
  if (cfg.reconfig_time.is_negative()) {
    throw std::invalid_argument{"OCS: negative reconfiguration time"};
  }
  if (cfg.retune_failure_prob < 0.0 || cfg.retune_failure_prob > 1.0) {
    throw std::invalid_argument{"OCS: retune failure probability must be in [0, 1]"};
  }
}

void OpticalCircuitSwitch::reconfigure(const schedulers::Matching& next) {
  if (next.inputs() != cfg_.ports || next.outputs() != cfg_.ports) {
    throw std::invalid_argument{"OCS: configuration dimensions mismatch"};
  }

  // Cut every packet still on the fabric: light stops propagating the
  // instant mirrors start moving.  Deferred sends that have arrived settle
  // first.
  for (std::uint32_t in = 0; in < cfg_.ports; ++in) {
    settle(in, sim_.now(), kAnyOrder);
    util::Fifo<InFlight>& fifo = in_flight_[in];
    while (!fifo.empty() && fifo.back().delivers > sim_.now()) {
      if (fifo.back().event.valid()) sim_.cancel(fifo.back().event);
      in_flight_bytes_ -= fifo.back().packet.size_bytes;
      ++stats_.packets_cut_by_reconfig;
      stats_.bytes_cut_by_reconfig += fifo.back().packet.size_bytes;
      fifo.pop_back();
    }
    busy_until_[in] = std::min(busy_until_[in], sim_.now());
  }

  config_ = next;
  ++stats_.reconfigurations;
  stats_.dark_time_total += cfg_.reconfig_time;

  // A reconfigure issued while already dark restarts the dark period for
  // the new target (the device retunes from wherever its mirrors are).
  if (dark_) sim_.cancel(dark_end_event_);
  dark_ = true;
  dark_end_event_ = sim_.schedule(cfg_.reconfig_time, [this] { finish_dark_period(); });
}

void OpticalCircuitSwitch::finish_dark_period() {
  if (cfg_.retune_failure_prob > 0.0 && failure_rng_.bernoulli(cfg_.retune_failure_prob)) {
    // Injected fault: the retune missed (mirror over/undershoot); the
    // device repeats the dark period and tries again.
    ++stats_.retune_failures;
    stats_.dark_time_total += cfg_.reconfig_time;
    dark_end_event_ = sim_.schedule(cfg_.reconfig_time, [this] { finish_dark_period(); });
    return;
  }
  dark_ = false;
  if (configured_cb_) configured_cb_(config_);
}

bool OpticalCircuitSwitch::circuit_up(net::PortId in, net::PortId out) const {
  if (in >= cfg_.ports || out >= cfg_.ports) throw std::out_of_range{"OCS::circuit_up"};
  if (dark_) return false;
  const auto matched = config_.output_of(in);
  return matched.has_value() && *matched == out;
}

std::optional<sim::Time> OpticalCircuitSwitch::send(net::PortId in, const net::Packet& p) {
  if (!circuit_up(in, p.dst)) return std::nullopt;

  const sim::Time start = std::max(sim_.now(), busy_until_[in]);
  const sim::Time tx = cfg_.port_rate.transmission_time(p.size_bytes + sim::kWireOverheadBytes);
  const sim::Time done = start + tx;
  busy_until_[in] = done;
  stats_.busy_time_total += tx;

  const sim::Time deliver_at = done + cfg_.fabric_latency;
  settle(in, sim_.now(), kAnyOrder);
  const bool evented = p.dst >= first_evented_ ||
                       p.tclass == net::TrafficClass::kLatencySensitive ||
                       (trace_ != nullptr && trace_->enabled());
  if (evented) {
    InFlight& f = in_flight_[in].push(sim::EventId{}, deliver_at, std::uint64_t{0}, p);
    f.event = sim_.schedule_at(deliver_at, [this, in] { deliver(in); });
  } else {
    in_flight_[in].push(sim::EventId{}, deliver_at, sim_.next_order(), p);
  }
  in_flight_bytes_ += p.size_bytes;
  return deliver_at;
}

void OpticalCircuitSwitch::deliver(net::PortId in) {
  util::Fifo<InFlight>& fifo = in_flight_[in];
  // Deferred sends ahead of this one are due no later than it.
  while (!fifo.front().event.valid()) hand_over(fifo.pop_front());
  hand_over(fifo.pop_front());
}

void OpticalCircuitSwitch::settle(net::PortId in, sim::Time t, std::uint64_t order) {
  util::Fifo<InFlight>& fifo = in_flight_[in];
  while (!fifo.empty()) {
    const InFlight& f = fifo.front();
    if (f.event.valid() || f.delivers > t || (f.delivers == t && f.order > order)) return;
    hand_over(fifo.pop_front());
  }
}

void OpticalCircuitSwitch::hand_over(const InFlight& f) {
  in_flight_bytes_ -= f.packet.size_bytes;
  ++stats_.packets_delivered;
  stats_.bytes_delivered += f.packet.size_bytes;
  if (deliver_cb_) deliver_cb_(f.packet, f.delivers);
}

void OpticalCircuitSwitch::defer_deliveries(net::PortId first_evented,
                                            const sim::TraceRecorder* trace) {
  first_evented_ = first_evented;
  trace_ = trace;
}

void OpticalCircuitSwitch::settle_all(sim::Time t) {
  for (net::PortId in = 0; in < cfg_.ports; ++in) settle(in, t, kAnyOrder);
}

void OpticalCircuitSwitch::settle_to_now() {
  const std::uint64_t order = sim_.running_order();
  for (net::PortId in = 0; in < cfg_.ports; ++in) settle(in, sim_.now(), order);
}

sim::Time OpticalCircuitSwitch::port_free_at(net::PortId in) const {
  if (in >= cfg_.ports) throw std::out_of_range{"OCS::port_free_at"};
  return std::max(busy_until_[in], sim_.now());
}

}  // namespace xdrs::switching
