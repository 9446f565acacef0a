#include "traffic/generators.hpp"

#include <algorithm>
#include <stdexcept>

namespace xdrs::traffic {

net::Packet TrafficGenerator::make_packet(net::PortId src, net::PortId dst, std::int64_t bytes,
                                          sim::Time now) {
  net::Packet p;
  p.id = next_packet_id_++;
  p.src = src;
  p.dst = dst;
  p.size_bytes = bytes;
  p.generator = tag_;
  p.created_at = now;
  // Synthesise a plausible 5-tuple so classification has something to chew
  // on: address = 10.0.0.0/16 + port index.
  p.tuple.src_addr = 0x0a000000u | src;
  p.tuple.dst_addr = 0x0a000000u | dst;
  p.tuple.proto = net::IpProto::kUdp;
  ++stats_.packets;
  stats_.bytes += bytes;
  return p;
}

// --------------------------------------------------------------------- Poisson

PoissonGenerator::PoissonGenerator(Config cfg) : cfg_{std::move(cfg)}, rng_{cfg_.seed} {
  if (!cfg_.dest || !cfg_.size) throw std::invalid_argument{"PoissonGenerator: missing pattern"};
  if (cfg_.load < 0.0 || cfg_.load > 1.0) {
    throw std::invalid_argument{"PoissonGenerator: load must be in [0, 1]"};
  }
  if (cfg_.line_rate.is_zero()) throw std::invalid_argument{"PoissonGenerator: zero line rate"};
}

void PoissonGenerator::start(sim::Simulator& sim, Sink sink, sim::Time horizon) {
  if (cfg_.load == 0.0) return;
  sink_ = std::move(sink);
  // Mean inter-arrival achieving `load`: E[size+overhead] / (rate * load).
  const double mean_wire_bytes = cfg_.size->mean_bytes() + sim::kWireOverheadBytes;
  const double bytes_per_ps =
      static_cast<double>(cfg_.line_rate.bits_per_sec()) * cfg_.load / 8e12;
  mean_gap_ps_ = mean_wire_bytes / bytes_per_ps;
  arm(sim, horizon);
}

void PoissonGenerator::arm(sim::Simulator& sim, sim::Time horizon) {
  const auto gap = sim::Time::picoseconds(
      static_cast<std::int64_t>(rng_.exponential(mean_gap_ps_)));
  const sim::Time at = sim.now() + gap;
  if (at >= horizon) return;
  sim.schedule(gap, [this, &sim, horizon] {
    const net::PortId dst = cfg_.dest->pick(rng_, cfg_.src);
    const std::int64_t bytes = cfg_.size->sample(rng_);
    sink_(make_packet(cfg_.src, dst, bytes, sim.now()));
    arm(sim, horizon);
  });
}

// ---------------------------------------------------------------------- OnOff

OnOffGenerator::OnOffGenerator(Config cfg) : cfg_{std::move(cfg)}, rng_{cfg_.seed} {
  if (!cfg_.dest || !cfg_.size) throw std::invalid_argument{"OnOffGenerator: missing pattern"};
  if (cfg_.line_rate.is_zero()) throw std::invalid_argument{"OnOffGenerator: zero line rate"};
  if (cfg_.mean_on <= sim::Time::zero() || cfg_.mean_off < sim::Time::zero()) {
    throw std::invalid_argument{"OnOffGenerator: invalid period means"};
  }
  if (cfg_.pareto_shape <= 1.0) {
    // Shape <= 1 has infinite mean; the configured mean would be meaningless.
    throw std::invalid_argument{"OnOffGenerator: pareto shape must be > 1"};
  }
}

void OnOffGenerator::start(sim::Simulator& sim, Sink sink, sim::Time horizon) {
  sink_ = std::move(sink);
  begin_burst(sim, horizon);
}

void OnOffGenerator::begin_burst(sim::Simulator& sim, sim::Time horizon) {
  // Pareto with mean m and shape a has scale xm = m * (a - 1) / a.
  const auto pareto_time = [this](sim::Time mean) {
    const double xm = mean.sec() * (cfg_.pareto_shape - 1.0) / cfg_.pareto_shape;
    return sim::Time::seconds_f(rng_.pareto(cfg_.pareto_shape, xm));
  };

  const sim::Time off = cfg_.mean_off.is_zero() ? sim::Time::zero() : pareto_time(cfg_.mean_off);
  const sim::Time on = pareto_time(cfg_.mean_on);
  const sim::Time begin = sim.now() + off;
  if (begin >= horizon) return;

  sim.schedule(off, [this, &sim, horizon, on] {
    if (cfg_.new_dest_per_burst || flow_seq_ == 0) {
      burst_dst_ = cfg_.dest->pick(rng_, cfg_.src);
      ++flow_seq_;
    }
    burst_end_ = std::min(sim.now() + on, horizon);
    emit(sim, horizon);
  });
}

void OnOffGenerator::emit(sim::Simulator& sim, sim::Time horizon) {
  if (sim.now() >= burst_end_) {
    begin_burst(sim, horizon);
    return;
  }
  const std::int64_t bytes = cfg_.size->sample(rng_);
  net::Packet p = make_packet(cfg_.src, burst_dst_, bytes, sim.now());
  p.flow = (static_cast<std::uint64_t>(cfg_.src) << 32) | flow_seq_;
  p.tclass = net::TrafficClass::kThroughput;
  sink_(p);
  const sim::Time tx = cfg_.line_rate.transmission_time(bytes + sim::kWireOverheadBytes);
  sim.schedule(tx, [this, &sim, horizon] { emit(sim, horizon); });
}

// ------------------------------------------------------------------------ CBR

CbrGenerator::CbrGenerator(Config cfg) : cfg_{cfg} {
  if (cfg.packet_bytes <= 0) throw std::invalid_argument{"CbrGenerator: bad packet size"};
  if (cfg.period <= sim::Time::zero()) throw std::invalid_argument{"CbrGenerator: bad period"};
  if (cfg.src == cfg.dst) throw std::invalid_argument{"CbrGenerator: src == dst"};
}

void CbrGenerator::start(sim::Simulator& sim, Sink sink, sim::Time horizon) {
  sink_ = std::move(sink);
  sim.schedule(cfg_.phase, [this, &sim, horizon] { emit(sim, horizon); });
}

void CbrGenerator::emit(sim::Simulator& sim, sim::Time horizon) {
  if (sim.now() >= horizon) return;
  net::Packet p = make_packet(cfg_.src, cfg_.dst, cfg_.packet_bytes, sim.now());
  p.flow = (static_cast<std::uint64_t>(cfg_.src) << 32) | cfg_.dst;
  p.tclass = net::TrafficClass::kLatencySensitive;
  p.tuple.proto = net::IpProto::kUdp;
  p.tuple.dst_port = 5004;  // RTP
  sink_(p);
  sim.schedule(cfg_.period, [this, &sim, horizon] { emit(sim, horizon); });
}

// ---------------------------------------------------------------------- Flows

FlowGenerator::FlowGenerator(Config cfg)
    : cfg_{std::move(cfg)},
      rng_{cfg_.seed},
      deadline_{cfg_.deadline, cfg_.line_rate, cfg_.seed} {
  if (!cfg_.dest) throw std::invalid_argument{"FlowGenerator: missing destination chooser"};
  if (cfg_.line_rate.is_zero()) throw std::invalid_argument{"FlowGenerator: zero line rate"};
  if (cfg_.load < 0.0 || cfg_.load > 1.0) {
    throw std::invalid_argument{"FlowGenerator: load must be in [0, 1]"};
  }
  if (cfg_.elephant_fraction < 0.0 || cfg_.elephant_fraction > 1.0) {
    throw std::invalid_argument{"FlowGenerator: elephant fraction must be in [0, 1]"};
  }
  if (cfg_.elephant_shape <= 1.0) {
    throw std::invalid_argument{"FlowGenerator: elephant shape must be > 1"};
  }
}

double FlowGenerator::mean_flow_bytes() const {
  if (cfg_.size) return cfg_.size->mean_bytes();
  const double elephant_mean = static_cast<double>(cfg_.elephant_min_bytes) *
                               cfg_.elephant_shape / (cfg_.elephant_shape - 1.0);
  return (1.0 - cfg_.elephant_fraction) * static_cast<double>(cfg_.mice_mean_bytes) +
         cfg_.elephant_fraction * elephant_mean;
}

void FlowGenerator::start(sim::Simulator& sim, Sink sink, sim::Time horizon) {
  if (cfg_.load == 0.0) return;
  sink_ = std::move(sink);
  next_flow(sim, horizon);
}

void FlowGenerator::next_flow(sim::Simulator& sim, sim::Time horizon) {
  // Flow arrival rate achieving the byte load: load * rate / mean flow size.
  const double bytes_per_ps =
      static_cast<double>(cfg_.line_rate.bits_per_sec()) * cfg_.load / 8e12;
  const double mean_gap_ps = mean_flow_bytes() / bytes_per_ps;
  const auto gap =
      sim::Time::picoseconds(static_cast<std::int64_t>(rng_.exponential(mean_gap_ps)));
  if (sim.now() + gap >= horizon) return;

  sim.schedule(gap, [this, &sim, horizon] {
    bool elephant = false;
    std::int64_t size = 0;
    if (cfg_.size) {
      // Explicit size model (empirical CDF): the draw decides the size and
      // the elephant threshold only the traffic-class marking.
      size = cfg_.size->sample(rng_);
      elephant = size >= cfg_.elephant_min_bytes;
    } else if (rng_.bernoulli(cfg_.elephant_fraction)) {
      elephant = true;
      size = static_cast<std::int64_t>(
          rng_.pareto(cfg_.elephant_shape, static_cast<double>(cfg_.elephant_min_bytes)));
    } else {
      size = std::max<std::int64_t>(
          sim::kMinFrameBytes,
          static_cast<std::int64_t>(rng_.exponential(static_cast<double>(cfg_.mice_mean_bytes))));
    }
    const net::PortId dst = cfg_.dest->pick(rng_, cfg_.src);
    const net::FlowId flow = (static_cast<std::uint64_t>(cfg_.src) << 32) | ++flow_seq_;
    const sim::Time deadline = deadline_.assign(sim.now(), size);
    stream(sim, horizon, dst, size, flow, elephant, size, deadline);
    next_flow(sim, horizon);
  });
}

void FlowGenerator::stream(sim::Simulator& sim, sim::Time horizon, net::PortId dst,
                           std::int64_t remaining, net::FlowId flow, bool elephant,
                           std::int64_t flow_bytes, sim::Time deadline) {
  if (remaining <= 0 || sim.now() >= horizon) return;
  const std::int64_t bytes = std::min(cfg_.packet_bytes, remaining);
  net::Packet p = make_packet(cfg_.src, dst, bytes, sim.now());
  p.flow = flow;
  p.tclass = elephant ? net::TrafficClass::kThroughput : net::TrafficClass::kBestEffort;
  p.tuple.proto = net::IpProto::kTcp;
  p.tuple.src_port = static_cast<std::uint16_t>(flow & 0xffff);
  p.deadline = deadline;
  p.flow_bytes = flow_bytes;
  sink_(p);
  if (remaining - bytes <= 0) return;  // the flow's last packet
  const sim::Time tx = cfg_.line_rate.transmission_time(bytes + sim::kWireOverheadBytes);
  sim.schedule(tx, [this, &sim, horizon, dst, remaining, bytes, flow, elephant, flow_bytes,
                    deadline] {
    stream(sim, horizon, dst, remaining - bytes, flow, elephant, flow_bytes, deadline);
  });
}

// --------------------------------------------------------------------- Incast

IncastGenerator::IncastGenerator(Config cfg)
    : cfg_{std::move(cfg)}, rng_{cfg_.seed}, deadline_{cfg_.deadline, cfg_.line_rate, cfg_.seed} {
  if (cfg_.ports < 2) throw std::invalid_argument{"IncastGenerator: need >= 2 ports"};
  if (cfg_.aggregator >= cfg_.ports) {
    throw std::invalid_argument{"IncastGenerator: aggregator out of range"};
  }
  if (cfg_.fan_in > cfg_.ports - 1) {
    throw std::invalid_argument{"IncastGenerator: fan-in exceeds worker count"};
  }
  if (cfg_.response_bytes <= 0 || cfg_.packet_bytes <= 0) {
    throw std::invalid_argument{"IncastGenerator: sizes must be positive"};
  }
  if (cfg_.period <= sim::Time::zero()) {
    throw std::invalid_argument{"IncastGenerator: period must be positive"};
  }
  if (cfg_.line_rate.is_zero()) throw std::invalid_argument{"IncastGenerator: zero line rate"};
  if (cfg_.fan_in == 0) cfg_.fan_in = cfg_.ports - 1;
}

void IncastGenerator::start(sim::Simulator& sim, Sink sink, sim::Time horizon) {
  sink_ = std::move(sink);
  fire_round(sim, horizon);
}

void IncastGenerator::fire_round(sim::Simulator& sim, sim::Time horizon) {
  if (sim.now() >= horizon) return;
  ++round_;
  // Round-robin worker selection with a random rotation per round.
  const std::uint32_t workers = cfg_.ports - 1;
  const auto rotation = static_cast<std::uint32_t>(rng_.next_below(workers));
  for (std::uint32_t k = 0; k < cfg_.fan_in; ++k) {
    std::uint32_t w = (rotation + k) % workers;
    if (w >= cfg_.aggregator) ++w;  // skip the aggregator's own port
    const net::FlowId flow = (round_ << 16) | w;
    const sim::Time deadline = deadline_.assign(sim.now(), cfg_.response_bytes);
    stream(sim, horizon, w, cfg_.response_bytes, flow, deadline);
  }
  sim.schedule(cfg_.period, [this, &sim, horizon] { fire_round(sim, horizon); });
}

void IncastGenerator::stream(sim::Simulator& sim, sim::Time horizon, net::PortId worker,
                             std::int64_t remaining, net::FlowId flow, sim::Time deadline) {
  if (remaining <= 0 || sim.now() >= horizon) return;
  const std::int64_t bytes = std::min(cfg_.packet_bytes, remaining);
  net::Packet p = make_packet(worker, cfg_.aggregator, bytes, sim.now());
  p.flow = flow;
  p.tclass = net::TrafficClass::kThroughput;
  p.deadline = deadline;
  p.flow_bytes = cfg_.response_bytes;
  sink_(p);
  const sim::Time tx = cfg_.line_rate.transmission_time(bytes + sim::kWireOverheadBytes);
  sim.schedule(tx, [this, &sim, horizon, worker, remaining, bytes, flow, deadline] {
    stream(sim, horizon, worker, remaining - bytes, flow, deadline);
  });
}

}  // namespace xdrs::traffic
