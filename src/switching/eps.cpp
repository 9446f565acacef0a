#include "switching/eps.hpp"

#include <algorithm>
#include <stdexcept>

namespace xdrs::switching {

ElectricalPacketSwitch::ElectricalPacketSwitch(sim::Simulator& sim, EpsConfig cfg) : cfg_{cfg} {
  if (cfg.ports == 0) throw std::invalid_argument{"EPS: ports must be >= 1"};
  if (cfg.port_rate.is_zero()) throw std::invalid_argument{"EPS: port rate must be positive"};
  const queueing::DrainQueue::Config qc{cfg.port_rate, cfg.buffer_bytes_per_port,
                                        cfg.switching_latency, cfg.strict_priority};
  out_.reserve(cfg.ports);
  for (std::uint32_t o = 0; o < cfg.ports; ++o) {
    out_.emplace_back(qc);
    out_.back().attach(sim, [this](const net::Packet& p) {
      if (deliver_cb_) deliver_cb_(p, p.dst);
    });
  }
}

bool ElectricalPacketSwitch::send(const net::Packet& p) {
  if (p.dst >= cfg_.ports) throw std::out_of_range{"EPS::send: bad destination"};
  return out_[p.dst].offer(p);
}

EpsStats ElectricalPacketSwitch::stats() const noexcept {
  EpsStats s;
  for (const queueing::DrainQueue& q : out_) {
    s.packets_delivered += q.forwarded_packets();
    s.bytes_delivered += q.forwarded_bytes();
    s.packets_dropped += q.drops();
    s.bytes_dropped += q.dropped_bytes();
    s.peak_queue_bytes = std::max(s.peak_queue_bytes, q.peak_queue_bytes());
    s.priority_packets_delivered += q.priority_forwarded();
  }
  return s;
}

std::int64_t ElectricalPacketSwitch::queue_bytes(net::PortId outp) const {
  if (outp >= cfg_.ports) throw std::out_of_range{"EPS::queue_bytes"};
  return out_[outp].queue_bytes();
}

std::size_t ElectricalPacketSwitch::queue_packets(net::PortId outp) const {
  if (outp >= cfg_.ports) throw std::out_of_range{"EPS::queue_packets"};
  return out_[outp].queue_packets();
}

}  // namespace xdrs::switching
