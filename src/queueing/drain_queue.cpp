#include "queueing/drain_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace xdrs::queueing {

DrainQueue::DrainQueue(Config cfg) : cfg_{cfg} {
  if (cfg.rate.is_zero()) throw std::invalid_argument{"DrainQueue: rate must be positive"};
}

void DrainQueue::attach(sim::Simulator& sim, Sink sink, IdleHook on_idle) {
  if (!sink) throw std::invalid_argument{"DrainQueue: null sink"};
  sim_ = &sim;
  sink_ = std::move(sink);
  on_idle_ = std::move(on_idle);
}

bool DrainQueue::offer(const net::Packet& p) {
  if (sim_ == nullptr) throw std::logic_error{"DrainQueue: offer() before attach()"};
  if (cfg_.buffer_bytes > 0 && queue_bytes_ + p.size_bytes > cfg_.buffer_bytes) {
    ++drops_;
    dropped_bytes_ += p.size_bytes;
    return false;
  }
  const bool priority =
      cfg_.strict_priority && p.tclass == net::TrafficClass::kLatencySensitive;
  lanes_[priority ? 1 : 0].push(p);
  queue_bytes_ += p.size_bytes;
  peak_queue_ = std::max(peak_queue_, queue_bytes_);
  if (!draining_) {
    draining_ = true;
    drain();
  }
  return true;
}

void DrainQueue::drain() {
  const std::size_t lane = lanes_[1].empty() ? 0 : 1;
  if (lanes_[lane].empty()) {
    draining_ = false;
    return;
  }
  const net::Packet& head = lanes_[lane].front();
  const sim::Time tx = cfg_.rate.transmission_time(head.size_bytes + sim::kWireOverheadBytes);
  sim_->schedule(tx, [this, lane] { finish_serialising(lane); });
}

void DrainQueue::finish_serialising(std::size_t lane) {
  // Timestamps are preserved: end-to-end latency spans this queue as well
  // as the fabrics either side of it.
  const net::Packet& out = lanes_[lane].pop_front();
  queue_bytes_ -= out.size_bytes;
  ++forwarded_packets_;
  forwarded_bytes_ += out.size_bytes;
  if (lane == 1) ++priority_forwarded_;
  if (cfg_.latency.is_zero()) {
    sink_(out);
  } else {
    propagating_bytes_ += propagating_.push(out).size_bytes;
    sim_->schedule(cfg_.latency, [this] { arrive(); });
  }
  drain();
  if (!draining_ && on_idle_) on_idle_();
}

void DrainQueue::arrive() {
  const net::Packet& p = propagating_.pop_front();
  propagating_bytes_ -= p.size_bytes;
  sink_(p);
}

}  // namespace xdrs::queueing
