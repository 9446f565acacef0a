#include "topo/drain_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace xdrs::topo {

DrainQueue::DrainQueue(Config cfg) : cfg_{cfg} {
  if (cfg.rate.is_zero()) throw std::invalid_argument{"DrainQueue: rate must be positive"};
}

void DrainQueue::attach(sim::Simulator& sim, Sink sink) {
  if (!sink) throw std::invalid_argument{"DrainQueue: null sink"};
  sim_ = &sim;
  sink_ = std::move(sink);
}

bool DrainQueue::offer(const net::Packet& p) {
  if (sim_ == nullptr) throw std::logic_error{"DrainQueue: offer() before attach()"};
  if (cfg_.buffer_bytes > 0 && queue_bytes_ + p.size_bytes > cfg_.buffer_bytes) {
    ++drops_;
    return false;
  }
  queue_.push_back(p);
  queue_bytes_ += p.size_bytes;
  peak_queue_ = std::max(peak_queue_, queue_bytes_);
  if (!draining_) {
    draining_ = true;
    drain();
  }
  return true;
}

void DrainQueue::drain() {
  if (queue_.empty()) {
    draining_ = false;
    return;
  }
  const net::Packet& head = queue_.front();
  const sim::Time tx = cfg_.rate.transmission_time(head.size_bytes + sim::kWireOverheadBytes);
  sim_->schedule(tx, [this] {
    // Timestamps are preserved: end-to-end latency spans this queue as well
    // as the fabrics either side of it.
    const net::Packet out = queue_.front();
    queue_.pop_front();
    queue_bytes_ -= out.size_bytes;
    ++forwarded_packets_;
    forwarded_bytes_ += out.size_bytes;
    if (cfg_.latency.is_zero()) {
      sink_(out);
    } else {
      sim_->schedule(cfg_.latency, [this, out] { sink_(out); });
    }
    drain();
  });
}

}  // namespace xdrs::topo
