// A rate-limited FIFO link stage: packets queue in bounded buffer space and
// drain at a fixed rate, optionally followed by a propagation delay.
//
// The fat-tree core tier (topo::FatTree) is built from these: one per core
// switch downlink into each rack.  Latency zero delivers inline at the end
// of serialisation; a positive latency models propagation pipelined behind
// serialisation, as a real link does.
#ifndef XDRS_TOPO_DRAIN_QUEUE_HPP
#define XDRS_TOPO_DRAIN_QUEUE_HPP

#include <cstdint>
#include <deque>
#include <functional>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace xdrs::topo {

class DrainQueue {
 public:
  using Sink = std::function<void(const net::Packet&)>;

  struct Config {
    sim::DataRate rate{sim::DataRate::gbps(10)};
    std::int64_t buffer_bytes{4 << 20};  ///< 0 = unlimited
    sim::Time latency{};                 ///< propagation after serialisation
  };

  explicit DrainQueue(Config cfg);

  /// Binds the queue to its simulator and downstream sink.  Must be called
  /// before the first offer().
  void attach(sim::Simulator& sim, Sink sink);

  /// Enqueues `p` (starting the drain chain if idle) or drops it when the
  /// buffer would overflow.  Returns false on drop.
  bool offer(const net::Packet& p);

  [[nodiscard]] std::int64_t queue_bytes() const noexcept { return queue_bytes_; }
  [[nodiscard]] std::int64_t peak_queue_bytes() const noexcept { return peak_queue_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] std::uint64_t forwarded_packets() const noexcept { return forwarded_packets_; }
  [[nodiscard]] std::int64_t forwarded_bytes() const noexcept { return forwarded_bytes_; }

  /// Restarts the peak high-water mark at the current occupancy
  /// (measurement-window boundary).
  void reset_peak() noexcept { peak_queue_ = queue_bytes_; }

 private:
  void drain();

  Config cfg_;
  sim::Simulator* sim_{nullptr};
  Sink sink_;
  std::deque<net::Packet> queue_;
  std::int64_t queue_bytes_{0};
  std::int64_t peak_queue_{0};
  std::uint64_t drops_{0};
  std::uint64_t forwarded_packets_{0};
  std::int64_t forwarded_bytes_{0};
  bool draining_{false};
};

}  // namespace xdrs::topo

#endif  // XDRS_TOPO_DRAIN_QUEUE_HPP
