// A rate-limited FIFO link stage: packets queue in bounded buffer space and
// drain at a fixed rate, optionally followed by a propagation delay.
//
// Every store-and-forward hop is one: each EPS output port, each input's
// wire into the EPS and each fat-tree core downlink.  A packet holds buffer
// space until its last bit is sent.  Latency zero delivers inline at the
// end of serialisation; a positive latency models propagation pipelined
// behind serialisation, as a real link does.
//
// The queue owns every packet it holds, in FIFOs of its own: two lanes
// (normal and priority) while queued or serialising, and one while
// propagating.  Its events carry only `this` and a lane, and each takes
// the packet from the front of its FIFO, because serialisations end, and
// propagations land, in the order they started.
#ifndef XDRS_QUEUEING_DRAIN_QUEUE_HPP
#define XDRS_QUEUEING_DRAIN_QUEUE_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "util/fifo.hpp"

namespace xdrs::queueing {

class DrainQueue {
 public:
  /// Receives each packet as it leaves the link.  The packet is the
  /// queue's own and is readable for the call; the sink must not offer
  /// to the queue that calls it.
  using Sink = std::function<void(const net::Packet&)>;
  using IdleHook = std::function<void()>;

  struct Config {
    sim::DataRate rate{sim::DataRate::gbps(10)};
    std::int64_t buffer_bytes{4 << 20};  ///< 0 = unlimited
    sim::Time latency{};                 ///< propagation after serialisation
    /// Latency-sensitive packets drain first.  The lane is chosen when
    /// serialisation starts, so they never preempt the packet on the wire.
    bool strict_priority{false};
  };

  explicit DrainQueue(Config cfg);

  /// Binds the queue to its simulator and downstream sink.  `on_idle`, if
  /// set, fires each time the last queued packet finishes serialising,
  /// before its propagation.  Must be called before the first offer(), and
  /// the queue must not move afterwards.
  void attach(sim::Simulator& sim, Sink sink, IdleHook on_idle = {});

  /// Enqueues `p` (starting the drain chain if idle) or drops it when the
  /// buffer would overflow.  Returns false on drop.
  bool offer(const net::Packet& p);

  /// Queued or serialising packets (not those still propagating).
  [[nodiscard]] std::size_t queue_packets() const noexcept {
    return lanes_[0].size() + lanes_[1].size();
  }
  [[nodiscard]] std::int64_t queue_bytes() const noexcept { return queue_bytes_; }
  /// Bytes serialised onto the link and not yet handed to the sink.
  [[nodiscard]] std::int64_t propagating_bytes() const noexcept { return propagating_bytes_; }
  [[nodiscard]] std::int64_t peak_queue_bytes() const noexcept { return peak_queue_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] std::int64_t dropped_bytes() const noexcept { return dropped_bytes_; }
  [[nodiscard]] std::uint64_t forwarded_packets() const noexcept { return forwarded_packets_; }
  [[nodiscard]] std::int64_t forwarded_bytes() const noexcept { return forwarded_bytes_; }
  /// Forwarded packets that drained from the priority lane.
  [[nodiscard]] std::uint64_t priority_forwarded() const noexcept { return priority_forwarded_; }

  /// Restarts the peak high-water mark at the current occupancy
  /// (measurement-window boundary).
  void reset_peak() noexcept { peak_queue_ = queue_bytes_; }

 private:
  /// Starts serialising the next packet, or marks the link idle.
  void drain();
  /// The packet on the wire from `lane` has been serialised.
  void finish_serialising(std::size_t lane);
  /// The oldest propagating packet reaches the sink.
  void arrive();

  Config cfg_;
  sim::Simulator* sim_{nullptr};
  Sink sink_;
  IdleHook on_idle_;
  util::Fifo<net::Packet> lanes_[2];  ///< [0] normal, [1] priority
  util::Fifo<net::Packet> propagating_;
  std::int64_t queue_bytes_{0};
  std::int64_t propagating_bytes_{0};
  std::int64_t peak_queue_{0};
  std::uint64_t drops_{0};
  std::int64_t dropped_bytes_{0};
  std::uint64_t forwarded_packets_{0};
  std::int64_t forwarded_bytes_{0};
  std::uint64_t priority_forwarded_{0};
  bool draining_{false};
};

}  // namespace xdrs::queueing

#endif  // XDRS_QUEUEING_DRAIN_QUEUE_HPP
