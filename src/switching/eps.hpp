// Electrical packet switch model: an output-queued store-and-forward switch.
//
// In the hybrid architecture the EPS carries "the remaining traffic and
// short bursts" (paper §1).  Output queuing makes it work-conserving —
// matching the role commodity ToR silicon plays in Helios/c-Through — while
// per-output buffer limits expose the shallow-buffer reality the paper's
// motivation leans on.  Each output port is one queueing::DrainQueue: its
// buffer is the port's, it drains at the port rate, and the fabric
// traversal is the link latency, pipelined behind serialisation.
#ifndef XDRS_SWITCHING_EPS_HPP
#define XDRS_SWITCHING_EPS_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "queueing/drain_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace xdrs::switching {

struct EpsConfig {
  std::uint32_t ports{0};
  sim::DataRate port_rate{};          ///< drain rate per output port
  sim::Time switching_latency{};      ///< fixed fabric traversal latency
  std::int64_t buffer_bytes_per_port{0};  ///< 0 = unlimited
  /// Two-level strict priority: latency-sensitive packets drain ahead of
  /// everything else (non-preemptive — an in-flight packet completes).
  bool strict_priority{false};
};

struct EpsStats {
  std::uint64_t packets_delivered{0};
  std::int64_t bytes_delivered{0};
  std::uint64_t packets_dropped{0};
  std::int64_t bytes_dropped{0};
  std::int64_t peak_queue_bytes{0};  ///< max over ports and time
  std::uint64_t priority_packets_delivered{0};  ///< latency-sensitive class
};

class ElectricalPacketSwitch {
 public:
  using DeliverCallback = std::function<void(const net::Packet&, net::PortId out)>;

  ElectricalPacketSwitch(sim::Simulator& sim, EpsConfig cfg);

  void set_deliver_callback(DeliverCallback cb) { deliver_cb_ = std::move(cb); }

  /// Accepts `p` into the queue of output `p.dst`.  Returns false (drop)
  /// when the output buffer is full.
  bool send(const net::Packet& p);

  [[nodiscard]] std::int64_t queue_bytes(net::PortId out) const;
  [[nodiscard]] std::size_t queue_packets(net::PortId out) const;

  /// Totals over the output ports' own counters.
  [[nodiscard]] EpsStats stats() const noexcept;
  [[nodiscard]] const EpsConfig& config() const noexcept { return cfg_; }

 private:
  EpsConfig cfg_;
  std::vector<queueing::DrainQueue> out_;
  DeliverCallback deliver_cb_;
};

}  // namespace xdrs::switching

#endif  // XDRS_SWITCHING_EPS_HPP
