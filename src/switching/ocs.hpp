// Optical circuit switch model.
//
// The defining property (paper §2): "During the switching time (which can
// vary from nanoseconds to milliseconds based on its construction), no
// packets can be sent through the switch and hence need to be buffered."
// The model therefore centres on the reconfiguration *dark period*: between
// `reconfigure()` and the configured callback, every circuit is down, and
// packets still on the fabric (serialising or propagating) when darkness
// falls are lost (counted separately as reconfiguration cuts).
//
// The switch owns every packet on its fabric: each input keeps a FIFO of
// its sends, oldest first, and an input's deliveries land in send order.
// A retune cuts from the back every send whose delivery is still ahead.
//
// Most deliveries need no event.  Once defer_deliveries() is on, a send to
// a host port (below the first uplink) stays in its FIFO with its delivery
// time and is *settled* later: handed to the deliver callback with that
// time, at the first settle point that reaches it: the same input's next
// send or evented delivery, a retune, settle_all() or settle_to_now().  Only
// a delivery whose effects are bookkeeping alone may wait like this.  Three
// kinds of send keep their event, which carries only `this` and the input
// and settles the FIFO up to its own send:
//   * sends to an uplink, since fat-tree transit must reach the core at the
//     real time;
//   * latency-sensitive packets, since RFC 3550 jitter depends on the order
//     of deliveries;
//   * every send while the trace recorder is on, so a trace stays in time
//     order.
#ifndef XDRS_SWITCHING_OCS_HPP
#define XDRS_SWITCHING_OCS_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "schedulers/matching.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sim/units.hpp"
#include "util/fifo.hpp"

namespace xdrs::switching {

struct OcsConfig {
  std::uint32_t ports{0};
  sim::DataRate port_rate{};          ///< serialisation rate per circuit
  sim::Time reconfig_time{};          ///< dark period per reconfiguration
  sim::Time fabric_latency{};         ///< propagation through the fabric
  /// Failure injection: probability that one retune attempt fails and the
  /// device must repeat the dark period before circuits establish.
  double retune_failure_prob{0.0};
  std::uint64_t failure_seed{1};
};

struct OcsStats {
  std::uint64_t reconfigurations{0};
  sim::Time dark_time_total{};
  std::uint64_t packets_delivered{0};
  std::int64_t bytes_delivered{0};
  std::uint64_t packets_cut_by_reconfig{0};  ///< in flight when darkness fell
  std::int64_t bytes_cut_by_reconfig{0};      ///< their bytes
  sim::Time busy_time_total{};               ///< port-seconds of serialisation
  std::uint64_t retune_failures{0};          ///< injected retune retries
};

class OpticalCircuitSwitch {
 public:
  /// Receives each packet at its egress port (its `dst`) with its delivery
  /// time: at that time for an evented delivery, at the settle point for a
  /// settled one.  The packet is the switch's own and is readable for the
  /// call; the callback must neither send nor retune.
  using DeliverCallback = std::function<void(const net::Packet&, sim::Time at)>;
  using ConfiguredCallback = std::function<void(const schedulers::Matching&)>;

  OpticalCircuitSwitch(sim::Simulator& sim, OcsConfig cfg);

  /// Delivery of a packet at its egress port.
  void set_deliver_callback(DeliverCallback cb) { deliver_cb_ = std::move(cb); }

  /// Fired when a reconfiguration completes and circuits are up again.
  void set_configured_callback(ConfiguredCallback cb) { configured_cb_ = std::move(cb); }

  /// Starts retuning to `next`.  Every packet still on the fabric, on any
  /// input, is cut (lost).
  /// Re-entrant calls during a dark period supersede the pending target.
  void reconfigure(const schedulers::Matching& next);

  /// True while the switch is dark (no circuit usable).
  [[nodiscard]] bool is_dark() const noexcept { return dark_; }

  /// True when input `in` currently has a live circuit to output `out`.
  [[nodiscard]] bool circuit_up(net::PortId in, net::PortId out) const;

  /// The established configuration (the pending one while dark).
  [[nodiscard]] const schedulers::Matching& configuration() const noexcept { return config_; }

  /// Sends `p` from `in` over its circuit.  Returns the delivery time, or
  /// nullopt when there is no live circuit from `in` to `p.dst` (caller must
  /// buffer).  Serialisation is paced per input port; back-to-back sends
  /// queue behind the port's busy time.
  std::optional<sim::Time> send(net::PortId in, const net::Packet& p);

  /// Earliest time input `in` can begin serialising a new packet.
  [[nodiscard]] sim::Time port_free_at(net::PortId in) const;

  /// From now on, settles every send to an output below `first_evented`
  /// without an event, unless the packet is latency-sensitive or `trace`
  /// (if given) is enabled at the send.  `first_evented` = 0, the default,
  /// gives every send its event.
  void defer_deliveries(net::PortId first_evented, const sim::TraceRecorder* trace = nullptr);

  /// Settles every send due at or before `t`, each input's in send order,
  /// with its own delivery time.  An input stops at its oldest send that
  /// still waits for its event.
  void settle_all(sim::Time t);

  /// Settles every send whose event would already have fired by now: due
  /// before now(), or due at now() and sent before the running event was
  /// scheduled (Simulator::running_order()).  Outside a run, settle_all(now).
  void settle_to_now();

  /// Bytes sent on any input and neither delivered nor cut.  Settled sends
  /// count as delivered, so after settle_to_now() this is exactly the bytes
  /// still on the fabric; before it, it also holds deferred sends already
  /// due.
  [[nodiscard]] std::int64_t in_flight_bytes() const noexcept { return in_flight_bytes_; }

  [[nodiscard]] const OcsStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const OcsConfig& config() const noexcept { return cfg_; }

 private:
  struct InFlight {
    sim::EventId event{};   ///< invalid for a deferred send
    sim::Time delivers{};
    std::uint64_t order{};  ///< a deferred send's would-be event order
    net::Packet packet;
  };

  /// Completes (or retries, under failure injection) a dark period.
  void finish_dark_period();
  /// The delivery event of input `in`'s oldest evented send: settles the
  /// deferred sends ahead of it, then delivers it.
  void deliver(net::PortId in);
  /// Settles input `in`'s oldest deferred sends while each is due before
  /// (t, order) or at it.
  void settle(net::PortId in, sim::Time t, std::uint64_t order);
  /// Hands the popped send `f` to the deliver callback.
  void hand_over(const InFlight& f);

  sim::Simulator& sim_;
  OcsConfig cfg_;
  schedulers::Matching config_;
  bool dark_{false};
  sim::EventId dark_end_event_{};
  std::vector<sim::Time> busy_until_;   // per input port
  /// Per input port: every packet still on the fabric, oldest first.  A
  /// handful at most (a fabric latency's worth of serialisations), and an
  /// idle input's FIFO allocates nothing.
  std::vector<util::Fifo<InFlight>> in_flight_;
  std::int64_t in_flight_bytes_{0};
  net::PortId first_evented_{0};              ///< sends below it may defer
  const sim::TraceRecorder* trace_{nullptr};  ///< on = every send evented
  sim::Rng failure_rng_;
  DeliverCallback deliver_cb_;
  ConfiguredCallback configured_cb_;
  OcsStats stats_;
};

}  // namespace xdrs::switching

#endif  // XDRS_SWITCHING_OCS_HPP
