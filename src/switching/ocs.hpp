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
// its sends, oldest first.  An input's deliveries land in send order, so a
// delivery event carries only `this` and the input and takes the FIFO's
// front, while a retune cuts from the back every send whose delivery is
// still ahead.
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
  sim::Time busy_time_total{};               ///< port-seconds of serialisation
  std::uint64_t retune_failures{0};          ///< injected retune retries
};

class OpticalCircuitSwitch {
 public:
  /// Receives each packet at its egress port.  The packet is the switch's
  /// own and is readable for the call; the callback must not send on the
  /// input that delivered it.
  using DeliverCallback = std::function<void(const net::Packet&, net::PortId out)>;
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

  /// Bytes sent on any input and not yet delivered or cut.
  [[nodiscard]] std::int64_t in_flight_bytes() const noexcept { return in_flight_bytes_; }

  [[nodiscard]] const OcsStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const OcsConfig& config() const noexcept { return cfg_; }

 private:
  struct InFlight {
    sim::EventId event{};
    sim::Time delivers{};
    net::Packet packet;
  };

  /// Completes (or retries, under failure injection) a dark period.
  void finish_dark_period();
  /// The oldest send of input `in` reaches its egress port.
  void deliver(net::PortId in);

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
  sim::Rng failure_rng_;
  DeliverCallback deliver_cb_;
  ConfiguredCallback configured_cb_;
  OcsStats stats_;
};

}  // namespace xdrs::switching

#endif  // XDRS_SWITCHING_OCS_HPP
