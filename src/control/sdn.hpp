// SDN control over the hybrid switch (paper §3: the implementation
// "allows to explore SDN practices over the hybrid network").
//
// Two pieces:
//  * SdnController — a flow-table facade over the processing-logic
//    classifier: install/modify/remove match-action rules with ids,
//    priorities and per-rule counters (OpenFlow-style flow statistics).
//  * ElephantPinner — a sample reactive application: it polls VOQ backlog
//    and pins heavy source/destination pairs to the throughput class
//    (making them OCS candidates) with hysteresis, unpinning them when
//    their backlog drains.  The classic c-Through/Helios elephant-
//    detection loop, expressed as an SDN app on this framework.
#ifndef XDRS_CONTROL_SDN_HPP
#define XDRS_CONTROL_SDN_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/classifier.hpp"
#include "queueing/voq.hpp"
#include "sim/simulator.hpp"

namespace xdrs::control {

class SdnController {
 public:
  explicit SdnController(net::Classifier& classifier);

  /// Installs `rule` (its `id` field is overwritten); returns the assigned
  /// flow id.
  std::uint64_t install(net::Rule rule);

  /// Removes a previously installed flow.  Returns false for unknown ids.
  bool remove(std::uint64_t flow_id);

  /// Atomically replaces the matching criteria/action of an installed flow
  /// (counters continue across the modification).  False for unknown ids.
  bool modify(std::uint64_t flow_id, const net::Rule& updated);

  [[nodiscard]] std::size_t installed_flows() const noexcept { return flows_.size(); }
  [[nodiscard]] std::vector<std::uint64_t> flow_ids() const;

  /// OpenFlow-style flow statistics.
  [[nodiscard]] net::RuleCounters flow_stats(std::uint64_t flow_id) const;

 private:
  net::Classifier& classifier_;
  std::unordered_map<std::uint64_t, net::Rule> flows_;
  std::uint64_t next_id_{1};
};

/// Reactive elephant-pinning application.
class ElephantPinner {
 public:
  struct Config {
    sim::Time poll_period{sim::Time::microseconds(100)};
    std::int64_t pin_threshold_bytes{64 * 1024};    ///< backlog to pin at
    std::int64_t unpin_threshold_bytes{8 * 1024};   ///< backlog to unpin at
    /// Rack whose hosts the pin rules address: the generators' synthetic
    /// addressing is 10.<rack>.0.0/16 + port index (0 on a single switch).
    std::uint32_t rack{0};
  };

  ElephantPinner(sim::Simulator& sim, SdnController& controller,
                 const queueing::VoqBank& voqs, Config cfg);

  /// Begins periodic polling until `horizon`.
  void start(sim::Time horizon);

  [[nodiscard]] std::size_t pinned_pairs() const noexcept { return pinned_.size(); }
  [[nodiscard]] std::uint64_t pin_events() const noexcept { return pin_events_; }
  [[nodiscard]] std::uint64_t unpin_events() const noexcept { return unpin_events_; }

 private:
  void poll(sim::Time horizon);
  [[nodiscard]] static std::uint64_t key(net::PortId src, net::PortId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  sim::Simulator& sim_;
  SdnController& controller_;
  const queueing::VoqBank& voqs_;
  Config cfg_;
  std::unordered_map<std::uint64_t, std::uint64_t> pinned_;  // pair key -> flow id
  std::uint64_t pin_events_{0};
  std::uint64_t unpin_events_{0};
};

}  // namespace xdrs::control

#endif  // XDRS_CONTROL_SDN_HPP
