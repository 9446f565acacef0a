// Per-flow completion tracking: FCT and deadline met/missed records.
//
// Generators that model whole flows stamp every packet with the owning
// flow's total size (net::Packet::flow_bytes) and absolute deadline
// (net::Packet::deadline, zero = none).  The tracker folds delivered
// packets into per-flow state and, at the end of a run, turns that state
// into the RunReport deadline metrics:
//
//   * a flow COMPLETES when its delivered bytes reach flow_bytes; the
//     completion time minus the first packet's creation time is its FCT
//   * a deadline flow is MET when it completes by its deadline, MISSED
//     when it completes late or is still unfinished at the end of the run
//     with its deadline already expired
//   * an unfinished flow whose deadline lies beyond the run (or that has
//     no deadline) is CENSORED — excluded entirely — so a short horizon
//     cannot inflate the miss ratio with flows that were never given a
//     chance
//   * goodput-before-deadline accumulates the bytes of deadline flows that
//     arrived at or before their deadline: the useful work the SLO got
//
// The tracker observes EVERY delivery, including warmup, because a flow
// that straddles the measurement boundary must be recognised (and then
// excluded: only flows whose first packet was created inside the window
// count).  Every output is an order-independent fold (sums, maxima,
// histogram bucket counts), so metrics are deterministic even though the
// per-flow table iterates in hash order.
#ifndef XDRS_CORE_FLOW_TRACKER_HPP
#define XDRS_CORE_FLOW_TRACKER_HPP

#include <cstdint>
#include <unordered_map>

#include "core/config.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace xdrs::core {

class FlowCompletionTracker {
 public:
  /// Folds in one packet delivered at `at`.  Deliveries may arrive out of
  /// time order (the OCS settles some late), so a flow completes at the
  /// latest delivery time it has seen.  Packets without a stamped flow size
  /// (flow_bytes <= 0: packet-level sources like Poisson/CBR) are ignored.
  void on_deliver(const net::Packet& p, sim::Time at);

  /// Writes the deadline metrics of flows whose first packet was created in
  /// [measure_start, end) into `report`.  `end` is the run horizon used for
  /// the missed-vs-censored split of unfinished flows.
  void finalize(sim::Time measure_start, sim::Time end, RunReport& report) const;

  [[nodiscard]] std::size_t tracked_flows() const noexcept { return flows_.size(); }

  /// Deadline-urgent backlog: open (incomplete) deadline flows whose
  /// deadline falls at or before now + horizon — already-expired ones
  /// included — and their undelivered bytes.  Order-independent fold over
  /// the flow table, so the result is deterministic; used by the telemetry
  /// timeline sampler.
  struct UrgentBacklog {
    std::uint64_t flows{0};
    std::int64_t bytes{0};
  };
  [[nodiscard]] UrgentBacklog urgent_backlog(sim::Time now, sim::Time horizon) const {
    UrgentBacklog out;
    for (const auto& [key, f] : flows_) {
      if (f.deadline.ps() == 0 || f.completed_at.ps() != 0) continue;
      if (f.deadline > now + horizon) continue;
      ++out.flows;
      if (f.flow_bytes > f.delivered) out.bytes += f.flow_bytes - f.delivered;
    }
    return out;
  }

 private:
  struct FlowState {
    sim::Time first_created{sim::Time::max()};  ///< earliest packet creation seen
    sim::Time deadline{};                       ///< absolute; zero = none
    sim::Time completed_at{};                   ///< zero until complete
    sim::Time last_delivered{};                 ///< latest delivery time seen
    std::int64_t flow_bytes{0};
    std::int64_t delivered{0};
    std::int64_t bytes_before_deadline{0};
    bool crossed_core{false};  ///< any packet crossed the fat-tree core tier
  };

  std::unordered_map<net::FlowKey, FlowState, net::FlowKeyHash> flows_;
};

}  // namespace xdrs::core

#endif  // XDRS_CORE_FLOW_TRACKER_HPP
