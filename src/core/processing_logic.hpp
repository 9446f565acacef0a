// Processing logic (Figure 2, left block): "Incoming packets from hosts
// H1..Hn are sent to the processing logic.  There, packets are classified
// into flows based on configurable look-up rules and placed into their
// respective Virtual Output Queue.  As the status of a VOQ changes, the
// subsystem generates scheduling requests and transmits packets upon
// receiving transmission grants from the scheduling logic."
//
// The same class implements both buffer placements of Figure 1: with
// kToRSwitch the VOQ bank represents switch memory and grants act on-chip;
// with kHost it represents per-host memory, grants arrive delayed, and
// launch times suffer host clock skew (via the SyncModel).
//
// Each input reaches the EPS over one wire (a queueing::DrainQueue) shared
// by bypass, miss-fallback and granted packets; granted ones leave the VOQ
// only when the wire is empty, so an input keeps one EPS service chain.
#ifndef XDRS_CORE_PROCESSING_LOGIC_HPP
#define XDRS_CORE_PROCESSING_LOGIC_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "control/messages.hpp"
#include "control/sync.hpp"
#include "core/config.hpp"
#include "net/classifier.hpp"
#include "net/packet.hpp"
#include "queueing/drain_queue.hpp"
#include "queueing/voq.hpp"
#include "sim/delay_line.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "switching/eps.hpp"
#include "switching/ocs.hpp"

namespace xdrs::core {

struct ProcessingStats {
  std::uint64_t ingested_packets{0};
  std::int64_t ingested_bytes{0};
  std::uint64_t sync_losses{0};
  /// Bytes of the sync losses not diverted to the EPS (all of them unless
  /// eps_fallback_on_miss).
  std::int64_t sync_lost_bytes{0};
  std::uint64_t eps_bypass_packets{0};
  std::uint64_t granted_ocs_packets{0};
  std::uint64_t granted_eps_packets{0};
};

class ProcessingLogic {
 public:
  using RequestCallback = std::function<void(const control::SchedulingRequest&)>;
  using VoqEventCallback =
      std::function<void(net::PortId src, net::PortId dst, std::int64_t bytes, sim::Time at)>;
  using DeadlineCallback =
      std::function<void(net::PortId src, net::PortId dst, sim::Time deadline, sim::Time at)>;

  ProcessingLogic(sim::Simulator& sim, const FrameworkConfig& cfg, net::Classifier& classifier,
                  switching::OpticalCircuitSwitch& ocs, switching::ElectricalPacketSwitch& eps,
                  control::SyncModel& sync, sim::TraceRecorder& trace);

  /// Scheduling requests towards the scheduling logic (status changes).
  void set_request_callback(RequestCallback cb) { request_cb_ = std::move(cb); }
  /// Demand-estimator hooks.
  void set_arrival_callback(VoqEventCallback cb) { arrival_cb_ = std::move(cb); }
  void set_departure_callback(VoqEventCallback cb) { departure_cb_ = std::move(cb); }
  /// Fired when a packet carrying a flow deadline enters its VOQ.
  void set_deadline_callback(DeadlineCallback cb) { deadline_cb_ = std::move(cb); }

  /// Rewrites a packet as it enters the switch (the fat-tree placement).
  using Rewrite = std::function<void(net::Packet&)>;

  /// Entry point for generator traffic at host `p.src`.  A non-null
  /// `rewrite` is applied to this hop's own copy of the packet before
  /// anything reads it.
  void ingest(const net::Packet& p, const Rewrite* rewrite = nullptr);

  /// Grant delivery from the scheduling logic (already latency-delayed).
  void handle_grants(const control::GrantSet& grants);

  /// Cancels grant state (used between measurement phases).
  void revoke_all_grants();

  [[nodiscard]] queueing::VoqBank& voqs() noexcept { return voqs_; }
  [[nodiscard]] const queueing::VoqBank& voqs() const noexcept { return voqs_; }
  [[nodiscard]] const ProcessingStats& stats() const noexcept { return stats_; }

  /// Bytes ingested in ToR placement that are still crossing the host
  /// uplink to the switch.
  [[nodiscard]] std::int64_t ingress_hop_bytes() const noexcept { return ingress_bytes_; }

 private:
  struct EpsGrant {
    control::Grant grant;
    std::int64_t remaining{0};
  };
  /// Per-input host state.  OCS service is one chain per input: at most
  /// one wake-up is pending, stamped at the time the held grant can next
  /// start a transmission (its window opening, or the wire falling free).
  struct InputState {
    std::optional<control::Grant> ocs_grant;
    std::int64_t ocs_remaining{0};
    /// The host's own OCS transmitter: busy for a launch's serialisation
    /// even when the OCS never saw the packet (launch into darkness).
    sim::Time ocs_tx_until{};
    sim::EventId ocs_wake{};  ///< the chain's one pending wake-up, if valid
    sim::Time ocs_wake_at{};
    std::deque<EpsGrant> eps_grants;
  };

  /// Applies the classifier's verdict to `p` in place.
  net::Packet& classify(net::Packet& p);
  /// The oldest packet on the host uplink reaches the ToR (ToR placement).
  void arrive_at_tor(const net::Packet& p);
  void enqueue(const net::Packet& p);
  /// Serves the held OCS grant of `input`: launches the VOQ head if the
  /// window is open and the wire is free, else (re)arms the input's single
  /// wake-up for when service can start.
  void pump_ocs(net::PortId input);
  /// Points the input's one OCS wake-up at `at`, moving a pending one.
  void wake_ocs_at(net::PortId input, sim::Time at);
  /// Drops the input's pending OCS wake-up: its grant is idle or over.
  void cancel_ocs_wake(net::PortId input);
  /// Launches the head of the input's EPS grant onto its empty EPS wire;
  /// the wire's idle hook calls it again.
  void pump_eps(net::PortId input);

  /// Host clock offset for `input` (zero in ToR placement).
  [[nodiscard]] sim::Time host_offset(net::PortId input) const;

  sim::Simulator& sim_;
  const FrameworkConfig& cfg_;
  net::Classifier& classifier_;
  switching::OpticalCircuitSwitch& ocs_;
  switching::ElectricalPacketSwitch& eps_;
  control::SyncModel& sync_;
  sim::TraceRecorder& trace_;

  queueing::VoqBank voqs_;
  std::vector<InputState> inputs_;
  std::vector<queueing::DrainQueue> eps_wires_;  ///< per input, into the EPS
  /// Packets on the host uplinks (ToR placement), oldest first.  Every
  /// uplink has the same latency, so one delay line carries them all.
  sim::DelayLine<net::Packet> ingress_;
  std::int64_t ingress_bytes_{0};
  RequestCallback request_cb_;
  VoqEventCallback arrival_cb_;
  VoqEventCallback departure_cb_;
  DeadlineCallback deadline_cb_;
  ProcessingStats stats_;
};

}  // namespace xdrs::core

#endif  // XDRS_CORE_PROCESSING_LOGIC_HPP
