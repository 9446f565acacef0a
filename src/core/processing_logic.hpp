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
#include "queueing/voq.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "switching/eps.hpp"
#include "switching/ocs.hpp"

namespace xdrs::core {

struct ProcessingStats {
  std::uint64_t ingested_packets{0};
  std::int64_t ingested_bytes{0};
  std::uint64_t sync_losses{0};
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

  /// Entry point for generator traffic at host `p.src`.
  void ingest(const net::Packet& p);

  /// Grant delivery from the scheduling logic (already latency-delayed).
  void handle_grants(const control::GrantSet& grants);

  /// Cancels grant state (used between measurement phases).
  void revoke_all_grants();

  [[nodiscard]] queueing::VoqBank& voqs() noexcept { return voqs_; }
  [[nodiscard]] const queueing::VoqBank& voqs() const noexcept { return voqs_; }
  [[nodiscard]] const ProcessingStats& stats() const noexcept { return stats_; }

 private:
  struct EpsGrant {
    control::Grant grant;
    std::int64_t remaining{0};
  };
  struct InputState {
    std::optional<control::Grant> ocs_grant;
    std::int64_t ocs_remaining{0};
    bool ocs_pump_waiting{false};  ///< a wake-up is already scheduled
    std::deque<EpsGrant> eps_grants;
    bool eps_pumping{false};
    sim::Time eps_busy_until{};
  };

  void enqueue(const net::Packet& p);
  void pump_ocs(net::PortId input);
  void pump_eps(net::PortId input);
  /// Serialises `p` onto the electrical path of `input` and admits it to
  /// the EPS; shared by granted traffic and the latency-sensitive bypass.
  void send_eps_paced(net::PortId input, const net::Packet& p);

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
  RequestCallback request_cb_;
  VoqEventCallback arrival_cb_;
  VoqEventCallback departure_cb_;
  DeadlineCallback deadline_cb_;
  ProcessingStats stats_;
};

}  // namespace xdrs::core

#endif  // XDRS_CORE_PROCESSING_LOGIC_HPP
