// Configuration and result types of the hybrid switch scheduling framework.
#ifndef XDRS_CORE_CONFIG_HPP
#define XDRS_CORE_CONFIG_HPP

#include <array>
#include <cstdint>
#include <string>

#include "control/sync.hpp"
#include "queueing/voq.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"
#include "stats/histogram.hpp"
#include "stats/serialize.hpp"
#include "stats/summary.hpp"

namespace xdrs::core {

/// Where the VOQs physically live — the two regimes of Figure 1.
enum class BufferPlacement : std::uint8_t {
  kToRSwitch,  ///< fast scheduling: VOQs in the switch, grants on-chip
  kHost,       ///< slow scheduling: VOQs at hosts, grants over the network
};

[[nodiscard]] constexpr const char* to_string(BufferPlacement p) noexcept {
  return p == BufferPlacement::kToRSwitch ? "tor-buffered" : "host-buffered";
}

/// How the scheduling logic runs.
enum class SchedulingDiscipline : std::uint8_t {
  kSlotted,      ///< fixed time slots, one matching per slot (crossbar style)
  kHybridEpoch,  ///< periodic epochs, circuit plan + EPS residual (hybrid)
};

[[nodiscard]] constexpr const char* to_string(SchedulingDiscipline d) noexcept {
  return d == SchedulingDiscipline::kSlotted ? "slotted" : "hybrid-epoch";
}

struct FrameworkConfig {
  std::uint32_t ports{8};

  /// Trailing ports of the switch that face the fat-tree core tier instead
  /// of hosts (topo::FatTree sets this when it builds per-rack configs;
  /// single-switch runs leave it 0).  Uplink ports are scheduled by the
  /// fabric exactly like host ports — that is how oversubscription bites —
  /// but workload builders only attach sources/destinations to the first
  /// host_ports() ports.
  std::uint32_t uplink_ports{0};

  [[nodiscard]] std::uint32_t host_ports() const noexcept { return ports - uplink_ports; }

  /// Host uplink and OCS circuit rate (the paper's 10 Gbps per port).
  sim::DataRate link_rate{sim::DataRate::gbps(10)};
  /// EPS per-port rate; hybrid designs usually give the electrical path a
  /// fraction of the optical rate (Helios: 10G electrical vs 10G x W optical).
  sim::DataRate eps_rate{sim::DataRate::gbps(10)};

  sim::Time link_latency{sim::Time::nanoseconds(500)};   ///< host <-> ToR propagation
  sim::Time eps_latency{sim::Time::nanoseconds(800)};    ///< EPS fabric traversal
  sim::Time ocs_fabric_latency{sim::Time::nanoseconds(100)};
  sim::Time ocs_reconfig{sim::Time::microseconds(10)};   ///< dark time T_sw
  /// Failure injection: per-retune probability of a failed (repeated) tune.
  double ocs_failure_prob{0.0};

  std::int64_t eps_buffer_bytes{1 << 20};                ///< per EPS output port
  /// Strict-priority EPS queueing for latency-sensitive traffic.
  bool eps_strict_priority{false};
  queueing::VoqLimits voq_limits{};                      ///< default unlimited

  BufferPlacement placement{BufferPlacement::kToRSwitch};
  SchedulingDiscipline discipline{SchedulingDiscipline::kHybridEpoch};

  /// kSlotted: slot length.  Sensible: one MTU serialisation time.
  sim::Time slot_time{sim::Time::microseconds(1)};
  /// kHybridEpoch: demand snapshot / replanning period.
  sim::Time epoch{sim::Time::milliseconds(1)};
  /// Minimum circuit-hold duration per plan slot (amortises dark time).
  sim::Time min_circuit_hold{sim::Time::microseconds(10)};

  /// Latency-sensitive packets bypass circuits and ride the EPS.
  bool latency_sensitive_to_eps{true};
  /// Paper §3 ordering: configure circuits before granting.  Disabling
  /// overlaps them (grants act during dark time) — ablation for E9.
  bool configure_before_grant{true};
  /// Host-buffered mode: when a granted packet misses its circuit window
  /// (skew), divert it to the EPS instead of dropping it.
  bool eps_fallback_on_miss{false};

  control::SyncConfig sync{};  ///< host clock skew / guard bands

  std::uint64_t seed{1};
};

/// Aggregated outcome of one framework run.
///
/// RunReport is a *mergeable* record: merge() folds another report in as if
/// both runs' packets had been observed by one measurement window, so a
/// parameter sweep can aggregate per-point reports into grid totals.  It is
/// also *self-describing*: fields() names every scalar it carries, and the
/// CSV/JSON emitters are derived from that list, so new metrics propagate to
/// every output format by editing one function.
struct RunReport {
  /// Serialization schema version, emitted as the first CSV/JSON field so
  /// archived artifacts stay interpretable across schema evolution.
  /// History: 1 = unversioned seed schema; 2 = adds schema_version and
  /// policy_stack (the unified policy-stack redesign); 3 = adds the
  /// deadline/SLO completion metrics (deadline_flows_met/missed,
  /// goodput_before_deadline_bytes, per-class FCT histograms); 4 = adds the
  /// per-hop/topology metrics (intra- vs cross-rack delivered bytes and FCT
  /// split, rack uplink-queue peak/drops, core-tier bytes/drops/occupancy/
  /// utilisation for fat-tree runs); 5 = drops the rack uplink-queue
  /// peak/drops (peak_uplink_queue_bytes, uplink_drops), which only the
  /// retired rack-aggregation generator ever set — 0 in every artefact.
  static constexpr std::uint64_t kSchemaVersion = 5;

  sim::Time duration{};

  /// "matcher/circuit/estimator/timing" names of the policy objects that
  /// produced this report ('-' for kinds the discipline does not use);
  /// "mixed" after merging reports from different stacks.
  std::string policy_stack;

  std::uint64_t offered_packets{0};
  std::int64_t offered_bytes{0};
  std::uint64_t delivered_packets{0};
  std::int64_t delivered_bytes{0};
  /// All bytes delivered during the window, including packets born before
  /// it (the fabric's service rate; delivered_bytes counts only
  /// window-born packets so that delivered <= offered holds exactly).
  std::int64_t serviced_bytes{0};
  std::int64_t ocs_bytes{0};
  std::int64_t eps_bytes{0};
  /// Delivered bytes per traffic class, indexed by net::TrafficClass.
  std::array<std::int64_t, 3> class_bytes{};

  std::uint64_t voq_drops{0};
  std::uint64_t eps_drops{0};
  std::uint64_t sync_losses{0};      ///< missed circuit windows (host mode)
  std::uint64_t reconfig_cuts{0};    ///< packets cut by reconfiguration

  std::uint64_t reconfigurations{0};
  sim::Time dark_time{};
  double ocs_duty_cycle{0.0};        ///< busy / elapsed, per port average

  std::int64_t peak_switch_buffer_bytes{0};  ///< whole VOQ bank high-water
  std::int64_t peak_host_buffer_bytes{0};    ///< worst single input

  std::uint64_t scheduler_decisions{0};
  sim::Time mean_decision_latency{};

  stats::Histogram latency;                  ///< all delivered packets
  stats::Histogram latency_sensitive;        ///< kLatencySensitive class only
  stats::Summary jitter_us;                  ///< RFC3550 jitter per CBR flow, us

  // ---- deadline/SLO completion metrics (schema 3) -------------------------
  // Flows are tracked only when the generator stamps a total size
  // (net::Packet::flow_bytes > 0) and only when they start inside the
  // measurement window.  A flow with a deadline counts as met when its last
  // byte arrives by the deadline, as missed when it completes late OR is
  // still unfinished at the end of the run with its deadline expired;
  // unfinished flows whose deadline lies beyond the run are censored
  // (excluded), so short runs cannot inflate the miss ratio.
  std::uint64_t deadline_flows_met{0};
  std::uint64_t deadline_flows_missed{0};
  /// Bytes of deadline-carrying flows delivered at or before their deadline
  /// — the useful work the SLO actually received.
  std::int64_t goodput_before_deadline_bytes{0};
  stats::Histogram fct_deadline;             ///< FCT of completed deadline flows
  stats::Histogram fct_other;                ///< FCT of completed no-deadline flows

  // ---- per-hop/topology metrics (schema 4) --------------------------------
  // A single-switch run is one rack: every delivery is intra-rack and the
  // core-tier metrics stay zero.  Fat-tree runs (topo::FatTree) split
  // deliveries and completed-flow FCTs by whether the packet/flow crossed
  // the core tier, and add the core tier's own accounting.
  std::int64_t intra_rack_bytes{0};   ///< window-born deliveries within one rack
  std::int64_t cross_rack_bytes{0};   ///< window-born deliveries that crossed the core
  stats::Histogram fct_intra_rack;    ///< FCT of completed rack-local flows
  stats::Histogram fct_cross_rack;    ///< FCT of completed core-crossing flows
  /// Core tier (fat-tree core-switch downlink FIFOs), measured window.
  std::int64_t core_link_bytes{0};    ///< bytes forwarded across the core
  std::uint64_t core_drops{0};        ///< core FIFO overflows
  std::int64_t peak_core_queue_bytes{0};  ///< worst single core FIFO
  double core_utilization{0.0};       ///< core bytes / core capacity, per link avg

  /// missed / (met + missed); exactly 0 when no flow carries a deadline.
  [[nodiscard]] double deadline_miss_ratio() const noexcept {
    const std::uint64_t total = deadline_flows_met + deadline_flows_missed;
    return total == 0 ? 0.0
                      : static_cast<double>(deadline_flows_missed) / static_cast<double>(total);
  }

  /// delivered / offered bytes.
  [[nodiscard]] double delivery_ratio() const noexcept {
    return offered_bytes == 0
               ? 0.0
               : static_cast<double>(delivered_bytes) / static_cast<double>(offered_bytes);
  }

  /// Aggregate goodput (window-born packets) as a fraction of capacity.
  [[nodiscard]] double throughput_fraction(sim::DataRate link_rate, std::uint32_t ports) const {
    const double capacity_bytes = static_cast<double>(link_rate.bits_per_sec()) / 8.0 *
                                  duration.sec() * static_cast<double>(ports);
    return capacity_bytes == 0.0 ? 0.0 : static_cast<double>(delivered_bytes) / capacity_bytes;
  }

  /// Aggregate service rate (all deliveries) as a fraction of capacity —
  /// the right metric beyond saturation, where FIFO order means most
  /// deliveries are backlog from before the window.
  [[nodiscard]] double service_fraction(sim::DataRate link_rate, std::uint32_t ports) const {
    const double capacity_bytes = static_cast<double>(link_rate.bits_per_sec()) / 8.0 *
                                  duration.sec() * static_cast<double>(ports);
    return capacity_bytes == 0.0 ? 0.0 : static_cast<double>(serviced_bytes) / capacity_bytes;
  }

  /// Folds `other` into this report: counters and byte totals sum,
  /// durations accumulate, peaks take the maximum, latency/jitter
  /// distributions merge, and derived rates (duty cycle, mean decision
  /// latency) are re-weighted by their denominators.
  void merge(const RunReport& other);

  /// Ordered name/value view of every scalar metric, including the
  /// distribution digests (count/mean/quantiles).  The basis of csv_row()
  /// and to_json().
  [[nodiscard]] std::vector<stats::Field> fields() const;

  /// Single-line JSON object of fields().
  [[nodiscard]] std::string to_json() const;

  /// CSV emit; header and row orderings both come from fields().
  [[nodiscard]] static std::string csv_header();
  [[nodiscard]] std::string csv_row() const;

  [[nodiscard]] std::string summary() const;
};

}  // namespace xdrs::core

#endif  // XDRS_CORE_CONFIG_HPP
