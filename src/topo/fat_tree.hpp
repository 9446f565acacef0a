// Two-tier fat-tree of hybrid switches — the multi-rack testbed.
//
// N ToR switches, each a full HybridSwitchFramework (its own VOQ bank,
// policy stack, OCS/EPS fabrics), share ONE sim::Simulator and connect
// through a core tier:
//
//   hosts --> ToR r (P host ports + U uplink ports) --uplink u--> core
//   switch u --downlink--> ToR r' (ingress at uplink port P+u) --> host
//
// The ToR fabric schedules uplink ports exactly like host ports, so the
// U : P ratio IS the oversubscription: cross-rack traffic contends for U
// uplink columns while rack-local traffic never leaves the switch.  The
// core tier is modelled as one rate-limited FIFO per (core switch u,
// destination rack r') — the core switch's downlink into that rack — with
// configurable propagation latency and buffer (topo::DrainQueue).
//
// Placement is a pure function of (seed, rack, src, dst, flow): every
// packet of a flow hashes to the same keep-local/go-remote decision, remote
// rack and uplink, so host->rack assignment is deterministic by
// construction — identical across thread counts and shard splits (tested).
//
// A single-rack FatTree is the single switch: exactly one framework with no
// uplinks, no transforms and no core tier, run through the same phased
// start_run/begin_measurement/finalize_run path HybridSwitchFramework::run()
// uses — so its report is byte-identical to a hand-built framework's run
// (property-tested over every scenario).  exp::materialize() builds every
// experiment point this way.
#ifndef XDRS_TOPO_FAT_TREE_HPP
#define XDRS_TOPO_FAT_TREE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "stats/timeseries.hpp"
#include "topo/drain_queue.hpp"

namespace xdrs::topo {

/// The topology axes of an experiment point.  Default-constructed ==
/// single switch (racks 1), which every pre-topology scenario implicitly
/// ran; multi_rack() gates all fat-tree machinery.
struct TopologySpec {
  std::uint32_t racks{1};
  /// Host-port to uplink-port ratio per ToR (1.0 = full bisection,
  /// 2.0 = classic 2:1 oversubscription).  uplinks() derives the count.
  double oversubscription{1.0};
  /// Core-switch downlink propagation (after serialisation).
  sim::Time core_latency{sim::Time::microseconds(1)};
  /// Per core-downlink FIFO bound; 0 = unlimited.
  std::int64_t core_buffer_bytes{4 << 20};

  [[nodiscard]] bool multi_rack() const noexcept { return racks > 1; }

  /// Uplink ports per ToR for `host_ports` hosts: host_ports /
  /// oversubscription, rounded, never below 1.
  [[nodiscard]] std::uint32_t uplinks(std::uint32_t host_ports) const;
};

/// Where one flow goes — the output of the pure placement function.
struct Placement {
  bool remote{false};        ///< crosses the core tier
  std::uint32_t dst_rack{0}; ///< == source rack when local
  std::uint32_t uplink{0};   ///< uplink index within the ToR (remote only)
};

/// Deterministic flow placement: hashes (seed, rack, src, dst, flow) to a
/// uniform [0,1) keep-local draw against `locality`, then (remote case) to
/// a destination rack != rack and an uplink.  Pure — no simulator state,
/// no RNG stream — so the host->rack assignment of a workload is a
/// function of its spec alone.
[[nodiscard]] Placement place_flow(std::uint64_t seed, std::uint32_t rack, net::PortId src,
                                   net::PortId dst, net::FlowId flow, double locality,
                                   std::uint32_t racks, std::uint32_t uplinks);

/// The assembled two-tier topology.  Construction builds the shared
/// simulator, the per-rack frameworks (ports = host_ports + uplinks, seeds
/// decorrelated per rack) and the core FIFOs; the caller then installs
/// policies and workloads on each rack() — placement_transform() supplies
/// the ingress stage — and run() drives the phased execution and folds the
/// per-rack reports plus core-tier accounting into one RunReport.
class FatTree {
 public:
  /// `tor` describes one ToR as a single-switch config whose `ports` field
  /// counts HOST ports; FatTree adds the uplink ports itself.  Throws
  /// std::invalid_argument on zero racks/ports or a non-positive
  /// oversubscription.
  FatTree(TopologySpec topo, core::FrameworkConfig tor);

  FatTree(const FatTree&) = delete;
  FatTree& operator=(const FatTree&) = delete;

  [[nodiscard]] std::uint32_t racks() const noexcept { return topo_.racks; }
  [[nodiscard]] std::uint32_t host_ports() const noexcept { return host_ports_; }
  [[nodiscard]] std::uint32_t uplink_ports() const noexcept { return uplink_ports_; }
  [[nodiscard]] const TopologySpec& topology() const noexcept { return topo_; }

  [[nodiscard]] core::HybridSwitchFramework& rack(std::uint32_t r) { return *racks_.at(r); }
  [[nodiscard]] const core::HybridSwitchFramework& rack(std::uint32_t r) const {
    return *racks_.at(r);
  }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  /// The ingress transform rack `r`'s generators should run behind:
  /// place_flow() with this topology's shape, rewriting remote packets at
  /// the chosen uplink port (final_dst keeps the host index) and
  /// namespacing their flow ids by source rack so cross-rack flows never
  /// collide in the destination tracker.  Empty for single-rack
  /// topologies — the single-switch path stays untouched.
  [[nodiscard]] core::HybridSwitchFramework::IngressTransform placement_transform(
      std::uint32_t rack, double locality, std::uint64_t seed) const;

  /// Switches on the observability layer for this run: one registry for
  /// every tier (per-rack stage timers attach to it) and a timeline sampler
  /// folded across racks over the measured window; multi-rack trees add
  /// per-ToR VOQ and core-queue gauges and TimeSeries tracks.  Telemetry is
  /// sidecar-only — it never enters RunReport or perturbs the event
  /// sequence, so results are byte-identical with it on or off (CI-gated).
  /// Call before run().
  void enable_telemetry(const obs::TelemetryConfig& tcfg = {});
  [[nodiscard]] obs::RunTelemetry* telemetry() noexcept { return telemetry_.get(); }
  [[nodiscard]] const obs::RunTelemetry* telemetry() const noexcept { return telemetry_.get(); }

  /// Per-tier counter tracks for Chrome-trace export: one named series per
  /// ToR ("tor<r>.voq_bytes") plus the core tier's aggregate queue depth
  /// ("core.queue_bytes").  Populated only when telemetry is enabled on a
  /// multi-rack tree.
  [[nodiscard]] std::vector<std::pair<std::string, const stats::TimeSeries*>> tier_series() const;

  /// Phased execution across every rack on the shared clock; returns the
  /// fleet report: per-rack reports merged, duration normalised back to
  /// one window, core-tier bytes/drops/occupancy/utilisation added.
  /// One-shot, like HybridSwitchFramework::run().
  [[nodiscard]] core::RunReport run(sim::Time duration, sim::Time warmup = sim::Time::zero());

  // ---- core-tier accounting (tests) ---------------------------------------
  [[nodiscard]] std::int64_t core_queue_bytes() const noexcept;

 private:
  void route_uplink(std::uint32_t src_rack, const net::Packet& p);
  void sample_tiers(sim::Time period, sim::Time horizon);

  TopologySpec topo_;
  std::uint32_t host_ports_;
  std::uint32_t uplink_ports_;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<core::HybridSwitchFramework>> racks_;
  /// core_[u * racks + r]: core switch u's downlink FIFO into rack r.
  std::vector<std::unique_ptr<DrainQueue>> core_;

  std::unique_ptr<obs::RunTelemetry> telemetry_;
  struct TierSeries {
    std::string name;
    stats::TimeSeries series;
    TierSeries(std::string n, std::size_t cap) : name{std::move(n)}, series{cap} {}
  };
  std::vector<TierSeries> tier_series_;

  bool ran_{false};
  // Core-tier baselines, snapshotted at the measurement boundary.
  std::int64_t base_core_bytes_{0};
  std::uint64_t base_core_drops_{0};
};

}  // namespace xdrs::topo

#endif  // XDRS_TOPO_FAT_TREE_HPP
