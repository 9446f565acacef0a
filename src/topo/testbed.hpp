// Testbed assembly: the paper's "large testbed ... using tens of processing
// elements, a centralized scheduling entity and a commercial OCS" (§3),
// reduced to convenient builders that attach whole workloads to a framework.
#ifndef XDRS_TOPO_TESTBED_HPP
#define XDRS_TOPO_TESTBED_HPP

#include <cstdint>
#include <string>

#include "core/framework.hpp"
#include "sim/time.hpp"
#include "traffic/deadline.hpp"

namespace xdrs::topo {

/// A uniform description of per-port traffic, expandable to one generator
/// per ingress port.
struct WorkloadSpec {
  enum class Kind : std::uint8_t {
    kPoissonUniform,   ///< Poisson arrivals, uniform destinations
    kPoissonHotspot,   ///< Poisson arrivals, `skew` fraction to port 0
    kPoissonZipf,      ///< Poisson arrivals, Zipf(skew) destinations
    kPermutation,      ///< Poisson arrivals, fixed shifted permutation
    kOnOffBursts,      ///< Pareto ON/OFF bursts (OCS-friendly elephants)
    kFlows,            ///< flow-level mice/elephant mixture
    kShuffle,          ///< flow-level all-to-all (MapReduce shuffle rotation)
    kIncast,           ///< periodic partition/aggregate fan-in to port 0
    kTraceReplay,      ///< CSV flow-trace replay (traffic/trace_replay.hpp)
    kEmpirical,        ///< flows sized by an empirical CDF file (traffic/empirical_cdf.hpp)
  };

  Kind kind{Kind::kPoissonUniform};
  double load{0.5};          ///< offered load per port, fraction of line rate
  /// Fraction of a composite scenario's load this workload carries; the
  /// ScenarioSpec load mutator distributes `load x share` to each workload,
  /// so a mixed scenario sweeps as one load axis.  1.0 for single workloads.
  double share{1.0};
  double skew{0.0};          ///< hotspot fraction or Zipf exponent
  sim::Time mean_on{sim::Time::microseconds(100)};   ///< kOnOffBursts
  sim::Time mean_off{sim::Time::microseconds(100)};  ///< kOnOffBursts
  double elephant_fraction{0.1};                     ///< kFlows / kShuffle
  sim::Time period{sim::Time::milliseconds(1)};      ///< kIncast round period
  std::int64_t response_bytes{64'000};               ///< kIncast per-worker answer
  std::string trace_path;                            ///< kTraceReplay CSV file
  std::string cdf_path;                              ///< kEmpirical bytes,cdf file
  /// Completion-deadline model for flow-level workloads (kFlows, kShuffle,
  /// kEmpirical, kIncast).  Packet-level kinds have no flow to complete and
  /// ignore it; kTraceReplay carries deadlines in the trace file itself.
  traffic::DeadlineSpec deadline{};
  /// Fat-tree placement: fraction of each source's flows that stay inside
  /// its own rack (1.0 = everything rack-local, the single-switch
  /// behaviour).  Ignored when the topology has a single rack — the
  /// placement stage is only built for multi-rack runs.
  double locality{1.0};
  std::uint64_t seed{7};

  [[nodiscard]] std::string name() const;
};

/// Creates one generator per host port of `fw` according to `spec` (uplink
/// ports, when the config reserves any, carry transit traffic and get no
/// sources).  The optional `transform` is installed on every generator —
/// the fat-tree placement stage rides here.
void attach_workload(core::HybridSwitchFramework& fw, const WorkloadSpec& spec,
                     core::HybridSwitchFramework::IngressTransform transform = {});

/// Adds `pairs` bidirectional VOIP-like CBR streams between distinct host
/// port pairs (src i <-> dst (i + ports/2) % ports), `packet_bytes` every
/// `period`.  Marked latency-sensitive.  Always rack-local: VOIP overlays
/// model intra-rack service traffic even in fat-tree runs.  The optional
/// `transform` is installed on every stream; on a fat-tree it should keep
/// the stream local and rack-namespace its addresses
/// (FatTree::placement_transform at locality 1).
void attach_voip(core::HybridSwitchFramework& fw, std::uint32_t pairs, sim::Time period,
                 std::int64_t packet_bytes, std::uint64_t seed = 99,
                 const core::HybridSwitchFramework::IngressTransform& transform = {});

}  // namespace xdrs::topo

#endif  // XDRS_TOPO_TESTBED_HPP
