#include "topo/testbed.hpp"

#include <memory>
#include <stdexcept>

#include "traffic/empirical_cdf.hpp"
#include "traffic/patterns.hpp"
#include "traffic/trace_replay.hpp"

namespace xdrs::topo {

using traffic::CbrGenerator;
using traffic::FlowGenerator;
using traffic::OnOffGenerator;
using traffic::PoissonGenerator;

std::string WorkloadSpec::name() const {
  switch (kind) {
    case Kind::kPoissonUniform: return "uniform";
    case Kind::kPoissonHotspot: return "hotspot";
    case Kind::kPoissonZipf: return "zipf";
    case Kind::kPermutation: return "permutation";
    case Kind::kOnOffBursts: return "onoff";
    case Kind::kFlows: return "flows";
    case Kind::kShuffle: return "shuffle";
    case Kind::kIncast: return "incast";
    case Kind::kTraceReplay: return "trace";
    case Kind::kEmpirical: return "empirical";
  }
  return "unknown";
}

void attach_workload(core::HybridSwitchFramework& fw, const WorkloadSpec& spec,
                     core::HybridSwitchFramework::IngressTransform transform) {
  const auto& cfg = fw.config();
  // Sources and destinations live on host ports only; uplink ports (fat-tree
  // mode) are transit.  Single-switch configs have host_ports() == ports.
  const std::uint32_t ports = cfg.host_ports();

  // Trace replay is a single generator spanning all ports: it remaps the
  // trace's port ids onto this switch and time-scales to the spec's load.
  if (spec.kind == WorkloadSpec::Kind::kTraceReplay) {
    traffic::TraceReplayGenerator::Config gc;
    gc.trace = traffic::load_trace_cached(spec.trace_path);
    gc.ports = ports;
    gc.line_rate = cfg.link_rate;
    gc.load = spec.load;
    gc.seed = spec.seed;
    fw.add_generator(std::make_unique<traffic::TraceReplayGenerator>(gc), transform);
    return;
  }

  // Incast is a single many-to-one generator, not one source per port.
  if (spec.kind == WorkloadSpec::Kind::kIncast) {
    traffic::IncastGenerator::Config gc;
    gc.aggregator = 0;
    gc.ports = ports;
    gc.fan_in = 0;  // every other port answers each round
    gc.response_bytes = spec.response_bytes;
    gc.period = spec.period;
    gc.line_rate = cfg.link_rate;
    gc.deadline = spec.deadline;
    gc.seed = spec.seed;
    fw.add_generator(std::make_unique<traffic::IncastGenerator>(gc), transform);
    return;
  }

  // Empirical flow sizes share one immutable parsed CDF across every port
  // (and every concurrently-running sweep point replaying the same file).
  std::shared_ptr<traffic::EmpiricalSize> empirical_size;
  if (spec.kind == WorkloadSpec::Kind::kEmpirical) {
    empirical_size =
        std::make_shared<traffic::EmpiricalSize>(traffic::load_cdf_cached(spec.cdf_path));
  }

  for (std::uint32_t p = 0; p < ports; ++p) {
    const std::uint64_t seed = spec.seed * 1000003ULL + p;
    std::shared_ptr<traffic::DestinationChooser> dest;
    switch (spec.kind) {
      case WorkloadSpec::Kind::kPoissonUniform:
      case WorkloadSpec::Kind::kOnOffBursts:
      case WorkloadSpec::Kind::kFlows:
      case WorkloadSpec::Kind::kEmpirical:
        dest = std::make_shared<traffic::UniformChooser>(ports);
        break;
      case WorkloadSpec::Kind::kPoissonHotspot:
        dest = std::make_shared<traffic::HotspotChooser>(ports, 0, spec.skew);
        break;
      case WorkloadSpec::Kind::kPoissonZipf:
        dest = std::make_shared<traffic::ZipfChooser>(ports, spec.skew);
        break;
      case WorkloadSpec::Kind::kPermutation:
        dest = std::make_shared<traffic::PermutationChooser>(ports, 1);
        break;
      case WorkloadSpec::Kind::kShuffle:
        dest = std::make_shared<traffic::ShuffleChooser>(ports);
        break;
      case WorkloadSpec::Kind::kIncast:
      case WorkloadSpec::Kind::kTraceReplay:
        break;  // handled above
    }

    switch (spec.kind) {
      case WorkloadSpec::Kind::kOnOffBursts: {
        OnOffGenerator::Config gc;
        gc.src = p;
        gc.line_rate = cfg.link_rate;
        gc.mean_on = spec.mean_on;
        gc.mean_off = spec.mean_off;
        gc.dest = dest;
        gc.size = std::make_shared<traffic::FixedSize>(sim::kMaxFrameBytes);
        gc.seed = seed;
        fw.add_generator(std::make_unique<OnOffGenerator>(gc), transform);
        break;
      }
      case WorkloadSpec::Kind::kShuffle:
      case WorkloadSpec::Kind::kFlows:
      case WorkloadSpec::Kind::kEmpirical: {
        FlowGenerator::Config gc;
        gc.src = p;
        gc.line_rate = cfg.link_rate;
        gc.load = spec.load;
        gc.elephant_fraction = spec.elephant_fraction;
        gc.size = empirical_size;  // null for kShuffle/kFlows: built-in mixture
        gc.dest = dest;
        gc.deadline = spec.deadline;
        gc.seed = seed;
        fw.add_generator(std::make_unique<FlowGenerator>(gc), transform);
        break;
      }
      default: {
        PoissonGenerator::Config gc;
        gc.src = p;
        gc.line_rate = cfg.link_rate;
        gc.load = spec.load;
        gc.dest = dest;
        gc.size = std::make_shared<traffic::DatacenterPacketMix>();
        gc.seed = seed;
        fw.add_generator(std::make_unique<PoissonGenerator>(gc), transform);
        break;
      }
    }
  }
}

void attach_voip(core::HybridSwitchFramework& fw, std::uint32_t pairs, sim::Time period,
                 std::int64_t packet_bytes, std::uint64_t seed,
                 const core::HybridSwitchFramework::IngressTransform& transform) {
  const std::uint32_t ports = fw.config().host_ports();
  if (pairs > ports) throw std::invalid_argument{"attach_voip: more pairs than ports"};
  for (std::uint32_t i = 0; i < pairs; ++i) {
    CbrGenerator::Config gc;
    gc.src = i;
    gc.dst = (i + ports / 2) % ports;
    if (gc.dst == gc.src) gc.dst = (gc.src + 1) % ports;
    gc.packet_bytes = packet_bytes;
    gc.period = period;
    // Stagger phases so streams do not synchronise.
    gc.phase = sim::Time::picoseconds((period.ps() / (pairs + 1)) * (i + 1));
    gc.seed = seed + i;
    fw.add_generator(std::make_unique<CbrGenerator>(gc), transform);
  }
}

}  // namespace xdrs::topo
