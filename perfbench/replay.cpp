#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "queueing/voq.hpp"
#include "sim/simulator.hpp"
#include "topo/fat_tree.hpp"
#include "traffic/empirical_cdf.hpp"
#include "traffic/generators.hpp"
#include "traffic/patterns.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using xdrs::sim::Time;
using Kind = xdrs::topo::WorkloadSpec::Kind;
using Transform = xdrs::core::HybridSwitchFramework::IngressTransform;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Shared state of the event-queue replay.
struct QueueReplayState {
  xdrs::sim::Simulator sim;
  std::uint64_t to_schedule{0};
  std::uint64_t rng{0};

  /// xorshift64: cheap, so the replay times the queue, not the generator.
  Time next_delay() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    // 1 ns .. ~4 us, the spread of serialisation, slot and epoch delays.
    return Time::picoseconds(1'000 + static_cast<std::int64_t>(rng % 4'000'000));
  }
};

/// A handler whose capture is the size of the framework's typical one
/// (`this`, the simulator, a horizon and a few packet fields), so each
/// schedule pays the same std::function storage cost.
struct Handler {
  QueueReplayState* state;
  xdrs::sim::Simulator* sim;
  Time horizon;
  std::uint64_t payload[3];

  void operator()() const {
    if (state->to_schedule == 0) return;
    --state->to_schedule;
    Handler next = *this;
    ++next.payload[0];
    sim->schedule(state->next_delay(), next);
  }
};

// chooser() and make_generator() copy the per-port generator construction
// of topo::attach_workload() (src/topo/testbed.cpp), which builds straight
// into a framework and so cannot feed a bare Simulator.  Keep the two in
// step: a change there must be made here too, or the traffic replay times
// other traffic than the workload's.

std::shared_ptr<xdrs::traffic::DestinationChooser> chooser(const xdrs::topo::WorkloadSpec& w,
                                                           std::uint32_t ports) {
  using namespace xdrs::traffic;
  switch (w.kind) {
    case Kind::kPoissonUniform:
    case Kind::kFlows:
    case Kind::kEmpirical:
      return std::make_shared<UniformChooser>(ports);
    case Kind::kPoissonHotspot:
      return std::make_shared<HotspotChooser>(ports, 0, w.skew);
    case Kind::kPoissonZipf:
      return std::make_shared<ZipfChooser>(ports, w.skew);
    case Kind::kPermutation:
      return std::make_shared<PermutationChooser>(ports, 1);
    case Kind::kShuffle:
      return std::make_shared<ShuffleChooser>(ports);
    default:
      // On/off bursts, incast and trace replay have generators of their
      // own that this copy does not reproduce.
      throw std::invalid_argument{"replay_generators: unsupported workload kind " + w.name()};
  }
}

/// The generator attach_workload() builds for port `p` of one workload.
std::unique_ptr<xdrs::traffic::TrafficGenerator> make_generator(
    const xdrs::topo::WorkloadSpec& w, const xdrs::core::FrameworkConfig& cfg,
    std::uint32_t ports, std::uint32_t p) {
  using namespace xdrs::traffic;
  const std::uint64_t seed = w.seed * 1000003ULL + p;
  const auto dest = chooser(w, ports);  // throws for kinds not reproduced here
  if (w.kind == Kind::kFlows || w.kind == Kind::kShuffle || w.kind == Kind::kEmpirical) {
    FlowGenerator::Config gc;
    gc.src = p;
    gc.line_rate = cfg.link_rate;
    gc.load = w.load;
    gc.elephant_fraction = w.elephant_fraction;
    if (w.kind == Kind::kEmpirical) {
      gc.size = std::make_shared<EmpiricalSize>(load_cdf_cached(w.cdf_path));
    }
    gc.dest = dest;
    gc.deadline = w.deadline;
    gc.seed = seed;
    return std::make_unique<FlowGenerator>(gc);
  }
  PoissonGenerator::Config gc;
  gc.src = p;
  gc.line_rate = cfg.link_rate;
  gc.load = w.load;
  gc.dest = dest;
  gc.size = std::make_shared<DatacenterPacketMix>();
  gc.seed = seed;
  return std::make_unique<PoissonGenerator>(gc);
}

}  // namespace

double replay_event_queue(std::uint64_t events, std::size_t depth, std::uint64_t seed) {
  if (events == 0) return 0.0;
  if (depth == 0) depth = 1;
  QueueReplayState state;
  state.rng = seed | 1;
  state.to_schedule = events > depth ? events - depth : 0;
  for (std::size_t i = 0; i < depth; ++i) {
    state.sim.schedule(state.next_delay(),
                       Handler{&state, &state.sim, Time::max(), {i, seed, depth}});
  }
  const auto t0 = Clock::now();
  state.sim.run();
  const double ns = ns_since(t0);
  return ns / static_cast<double>(state.sim.stats().events_executed);
}

TrafficReplay replay_generators(const std::vector<xdrs::exp::ScenarioSpec>& specs,
                                std::size_t max_records) {
  TrafficReplay out;
  double total_ns = 0.0;
  for (const auto& spec : specs) {
    const std::uint32_t ports = spec.config.host_ports();
    const Time horizon = spec.duration + spec.warmup;
    // Multi-rack specs: rack r gets what materialize_fat_tree() attaches,
    // the workload seed offset by r behind the rack's placement transform,
    // which sends remote packets to uplink ports.
    std::unique_ptr<xdrs::topo::FatTree> ft;
    if (spec.topology.multi_rack()) {
      ft = std::make_unique<xdrs::topo::FatTree>(spec.topology, spec.config);
    }
    out.ports = std::max(out.ports, ft ? ft->host_ports() + ft->uplink_ports() : ports);
    for (std::uint32_t rack = 0; rack < spec.topology.racks; ++rack) {
      xdrs::sim::Simulator sim;
      std::vector<std::unique_ptr<xdrs::traffic::TrafficGenerator>> generators;
      std::vector<Transform> transforms;
      for (const auto& w : spec.workloads) {
        xdrs::topo::WorkloadSpec wr = w;
        Transform transform;
        if (ft) {
          wr.seed = w.seed + rack;
          transform = ft->placement_transform(rack, w.locality, w.seed);
        }
        for (std::uint32_t p = 0; p < ports; ++p) {
          generators.push_back(make_generator(wr, spec.config, ports, p));
          transforms.push_back(transform);
        }
      }
      std::uint64_t packets = 0;
      const auto record = [&out, &packets, max_records](const xdrs::net::Packet& pkt) {
        ++packets;
        if (out.stream.size() < max_records) {
          out.stream.push_back(PacketRecord{pkt.src, pkt.dst,
                                            static_cast<std::int32_t>(pkt.size_bytes)});
        }
      };
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < generators.size(); ++i) {
        if (transforms[i]) {
          generators[i]->start(
              sim,
              [&record, &t = transforms[i]](const xdrs::net::Packet& pkt) {
                xdrs::net::Packet q = pkt;
                t(q);
                record(q);
              },
              horizon);
        } else {
          generators[i]->start(sim, record, horizon);
        }
      }
      sim.run_until(horizon);
      total_ns += ns_since(t0);
      out.packets += packets;
    }
  }
  out.ns_per_packet = out.packets == 0 ? 0.0 : total_ns / static_cast<double>(out.packets);
  return out;
}

double replay_voq(const std::vector<PacketRecord>& stream, std::uint32_t ports,
                  std::size_t backlog) {
  if (stream.empty() || ports == 0) return 0.0;
  xdrs::queueing::VoqBank bank{ports, ports};
  std::uint64_t transitions = 0;
  bank.set_status_callback(
      [&transitions](xdrs::net::PortId, xdrs::net::PortId, xdrs::queueing::VoqStatus) {
        ++transitions;
      });
  std::uint64_t dequeued = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    xdrs::net::Packet p;
    p.id = i + 1;
    p.src = stream[i].src;
    p.dst = stream[i].dst;
    p.size_bytes = stream[i].bytes;
    bank.enqueue(p.src, p);
    if (i >= backlog) {
      const PacketRecord& head = stream[i - backlog];
      if (bank.dequeue(head.src, head.dst)) ++dequeued;
    }
  }
  const std::size_t first_left = stream.size() > backlog ? stream.size() - backlog : 0;
  for (std::size_t i = first_left; i < stream.size(); ++i) {
    if (bank.dequeue(stream[i].src, stream[i].dst)) ++dequeued;
  }
  const double ns = ns_since(t0);
  if (dequeued != stream.size() || bank.total_packets() != 0) {
    throw std::runtime_error{"replay_voq: stream did not drain"};
  }
  return ns / static_cast<double>(stream.size());
}

}  // namespace perfbench
