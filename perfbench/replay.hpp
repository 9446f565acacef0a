// Per-layer replays: each times one layer through its public functions,
// outside the framework, at the sizes a workload drives it with.  Nothing
// here adds spans to the simulator itself.
#ifndef XDRS_PERFBENCH_REPLAY_HPP
#define XDRS_PERFBENCH_REPLAY_HPP

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "exp/scenario.hpp"

namespace perfbench {

/// One generated packet, as much of it as the VOQ replay needs.
struct PacketRecord {
  std::uint32_t src{0};
  std::uint32_t dst{0};
  std::int32_t bytes{0};
};

/// Nanoseconds per executed event of a bare sim::Simulator kept at
/// `depth` pending events, each handler rescheduling itself with a
/// framework-sized capture, until `events` have executed.
[[nodiscard]] double replay_event_queue(std::uint64_t events, std::size_t depth,
                                        std::uint64_t seed);

struct TrafficReplay {
  std::uint64_t packets{0};
  double ns_per_packet{0.0};
  /// The generated stream, capped at `max_records` (the VOQ replay input).
  std::vector<PacketRecord> stream;
  std::uint32_t ports{0};  ///< widest VOQ port count (host + uplink ports) among the specs
};

/// Starts each spec's traffic generators on a bare Simulator, per rack,
/// into a counting sink that records the stream, and runs them to the
/// spec's horizon.  Generators are built as topo::attach_workload() builds
/// them, with materialize_fat_tree()'s per-rack seeds and placement on
/// multi-rack specs.  Throws std::invalid_argument for workload kinds whose
/// generators it does not reproduce (on/off, incast, trace replay).
[[nodiscard]] TrafficReplay replay_generators(const std::vector<xdrs::exp::ScenarioSpec>& specs,
                                              std::size_t max_records);

/// Nanoseconds per packet to enqueue `stream` into a queueing::VoqBank of
/// `ports` x `ports` and dequeue it again, holding about `backlog` packets.
[[nodiscard]] double replay_voq(const std::vector<PacketRecord>& stream, std::uint32_t ports,
                                std::size_t backlog);

}  // namespace perfbench

#endif  // XDRS_PERFBENCH_REPLAY_HPP
