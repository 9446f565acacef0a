// Packet and flow sources.
//
// Each generator drives one ingress port of the hybrid switch, scheduling
// itself on the simulator and handing finished packets to a sink (the
// framework's processing logic).  All randomness flows from an explicit
// seed; identical configurations replay identical workloads.
#ifndef XDRS_TRAFFIC_GENERATORS_HPP
#define XDRS_TRAFFIC_GENERATORS_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "traffic/deadline.hpp"
#include "traffic/patterns.hpp"

namespace xdrs::traffic {

struct GeneratorStats {
  std::uint64_t packets{0};
  std::int64_t bytes{0};
};

class TrafficGenerator {
 public:
  using Sink = std::function<void(const net::Packet&)>;

  virtual ~TrafficGenerator() = default;

  /// Begins emitting packets into `sink` until `horizon` (exclusive).
  virtual void start(sim::Simulator& sim, Sink sink, sim::Time horizon) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] const GeneratorStats& stats() const noexcept { return stats_; }

 protected:
  net::Packet make_packet(net::PortId src, net::PortId dst, std::int64_t bytes, sim::Time now);

  GeneratorStats stats_;

 private:
  std::uint64_t next_packet_id_{1};
};

/// Poisson packet arrivals at a target load (fraction of `line_rate`),
/// destinations and sizes from pluggable patterns.
class PoissonGenerator final : public TrafficGenerator {
 public:
  struct Config {
    net::PortId src{0};
    sim::DataRate line_rate{};
    double load{0.5};  ///< in [0, 1]; fraction of line rate offered
    std::shared_ptr<DestinationChooser> dest;
    std::shared_ptr<SizeDistribution> size;
    std::uint64_t seed{1};
  };

  explicit PoissonGenerator(Config cfg);

  void start(sim::Simulator& sim, Sink sink, sim::Time horizon) override;
  [[nodiscard]] std::string name() const override { return "poisson"; }

 private:
  void arm(sim::Simulator& sim, sim::Time horizon);

  Config cfg_;
  sim::Rng rng_;
  Sink sink_;
  double mean_gap_ps_{0.0};
};

/// Markov-modulated ON/OFF source: Pareto-distributed ON and OFF periods,
/// back-to-back packets at line rate while ON — "long bursts of traffic"
/// (paper §1), the workload OCS circuits exist to serve.
class OnOffGenerator final : public TrafficGenerator {
 public:
  struct Config {
    net::PortId src{0};
    sim::DataRate line_rate{};
    sim::Time mean_on{sim::Time::microseconds(100)};
    sim::Time mean_off{sim::Time::microseconds(100)};
    double pareto_shape{1.5};  ///< heavy-tailed periods for shape <= 2
    std::shared_ptr<DestinationChooser> dest;
    std::shared_ptr<SizeDistribution> size;
    bool new_dest_per_burst{true};  ///< one destination per burst (a "flow")
    std::uint64_t seed{1};
  };

  explicit OnOffGenerator(Config cfg);

  void start(sim::Simulator& sim, Sink sink, sim::Time horizon) override;
  [[nodiscard]] std::string name() const override { return "onoff-pareto"; }

 private:
  void begin_burst(sim::Simulator& sim, sim::Time horizon);
  void emit(sim::Simulator& sim, sim::Time horizon);

  Config cfg_;
  sim::Rng rng_;
  Sink sink_;
  net::PortId burst_dst_{0};
  sim::Time burst_end_{};
  std::uint64_t flow_seq_{0};
};

/// Constant-bit-rate source with fixed packet size and period: G.711-style
/// VOIP (160 B payload every 20 ms scaled down to simulation horizons) or
/// gaming update streams.  Latency-sensitive class by construction.
class CbrGenerator final : public TrafficGenerator {
 public:
  struct Config {
    net::PortId src{0};
    net::PortId dst{0};
    std::int64_t packet_bytes{200};
    sim::Time period{sim::Time::microseconds(20)};
    sim::Time phase{};  ///< offset of the first packet
    std::uint64_t seed{1};
  };

  explicit CbrGenerator(Config cfg);

  void start(sim::Simulator& sim, Sink sink, sim::Time horizon) override;
  [[nodiscard]] std::string name() const override { return "cbr"; }

 private:
  void emit(sim::Simulator& sim, sim::Time horizon);

  Config cfg_;
  Sink sink_;
};

/// Flow-level source: flows arrive as a Poisson process; each flow draws a
/// size from a mice/elephant mixture — or from an explicit SizeDistribution
/// (e.g. an empirical websearch/datamining CDF) — and streams it at the
/// host NIC rate.  This is the workload the hybrid split experiment (E5)
/// sweeps.
class FlowGenerator final : public TrafficGenerator {
 public:
  struct Config {
    net::PortId src{0};
    sim::DataRate line_rate{};
    double load{0.5};
    /// Mice: short flows; elephants: Pareto-tailed long flows.
    std::int64_t mice_mean_bytes{20'000};
    std::int64_t elephant_min_bytes{1'000'000};
    double elephant_shape{1.2};
    double elephant_fraction{0.1};  ///< of flows (by count)
    /// Optional flow-size model replacing the mixture above: when set,
    /// every flow size is one sample() and elephant_min_bytes only decides
    /// the traffic-class marking.  traffic::EmpiricalSize plugs in here.
    std::shared_ptr<SizeDistribution> size;
    std::int64_t packet_bytes{sim::kMaxFrameBytes};
    std::shared_ptr<DestinationChooser> dest;
    /// Optional deadline model; every flow's deadline is stamped on all of
    /// its packets.  kNone replays the pre-deadline packet sequence exactly
    /// (the assigner draws from its own rng stream).
    DeadlineSpec deadline{};
    std::uint64_t seed{1};
  };

  explicit FlowGenerator(Config cfg);

  void start(sim::Simulator& sim, Sink sink, sim::Time horizon) override;
  [[nodiscard]] std::string name() const override { return "flows"; }

  [[nodiscard]] std::uint64_t flows_started() const noexcept { return flow_seq_; }

 private:
  void next_flow(sim::Simulator& sim, sim::Time horizon);
  void stream(sim::Simulator& sim, sim::Time horizon, net::PortId dst, std::int64_t remaining,
              net::FlowId flow, bool elephant, std::int64_t flow_bytes, sim::Time deadline);
  [[nodiscard]] double mean_flow_bytes() const;

  Config cfg_;
  sim::Rng rng_;
  DeadlineAssigner deadline_;
  Sink sink_;
  std::uint64_t flow_seq_{0};
};

/// Incast: the partition/aggregate pattern — every `period`, `fan_in`
/// workers simultaneously stream a `response_bytes` answer to the same
/// aggregator port, all paced at line rate.  The hardest case for an
/// input-queued hybrid switch: instant many-to-one contention.
class IncastGenerator final : public TrafficGenerator {
 public:
  struct Config {
    net::PortId aggregator{0};
    std::uint32_t ports{0};          ///< switch size; workers = other ports
    std::uint32_t fan_in{0};         ///< workers per round (0 = all others)
    std::int64_t response_bytes{64'000};
    std::int64_t packet_bytes{sim::kMaxFrameBytes};
    sim::Time period{sim::Time::milliseconds(1)};
    sim::DataRate line_rate{};
    /// Optional per-request SLO: each worker's response flow gets a deadline
    /// relative to the round's fire time (rpc_slo scenario).
    DeadlineSpec deadline{};
    std::uint64_t seed{1};
  };

  explicit IncastGenerator(Config cfg);

  void start(sim::Simulator& sim, Sink sink, sim::Time horizon) override;
  [[nodiscard]] std::string name() const override { return "incast"; }

  [[nodiscard]] std::uint64_t rounds() const noexcept { return round_; }

 private:
  void fire_round(sim::Simulator& sim, sim::Time horizon);
  void stream(sim::Simulator& sim, sim::Time horizon, net::PortId worker,
              std::int64_t remaining, net::FlowId flow, sim::Time deadline);

  Config cfg_;
  sim::Rng rng_;
  DeadlineAssigner deadline_;
  Sink sink_;
  std::uint64_t round_{0};
};

}  // namespace xdrs::traffic

#endif  // XDRS_TRAFFIC_GENERATORS_HPP
