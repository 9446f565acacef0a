// Tests for destination patterns, size models and packet/flow generators.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "traffic/generators.hpp"
#include "traffic/patterns.hpp"

namespace xdrs::traffic {
namespace {

using sim::Time;
using namespace xdrs::sim::literals;

TEST(UniformChooser, NeverPicksSource) {
  UniformChooser c{8};
  sim::Rng rng{1};
  for (int i = 0; i < 10'000; ++i) {
    const net::PortId src = static_cast<net::PortId>(i % 8);
    EXPECT_NE(c.pick(rng, src), src);
  }
}

TEST(UniformChooser, CoversAllOtherPorts) {
  UniformChooser c{4};
  sim::Rng rng{2};
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 30'000;
  for (int i = 0; i < kDraws; ++i) ++counts[static_cast<std::size_t>(c.pick(rng, 0))];
  EXPECT_EQ(counts[0], 0);
  for (std::size_t j = 1; j < 4; ++j) EXPECT_NEAR(counts[j], kDraws / 3, kDraws / 30);
}

TEST(UniformChooser, RequiresTwoPorts) {
  EXPECT_THROW(UniformChooser{1}, std::invalid_argument);
}

TEST(PermutationChooser, FixedShift) {
  PermutationChooser c{4, 1};
  sim::Rng rng{3};
  EXPECT_EQ(c.pick(rng, 0), 1u);
  EXPECT_EQ(c.pick(rng, 3), 0u);
}

TEST(PermutationChooser, ZeroShiftCoercedToOne) {
  PermutationChooser c{4, 0};
  sim::Rng rng{4};
  EXPECT_EQ(c.pick(rng, 2), 3u);  // identity would self-send
}

TEST(HotspotChooser, RespectsHotFraction) {
  HotspotChooser c{8, 0, 0.5};
  sim::Rng rng{5};
  int hot = 0;
  constexpr int kDraws = 40'000;
  for (int i = 0; i < kDraws; ++i) hot += c.pick(rng, 3) == 0;
  // 0.5 direct + 0.5 * (1/7) via the uniform arm.
  EXPECT_NEAR(static_cast<double>(hot) / kDraws, 0.5 + 0.5 / 7.0, 0.01);
}

TEST(HotspotChooser, HotSourceFallsBackToUniform) {
  HotspotChooser c{4, 0, 1.0};
  sim::Rng rng{6};
  for (int i = 0; i < 100; ++i) EXPECT_NE(c.pick(rng, 0), 0u);
}

TEST(HotspotChooser, Validation) {
  EXPECT_THROW(HotspotChooser(4, 5, 0.5), std::invalid_argument);
  EXPECT_THROW(HotspotChooser(4, 0, 1.5), std::invalid_argument);
}

TEST(ZipfChooser, SkewConcentratesOnFirstRanks) {
  ZipfChooser c{8, 1.5};
  sim::Rng rng{7};
  std::vector<int> counts(8, 0);
  constexpr int kDraws = 40'000;
  for (int i = 0; i < kDraws; ++i) ++counts[c.pick(rng, 0)];
  EXPECT_EQ(counts[0], 0);           // never self
  EXPECT_GT(counts[1], counts[4]);   // rank 0 maps to port 1 for src 0
  EXPECT_GT(counts[1], kDraws / 3);  // heavily skewed
}

TEST(FixedSize, AlwaysSame) {
  FixedSize s{777};
  sim::Rng rng{8};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.sample(rng), 777);
  EXPECT_DOUBLE_EQ(s.mean_bytes(), 777.0);
  EXPECT_THROW(FixedSize{0}, std::invalid_argument);
}

TEST(BimodalSize, MixMatchesFraction) {
  BimodalSize s{0.75};
  sim::Rng rng{9};
  int small = 0;
  constexpr int kDraws = 40'000;
  for (int i = 0; i < kDraws; ++i) small += s.sample(rng) == sim::kMinFrameBytes;
  EXPECT_NEAR(static_cast<double>(small) / kDraws, 0.75, 0.01);
  EXPECT_NEAR(s.mean_bytes(), 0.75 * 64 + 0.25 * 1518, 1e-9);
}

TEST(DatacenterPacketMix, MeanMatchesSampledMean) {
  DatacenterPacketMix s;
  sim::Rng rng{10};
  double sum = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(s.sample(rng));
  EXPECT_NEAR(sum / kDraws, s.mean_bytes(), s.mean_bytes() * 0.02);
}

// ---------------------------------------------------------------- sources

PoissonGenerator::Config poisson_config(double load, std::uint64_t seed = 11) {
  PoissonGenerator::Config c;
  c.src = 0;
  c.line_rate = sim::DataRate::gbps(10);
  c.load = load;
  c.dest = std::make_shared<UniformChooser>(4);
  c.size = std::make_shared<FixedSize>(1500);
  c.seed = seed;
  return c;
}

TEST(PoissonGenerator, AchievesConfiguredLoad) {
  sim::Simulator sim;
  PoissonGenerator g{poisson_config(0.6)};
  std::int64_t bytes = 0;
  g.start(sim, [&](const net::Packet& p) { bytes += p.size_bytes + sim::kWireOverheadBytes; },
          10_ms);
  sim.run();
  const double achieved =
      static_cast<double>(bytes) * 8 / (10e9 * 0.010);  // bits over 10 ms at 10 G
  EXPECT_NEAR(achieved, 0.6, 0.05);
}

TEST(PoissonGenerator, ZeroLoadEmitsNothing) {
  sim::Simulator sim;
  PoissonGenerator g{poisson_config(0.0)};
  int n = 0;
  g.start(sim, [&](const net::Packet&) { ++n; }, 10_ms);
  sim.run();
  EXPECT_EQ(n, 0);
}

TEST(PoissonGenerator, DeterministicForSeed) {
  const auto run_once = [] {
    sim::Simulator sim;
    PoissonGenerator g{poisson_config(0.5, 77)};
    std::vector<std::int64_t> stamps;
    g.start(sim, [&](const net::Packet&) { stamps.push_back(sim.now().ps()); }, 1_ms);
    sim.run();
    return stamps;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(PoissonGenerator, PacketsCarryMetadata) {
  sim::Simulator sim;
  PoissonGenerator g{poisson_config(0.5)};
  g.start(sim,
          [&](const net::Packet& p) {
            EXPECT_EQ(p.src, 0u);
            EXPECT_NE(p.dst, 0u);
            EXPECT_EQ(p.size_bytes, 1500);
            EXPECT_EQ(p.created_at, sim.now());
            EXPECT_GT(p.id, 0u);
          },
          100_us);
  sim.run();
  EXPECT_GT(g.stats().packets, 0u);
}

TEST(PoissonGenerator, Validation) {
  auto c = poisson_config(0.5);
  c.load = 1.5;
  EXPECT_THROW(PoissonGenerator{c}, std::invalid_argument);
  c = poisson_config(0.5);
  c.dest = nullptr;
  EXPECT_THROW(PoissonGenerator{c}, std::invalid_argument);
  c = poisson_config(0.5);
  c.line_rate = sim::DataRate{};
  EXPECT_THROW(PoissonGenerator{c}, std::invalid_argument);
}

TEST(OnOffGenerator, BurstsAtLineRateDuringOn) {
  sim::Simulator sim;
  OnOffGenerator::Config c;
  c.src = 0;
  c.line_rate = sim::DataRate::gbps(10);
  c.mean_on = 50_us;
  c.mean_off = 50_us;
  c.dest = std::make_shared<UniformChooser>(4);
  c.size = std::make_shared<FixedSize>(1500);
  c.seed = 13;
  OnOffGenerator g{c};

  std::vector<std::int64_t> stamps;
  g.start(sim, [&](const net::Packet&) { stamps.push_back(sim.now().ps()); }, 2_ms);
  sim.run();
  ASSERT_GT(stamps.size(), 10u);
  // Within a burst, packets are back-to-back: gap == serialisation time.
  const std::int64_t tx = sim::DataRate::gbps(10).transmission_time(1520).ps();
  int back_to_back = 0;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    if (stamps[i] - stamps[i - 1] == tx) ++back_to_back;
  }
  EXPECT_GT(back_to_back, static_cast<int>(stamps.size()) / 2);
}

TEST(OnOffGenerator, OneDestinationPerBurst) {
  sim::Simulator sim;
  OnOffGenerator::Config c;
  c.src = 0;
  c.line_rate = sim::DataRate::gbps(10);
  c.mean_on = 20_us;
  c.mean_off = 20_us;
  c.dest = std::make_shared<UniformChooser>(8);
  c.size = std::make_shared<FixedSize>(1500);
  c.seed = 17;
  OnOffGenerator g{c};
  std::vector<net::Packet> pkts;
  g.start(sim, [&](const net::Packet& p) { pkts.push_back(p); }, 1_ms);
  sim.run();
  ASSERT_GT(pkts.size(), 4u);
  for (std::size_t i = 1; i < pkts.size(); ++i) {
    if (pkts[i].flow == pkts[i - 1].flow) {
      EXPECT_EQ(pkts[i].dst, pkts[i - 1].dst);
    }
  }
}

TEST(OnOffGenerator, RejectsHeavyTailWithInfiniteMean) {
  OnOffGenerator::Config c;
  c.src = 0;
  c.line_rate = sim::DataRate::gbps(10);
  c.dest = std::make_shared<UniformChooser>(4);
  c.size = std::make_shared<FixedSize>(1500);
  c.pareto_shape = 0.9;
  EXPECT_THROW(OnOffGenerator{c}, std::invalid_argument);
}

TEST(CbrGenerator, ExactPeriodAndCount) {
  sim::Simulator sim;
  CbrGenerator::Config c;
  c.src = 0;
  c.dst = 1;
  c.packet_bytes = 200;
  c.period = 20_us;
  CbrGenerator g{c};
  std::vector<std::int64_t> stamps;
  g.start(sim, [&](const net::Packet& p) {
    stamps.push_back(sim.now().ps());
    EXPECT_EQ(p.tclass, net::TrafficClass::kLatencySensitive);
  }, 1_ms);
  sim.run();
  ASSERT_EQ(stamps.size(), 50u);  // 1 ms / 20 us
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_EQ(stamps[i] - stamps[i - 1], (20_us).ps());
  }
}

TEST(CbrGenerator, PhaseOffsetsFirstPacket) {
  sim::Simulator sim;
  CbrGenerator::Config c;
  c.src = 0;
  c.dst = 1;
  c.period = 20_us;
  c.phase = 7_us;
  CbrGenerator g{c};
  std::int64_t first = -1;
  g.start(sim, [&](const net::Packet&) { if (first < 0) first = sim.now().ps(); }, 100_us);
  sim.run();
  EXPECT_EQ(first, (7_us).ps());
}

TEST(CbrGenerator, Validation) {
  CbrGenerator::Config c;
  c.src = 0;
  c.dst = 0;
  EXPECT_THROW(CbrGenerator{c}, std::invalid_argument);
}

TEST(FlowGenerator, GeneratesFlowsWithConsistentIds) {
  sim::Simulator sim;
  FlowGenerator::Config c;
  c.src = 2;
  c.line_rate = sim::DataRate::gbps(10);
  c.load = 0.5;
  c.elephant_fraction = 0.05;  // mostly mice: many flows per millisecond
  c.dest = std::make_shared<UniformChooser>(4);
  c.seed = 19;
  FlowGenerator g{c};
  std::vector<net::Packet> pkts;
  g.start(sim, [&](const net::Packet& p) { pkts.push_back(p); }, 10_ms);
  sim.run();
  ASSERT_GT(g.flows_started(), 1u);
  // All packets of one flow share src and dst.
  for (std::size_t i = 1; i < pkts.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (pkts[i].flow == pkts[j].flow) {
        EXPECT_EQ(pkts[i].dst, pkts[j].dst);
      }
    }
    if (i > 50) break;  // bounded quadratic check
  }
}

TEST(FlowGenerator, SchedulesNoEventAfterAFlowsLastPacket) {
  // Each packet after a flow's first costs one event; a finished flow costs
  // none more, and a flow the horizon cuts short one that sends nothing.
  sim::Simulator sim;
  FlowGenerator::Config c;
  c.src = 1;
  c.line_rate = sim::DataRate::gbps(10);
  c.load = 0.5;
  c.elephant_fraction = 0.05;
  c.dest = std::make_shared<UniformChooser>(4);
  c.seed = 29;
  FlowGenerator g{c};
  std::map<net::FlowId, std::pair<std::int64_t, std::int64_t>> sent;  // flow -> (sent, size)
  std::uint64_t packets = 0;
  g.start(
      sim,
      [&](const net::Packet& p) {
        ++packets;
        auto& [bytes, size] = sent[p.flow];
        bytes += p.size_bytes;
        size = p.flow_bytes;
      },
      5_ms);
  sim.run();
  ASSERT_EQ(sent.size(), g.flows_started());
  std::uint64_t cut_short = 0;
  for (const auto& [flow, bytes_size] : sent) {
    if (bytes_size.first < bytes_size.second) ++cut_short;
  }
  ASSERT_GT(sent.size(), cut_short);  // some flows finish
  EXPECT_EQ(sim.stats().events_executed, packets + cut_short);
}

TEST(FlowGenerator, ApproximatesConfiguredLoad) {
  sim::Simulator sim;
  FlowGenerator::Config c;
  c.src = 0;
  c.line_rate = sim::DataRate::gbps(10);
  c.load = 0.4;
  c.dest = std::make_shared<UniformChooser>(4);
  c.seed = 23;
  FlowGenerator g{c};
  std::int64_t bytes = 0;
  g.start(sim, [&](const net::Packet& p) { bytes += p.size_bytes; }, 20_ms);
  sim.run();
  const double achieved = static_cast<double>(bytes) * 8 / (10e9 * 0.020);
  // Flow-level load with heavy-tailed sizes converges slowly; wide bounds.
  EXPECT_GT(achieved, 0.15);
  EXPECT_LT(achieved, 0.8);
}

TEST(FlowGenerator, Validation) {
  FlowGenerator::Config c;
  c.src = 0;
  c.line_rate = sim::DataRate::gbps(10);
  c.dest = std::make_shared<UniformChooser>(4);
  c.elephant_shape = 1.0;
  EXPECT_THROW(FlowGenerator{c}, std::invalid_argument);
}

}  // namespace
}  // namespace xdrs::traffic
