// Tests for the extension features: wavefront arbitration, EPS strict
// priority, incast traffic, OCS retune-failure injection, the distributed
// timing model, and per-class reporting.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/framework.hpp"
#include "schedulers/policy_registry.hpp"
#include "schedulers/wavefront.hpp"
#include "topo/fat_tree.hpp"
#include "topo/testbed.hpp"
#include "traffic/generators.hpp"

namespace xdrs {
namespace {

using sim::Time;
using namespace xdrs::sim::literals;

// ------------------------------------------------------------- wavefront

demand::DemandMatrix full_demand(std::uint32_t n, std::int64_t v = 100) {
  demand::DemandMatrix m{n};
  for (net::PortId i = 0; i < n; ++i) {
    for (net::PortId j = 0; j < n; ++j) m.set(i, j, v);
  }
  return m;
}

TEST(Wavefront, PerfectMatchingOnFullDemand) {
  schedulers::WavefrontMatcher w{8};
  EXPECT_TRUE(w.compute(full_demand(8)).is_perfect());
  EXPECT_EQ(w.last_iterations(), 8u);
  EXPECT_TRUE(w.hardware_parallel());
}

TEST(Wavefront, IsMaximal) {
  schedulers::WavefrontMatcher w{8};
  sim::Rng rng{3};
  for (int round = 0; round < 30; ++round) {
    demand::DemandMatrix d{8};
    for (net::PortId i = 0; i < 8; ++i) {
      for (net::PortId j = 0; j < 8; ++j) {
        if (rng.bernoulli(0.4)) {
          d.set(i, j, rng.uniform_int(1, 1000));
        }
      }
    }
    const schedulers::Matching m = w.compute(d);
    // No augmenting single edge: every unmatched demand pair has a busy
    // endpoint.
    for (net::PortId i = 0; i < 8; ++i) {
      if (m.input_matched(i)) continue;
      for (net::PortId j = 0; j < 8; ++j) {
        if (d.at(i, j) > 0) {
          EXPECT_TRUE(m.output_matched(j));
        }
      }
    }
    m.for_each_pair([&](net::PortId i, net::PortId j) { EXPECT_GT(d.at(i, j), 0); });
  }
}

TEST(Wavefront, RotatingPriorityIsFair) {
  // Persistent full demand: across N invocations, every pair must be
  // served at least once (the priority diagonal rotates through all N).
  constexpr std::uint32_t kPorts = 4;
  schedulers::WavefrontMatcher w{kPorts};
  const auto d = full_demand(kPorts);
  std::vector<int> served(kPorts * kPorts, 0);
  for (std::uint32_t round = 0; round < kPorts; ++round) {
    w.compute(d).for_each_pair(
        [&](net::PortId i, net::PortId j) { ++served[i * kPorts + j]; });
  }
  for (const int s : served) EXPECT_GE(s, 1);
}

TEST(Wavefront, FactorySpec) {
  auto m = schedulers::PolicyRegistry::instance().make_matcher("wavefront", {.ports = 8});
  EXPECT_EQ(m->name(), "wavefront");
  EXPECT_TRUE(m->compute(full_demand(8)).is_perfect());
}

TEST(Wavefront, DimensionMismatchThrows) {
  schedulers::WavefrontMatcher w{4};
  EXPECT_THROW((void)w.compute(demand::DemandMatrix{5}), std::invalid_argument);
}

// ------------------------------------------------------ EPS strict priority

net::Packet eps_pkt(net::PortId dst, std::int64_t bytes, net::TrafficClass tc,
                    std::uint64_t id) {
  net::Packet p;
  p.id = id;
  p.dst = dst;
  p.size_bytes = bytes;
  p.tclass = tc;
  return p;
}

TEST(EpsPriority, LatencySensitiveOvertakesBacklog) {
  sim::Simulator sim;
  switching::EpsConfig c;
  c.ports = 2;
  c.port_rate = sim::DataRate::gbps(10);
  c.strict_priority = true;
  switching::ElectricalPacketSwitch eps{sim, c};
  std::vector<std::uint64_t> order;
  eps.set_deliver_callback([&](const net::Packet& p, net::PortId) { order.push_back(p.id); });

  (void)eps.send(eps_pkt(0, 1500, net::TrafficClass::kBestEffort, 1));  // on the wire
  (void)eps.send(eps_pkt(0, 1500, net::TrafficClass::kBestEffort, 2));
  (void)eps.send(eps_pkt(0, 200, net::TrafficClass::kLatencySensitive, 3));
  sim.run();
  // Packet 1 is non-preemptible, but 3 overtakes 2.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 2}));
  EXPECT_EQ(eps.stats().priority_packets_delivered, 1u);
}

TEST(EpsPriority, DisabledKeepsFifo) {
  sim::Simulator sim;
  switching::EpsConfig c;
  c.ports = 2;
  c.port_rate = sim::DataRate::gbps(10);
  c.strict_priority = false;
  switching::ElectricalPacketSwitch eps{sim, c};
  std::vector<std::uint64_t> order;
  eps.set_deliver_callback([&](const net::Packet& p, net::PortId) { order.push_back(p.id); });
  (void)eps.send(eps_pkt(0, 1500, net::TrafficClass::kBestEffort, 1));
  (void)eps.send(eps_pkt(0, 200, net::TrafficClass::kLatencySensitive, 2));
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(eps.stats().priority_packets_delivered, 0u);
}

TEST(EpsPriority, QueueAccountingSpansBothQueues) {
  sim::Simulator sim;
  switching::EpsConfig c;
  c.ports = 2;
  c.port_rate = sim::DataRate::gbps(10);
  c.strict_priority = true;
  switching::ElectricalPacketSwitch eps{sim, c};
  (void)eps.send(eps_pkt(0, 1000, net::TrafficClass::kBestEffort, 1));
  (void)eps.send(eps_pkt(0, 500, net::TrafficClass::kLatencySensitive, 2));
  EXPECT_EQ(eps.queue_bytes(0), 1500);
  EXPECT_EQ(eps.queue_packets(0), 2u);
}

TEST(EpsPriority, FrameworkReducesVoipTailUnderLoad) {
  const auto run_with = [](bool prio) {
    core::FrameworkConfig c;
    c.ports = 4;
    c.discipline = core::SchedulingDiscipline::kHybridEpoch;
    c.epoch = 100_us;
    c.ocs_reconfig = 1_us;
    c.eps_rate = sim::DataRate::gbps(1);  // congested electrical path
    c.eps_strict_priority = prio;
    topo::FatTree ft{{}, c};
    core::HybridSwitchFramework& fw = ft.rack(0);
    fw.use_default_policies();
    topo::attach_voip(fw, 2, 20_us, 200);
    topo::WorkloadSpec bg;
    bg.load = 0.2;
    bg.seed = 9;
    topo::attach_workload(fw, bg);
    return ft.run(5_ms, 1_ms);
  };
  const core::RunReport without = run_with(false);
  const core::RunReport with = run_with(true);
  ASSERT_GT(with.latency_sensitive.count(), 0u);
  EXPECT_LT(with.latency_sensitive.quantile(0.99), without.latency_sensitive.quantile(0.99));
}

// ------------------------------------------------------------------ incast

TEST(Incast, ValidatesConfig) {
  traffic::IncastGenerator::Config c;
  c.ports = 1;
  c.line_rate = sim::DataRate::gbps(10);
  EXPECT_THROW(traffic::IncastGenerator{c}, std::invalid_argument);
  c.ports = 8;
  c.fan_in = 8;  // more than the 7 workers
  EXPECT_THROW(traffic::IncastGenerator{c}, std::invalid_argument);
}

TEST(Incast, AllPacketsTargetAggregator) {
  sim::Simulator sim;
  traffic::IncastGenerator::Config c;
  c.aggregator = 3;
  c.ports = 8;
  c.response_bytes = 10'000;
  c.period = 500_us;
  c.line_rate = sim::DataRate::gbps(10);
  traffic::IncastGenerator g{c};
  g.start(sim, [&](const net::Packet& p) {
    EXPECT_EQ(p.dst, 3u);
    EXPECT_NE(p.src, 3u);
  }, 2_ms);
  sim.run();
  EXPECT_EQ(g.rounds(), 4u);
  // 4 rounds x 7 workers x 10 KB.
  EXPECT_EQ(g.stats().bytes, 4 * 7 * 10'000);
}

TEST(Incast, FanInLimitsWorkersPerRound) {
  sim::Simulator sim;
  traffic::IncastGenerator::Config c;
  c.aggregator = 0;
  c.ports = 8;
  c.fan_in = 3;
  c.response_bytes = 1500;
  c.period = 100_us;
  c.line_rate = sim::DataRate::gbps(10);
  traffic::IncastGenerator g{c};
  std::vector<net::PortId> sources;
  g.start(sim, [&](const net::Packet& p) { sources.push_back(p.src); }, 99_us);
  sim.run();
  EXPECT_EQ(sources.size(), 3u);  // one round, one packet per worker
}

TEST(Incast, DrivesManyToOneContention) {
  core::FrameworkConfig c;
  c.ports = 8;
  c.discipline = core::SchedulingDiscipline::kHybridEpoch;
  c.epoch = 100_us;
  c.ocs_reconfig = 1_us;
  topo::FatTree ft{{}, c};
  core::HybridSwitchFramework& fw = ft.rack(0);
  fw.use_default_policies();

  traffic::IncastGenerator::Config ic;
  ic.aggregator = 0;
  ic.ports = 8;
  ic.response_bytes = 50'000;
  ic.period = 1_ms;
  ic.line_rate = c.link_rate;
  fw.add_generator(std::make_unique<traffic::IncastGenerator>(ic));

  const core::RunReport r = ft.run(6_ms, 1_ms);
  EXPECT_GT(r.offered_packets, 0u);
  // Many-to-one is serviceable: the aggregator link is the bottleneck but
  // 7 x 50 KB per 1 ms fits 10 Gbps; the scheduler must time-share it.
  EXPECT_GT(r.delivery_ratio(), 0.85) << r.summary();
}

// -------------------------------------------------------- failure injection

TEST(OcsFailures, CertainFailureNeverEstablishes) {
  sim::Simulator sim;
  switching::OcsConfig c;
  c.ports = 2;
  c.port_rate = sim::DataRate::gbps(10);
  c.reconfig_time = 1_us;
  c.retune_failure_prob = 1.0;
  switching::OpticalCircuitSwitch ocs{sim, c};
  int configured = 0;
  ocs.set_configured_callback([&](const schedulers::Matching&) { ++configured; });
  ocs.reconfigure(schedulers::Matching::rotation(2, 1));
  sim.run_until(50_us);
  EXPECT_EQ(configured, 0);
  EXPECT_TRUE(ocs.is_dark());
  EXPECT_GE(ocs.stats().retune_failures, 10u);
}

TEST(OcsFailures, RetriesExtendDarkTime) {
  sim::Simulator sim;
  switching::OcsConfig c;
  c.ports = 2;
  c.port_rate = sim::DataRate::gbps(10);
  c.reconfig_time = 1_us;
  c.retune_failure_prob = 0.5;
  c.failure_seed = 7;
  switching::OpticalCircuitSwitch ocs{sim, c};
  int configured = 0;
  ocs.set_configured_callback([&](const schedulers::Matching&) { ++configured; });
  ocs.reconfigure(schedulers::Matching::rotation(2, 1));
  sim.run_until(1_ms);
  EXPECT_EQ(configured, 1);  // eventually succeeds
  EXPECT_EQ(ocs.stats().dark_time_total,
            Time::microseconds(1) * static_cast<std::int64_t>(1 + ocs.stats().retune_failures));
}

TEST(OcsFailures, InvalidProbabilityRejected) {
  sim::Simulator sim;
  switching::OcsConfig c;
  c.ports = 2;
  c.port_rate = sim::DataRate::gbps(10);
  c.retune_failure_prob = 1.5;
  EXPECT_THROW(switching::OpticalCircuitSwitch(sim, c), std::invalid_argument);
}

TEST(OcsFailures, FrameworkSurvivesFlakyOptics) {
  core::FrameworkConfig c;
  c.ports = 4;
  c.discipline = core::SchedulingDiscipline::kHybridEpoch;
  c.epoch = 100_us;
  c.ocs_reconfig = 1_us;
  c.ocs_failure_prob = 0.3;  // one in three retunes fails
  topo::FatTree ft{{}, c};
  core::HybridSwitchFramework& fw = ft.rack(0);
  fw.use_default_policies();
  topo::WorkloadSpec spec;
  spec.load = 0.3;
  topo::attach_workload(fw, spec);
  const core::RunReport r = ft.run(5_ms, 1_ms);
  EXPECT_GT(fw.ocs().stats().retune_failures, 0u);
  // Residual EPS grants keep traffic flowing despite flaky circuits.
  EXPECT_GT(r.delivery_ratio(), 0.8) << r.summary();
}

// ------------------------------------------------------- distributed timing

TEST(DistributedTiming, SitsBetweenCentralHardwareAndSoftware) {
  control::HardwareSchedulerTimingModel hw;
  control::DistributedSchedulerTimingModel dist;
  control::SoftwareSchedulerTimingModel sw;
  for (const std::uint32_t ports : {16u, 64u}) {
    const auto h = hw.decision_latency(ports, 4, true).total();
    const auto d = dist.decision_latency(ports, 4, true).total();
    const auto s = sw.decision_latency(ports, 4, true).total();
    EXPECT_GT(d, h) << ports;
    EXPECT_LT(d, s) << ports;
  }
}

TEST(DistributedTiming, MeshRoundTripsDominate) {
  control::DistributedTimingConfig cfg;
  cfg.hop_latency = 1_us;
  control::DistributedSchedulerTimingModel m{cfg};
  const auto b = m.decision_latency(16, 4, true);
  // 4 iterations x 2 hops x 1 us = 8 us of mesh time at minimum.
  EXPECT_GE(b.schedule_computation, 8_us);
}

TEST(DistributedTiming, SequentialAlgorithmsPayTokenRing) {
  control::DistributedSchedulerTimingModel m;
  const auto par = m.decision_latency(64, 4, true).schedule_computation;
  const auto seq = m.decision_latency(64, 4, false).schedule_computation;
  EXPECT_GT(seq, par);
}

// ---------------------------------------------------- per-class accounting

TEST(ClassAccounting, SplitsDeliveredBytesByClass) {
  core::FrameworkConfig c;
  c.ports = 4;
  c.discipline = core::SchedulingDiscipline::kHybridEpoch;
  c.epoch = 100_us;
  c.ocs_reconfig = 1_us;
  topo::FatTree ft{{}, c};
  core::HybridSwitchFramework& fw = ft.rack(0);
  fw.use_default_policies();
  topo::attach_voip(fw, 2, 20_us, 200);  // latency-sensitive
  topo::WorkloadSpec spec;               // best-effort DC mix
  spec.load = 0.2;
  topo::attach_workload(fw, spec);
  const core::RunReport r = ft.run(4_ms, 1_ms);

  const auto ls =
      r.class_bytes[static_cast<std::size_t>(net::TrafficClass::kLatencySensitive)];
  const auto be = r.class_bytes[static_cast<std::size_t>(net::TrafficClass::kBestEffort)];
  EXPECT_GT(ls, 0);
  EXPECT_GT(be, 0);
  EXPECT_EQ(ls + be + r.class_bytes[static_cast<std::size_t>(net::TrafficClass::kThroughput)],
            r.delivered_bytes);
}

}  // namespace
}  // namespace xdrs
