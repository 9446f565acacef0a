// Tests for the SDN layer: flow install/modify/remove, per-flow counters,
// the SERENA matcher, and the elephant-pinning reactive application.
#include <gtest/gtest.h>

#include <memory>

#include "control/sdn.hpp"
#include "core/framework.hpp"
#include "schedulers/policy_registry.hpp"
#include "schedulers/hungarian.hpp"
#include "schedulers/serena.hpp"
#include "topo/fat_tree.hpp"
#include "topo/testbed.hpp"

namespace xdrs {
namespace {

using sim::Time;
using namespace xdrs::sim::literals;

net::Packet classified_packet(std::uint32_t src_addr, std::uint32_t dst_addr,
                              std::int64_t bytes = 1000) {
  net::Packet p;
  p.size_bytes = bytes;
  p.tuple.src_addr = src_addr;
  p.tuple.dst_addr = dst_addr;
  return p;
}

// --------------------------------------------------------------- controller

TEST(SdnController, InstallAssignsUniqueIds) {
  net::Classifier cl;
  control::SdnController sdn{cl};
  const auto a = sdn.install(net::Rule{});
  const auto b = sdn.install(net::Rule{});
  EXPECT_NE(a, b);
  EXPECT_EQ(sdn.installed_flows(), 2u);
  EXPECT_EQ(cl.rule_count(), 2u);
}

TEST(SdnController, RemoveDeletesRule) {
  net::Classifier cl;
  control::SdnController sdn{cl};
  net::Rule r;
  r.dst_addr_value = 5;
  r.dst_addr_mask = 0xffffffff;
  r.verdict = net::Verdict{3, net::TrafficClass::kThroughput};
  const auto id = sdn.install(r);

  EXPECT_EQ(cl.classify(classified_packet(1, 5), {}).out_port, 3u);
  EXPECT_TRUE(sdn.remove(id));
  EXPECT_EQ(cl.classify(classified_packet(1, 5), net::Verdict{9, {}}).out_port, 9u);
  EXPECT_FALSE(sdn.remove(id));  // already gone
  EXPECT_EQ(sdn.installed_flows(), 0u);
}

TEST(SdnController, FlowStatsCountMatches) {
  net::Classifier cl;
  control::SdnController sdn{cl};
  net::Rule r;
  r.dst_addr_value = 7;
  r.dst_addr_mask = 0xffffffff;
  const auto id = sdn.install(r);

  (void)cl.classify(classified_packet(1, 7, 100), {});
  (void)cl.classify(classified_packet(1, 7, 200), {});  // same flow, counted again
  (void)cl.classify(classified_packet(1, 8, 400), {});  // different flow, no match

  const net::RuleCounters c = sdn.flow_stats(id);
  EXPECT_EQ(c.packets, 2u);
  EXPECT_EQ(c.bytes, 300);
}

TEST(SdnController, ModifyKeepsIdentityAndCounters) {
  net::Classifier cl;
  control::SdnController sdn{cl};
  net::Rule r;
  r.dst_addr_value = 7;
  r.dst_addr_mask = 0xffffffff;
  r.verdict = net::Verdict{1, net::TrafficClass::kBestEffort};
  const auto id = sdn.install(r);
  (void)cl.classify(classified_packet(1, 7, 100), {});

  net::Rule updated = r;
  updated.verdict = net::Verdict{2, net::TrafficClass::kThroughput};
  EXPECT_TRUE(sdn.modify(id, updated));
  EXPECT_EQ(cl.classify(classified_packet(1, 7, 50), {}).out_port, 2u);
  EXPECT_EQ(sdn.flow_stats(id).packets, 2u);  // counters survived
  EXPECT_EQ(sdn.installed_flows(), 1u);
}

TEST(SdnController, UnknownFlowOperationsFail) {
  net::Classifier cl;
  control::SdnController sdn{cl};
  EXPECT_FALSE(sdn.remove(42));
  EXPECT_FALSE(sdn.modify(42, net::Rule{}));
  EXPECT_EQ(sdn.flow_stats(42).packets, 0u);
}

TEST(Classifier, RemoveRuleById) {
  net::Classifier cl;
  net::Rule r;
  r.id = 77;
  cl.add_rule(r);
  cl.add_rule(r);  // two rules sharing an id
  EXPECT_EQ(cl.remove_rule(77), 2u);
  EXPECT_EQ(cl.remove_rule(77), 0u);
}

// ------------------------------------------------------------------ SERENA

demand::DemandMatrix random_demand(std::uint32_t n, sim::Rng& rng, double density) {
  demand::DemandMatrix m{n};
  for (net::PortId i = 0; i < n; ++i) {
    for (net::PortId j = 0; j < n; ++j) {
      if (rng.bernoulli(density)) m.set(i, j, rng.uniform_int(1, 10'000));
    }
  }
  return m;
}

TEST(Serena, RespectsDemandAndConflictFreedom) {
  schedulers::SerenaMatcher s{8, 5};
  sim::Rng rng{31};
  for (int round = 0; round < 30; ++round) {
    const auto d = random_demand(8, rng, 0.4);
    const schedulers::Matching m = s.compute(d);
    m.for_each_pair([&](net::PortId i, net::PortId j) { EXPECT_GT(d.at(i, j), 0); });
  }
}

TEST(Serena, WeightNeverBelowPreviousOnStaticDemand) {
  // The merge keeps the heavier side of every component, so on a fixed
  // demand matrix the carried weight is non-decreasing over slots.
  schedulers::SerenaMatcher s{8, 7};
  sim::Rng rng{33};
  const auto d = random_demand(8, rng, 0.6);
  std::int64_t prev = 0;
  for (int slot = 0; slot < 20; ++slot) {
    const auto m = s.compute(d);
    const std::int64_t w = schedulers::HungarianMatcher::matching_weight(m, d);
    EXPECT_GE(w, prev) << "slot " << slot;
    prev = w;
  }
}

TEST(Serena, ConvergesTowardsMaxWeight) {
  schedulers::SerenaMatcher s{6, 11};
  schedulers::HungarianMatcher exact;
  sim::Rng rng{35};
  const auto d = random_demand(6, rng, 0.7);
  const std::int64_t optimal =
      schedulers::HungarianMatcher::matching_weight(exact.compute(d), d);
  std::int64_t final_weight = 0;
  for (int slot = 0; slot < 50; ++slot) {
    final_weight = schedulers::HungarianMatcher::matching_weight(s.compute(d), d);
  }
  EXPECT_GE(final_weight * 10, optimal * 8);  // within 80% after settling
}

TEST(Serena, DropsDrainedPairs) {
  schedulers::SerenaMatcher s{4, 13};
  demand::DemandMatrix d{4};
  d.set(0, 1, 100);
  (void)s.compute(d);
  d.set(0, 1, 0);  // demand drained
  d.set(2, 3, 50);
  const auto m = s.compute(d);
  EXPECT_FALSE(m.output_of(0).has_value());
  EXPECT_EQ(m.output_of(2), 3u);
}

TEST(Serena, FactorySpec) {
  auto m = schedulers::PolicyRegistry::instance().make_matcher("serena", {.ports = 8, .seed = 3});
  EXPECT_EQ(m->name(), "serena");
  EXPECT_FALSE(m->hardware_parallel());
}

// ---------------------------------------------------------- elephant pinner

TEST(ElephantPinner, ValidatesConfig) {
  sim::Simulator sim;
  net::Classifier cl;
  control::SdnController sdn{cl};
  queueing::VoqBank voqs{2, 2};
  control::ElephantPinner::Config bad;
  bad.poll_period = Time::zero();
  EXPECT_THROW(control::ElephantPinner(sim, sdn, voqs, bad), std::invalid_argument);
  bad = {};
  bad.pin_threshold_bytes = 10;
  bad.unpin_threshold_bytes = 20;
  EXPECT_THROW(control::ElephantPinner(sim, sdn, voqs, bad), std::invalid_argument);
  bad = {};
  bad.rack = 256;
  EXPECT_THROW(control::ElephantPinner(sim, sdn, voqs, bad), std::invalid_argument);
}

TEST(ElephantPinner, PinsAndUnpinsWithHysteresis) {
  sim::Simulator sim;
  net::Classifier cl;
  control::SdnController sdn{cl};
  queueing::VoqBank voqs{2, 2};
  control::ElephantPinner::Config cfg;
  cfg.poll_period = 10_us;
  cfg.pin_threshold_bytes = 1000;
  cfg.unpin_threshold_bytes = 100;
  control::ElephantPinner pinner{sim, sdn, voqs, cfg};
  pinner.start(1_ms);

  // Build a backlog above the pin threshold.
  net::Packet p;
  p.src = 0;
  p.dst = 1;
  p.size_bytes = 1500;
  (void)voqs.enqueue(0, p);
  sim.run_until(15_us);
  EXPECT_EQ(pinner.pinned_pairs(), 1u);
  EXPECT_EQ(sdn.installed_flows(), 1u);

  // Between thresholds: stays pinned.
  (void)voqs.dequeue(0, 1);
  p.size_bytes = 500;
  (void)voqs.enqueue(0, p);
  sim.run_until(30_us);
  EXPECT_EQ(pinner.pinned_pairs(), 1u);

  // Drained below the unpin threshold: rule withdrawn.
  (void)voqs.dequeue(0, 1);
  sim.run_until(50_us);
  EXPECT_EQ(pinner.pinned_pairs(), 0u);
  EXPECT_EQ(sdn.installed_flows(), 0u);
  EXPECT_EQ(pinner.pin_events(), 1u);
  EXPECT_EQ(pinner.unpin_events(), 1u);
}

TEST(ElephantPinner, PinnedRuleRetargetsTrafficClass) {
  sim::Simulator sim;
  net::Classifier cl;
  control::SdnController sdn{cl};
  queueing::VoqBank voqs{2, 2};
  control::ElephantPinner pinner{sim, sdn, voqs,
                                 control::ElephantPinner::Config{10_us, 1000, 100}};
  pinner.start(100_us);
  net::Packet backlog;
  backlog.src = 0;
  backlog.dst = 1;
  backlog.size_bytes = 2000;
  (void)voqs.enqueue(0, backlog);
  sim.run_until(15_us);

  // A packet of the pinned pair now classifies as throughput class.
  net::Packet probe = classified_packet(0x0a000000u, 0x0a000001u);
  const net::Verdict v = cl.classify(probe, net::Verdict{1, net::TrafficClass::kBestEffort});
  EXPECT_EQ(v.tclass, net::TrafficClass::kThroughput);
  EXPECT_EQ(v.out_port, 1u);
}

TEST(ElephantPinner, RulesAddressTheirRacksHosts) {
  // On fat-tree rack 1 the generators address hosts as 10.1.0.0/16 + port:
  // the pin must match rack 1's pair, never rack 0's.
  sim::Simulator sim;
  net::Classifier cl;
  control::SdnController sdn{cl};
  queueing::VoqBank voqs{2, 2};
  control::ElephantPinner::Config cfg{10_us, 1000, 100};
  cfg.rack = 1;
  control::ElephantPinner pinner{sim, sdn, voqs, cfg};
  pinner.start(100_us);
  net::Packet backlog;
  backlog.src = 0;
  backlog.dst = 1;
  backlog.size_bytes = 2000;
  (void)voqs.enqueue(0, backlog);
  sim.run_until(15_us);
  ASSERT_EQ(pinner.pinned_pairs(), 1u);

  const net::Verdict fallback{1, net::TrafficClass::kBestEffort};
  net::Packet rack1 = classified_packet(0x0a010000u, 0x0a010001u);
  EXPECT_EQ(cl.classify(rack1, fallback).tclass, net::TrafficClass::kThroughput);
  net::Packet rack0 = classified_packet(0x0a000000u, 0x0a000001u);
  EXPECT_EQ(cl.classify(rack0, fallback).tclass, net::TrafficClass::kBestEffort);
}

TEST(ElephantPinner, EndToEndOnFramework) {
  // Run the pinner as an SDN app against a live framework: bursty traffic
  // must produce pin events and the pinned rules must accumulate counters.
  core::FrameworkConfig c;
  c.ports = 4;
  c.discipline = core::SchedulingDiscipline::kHybridEpoch;
  c.epoch = 100_us;
  c.ocs_reconfig = 1_us;
  topo::FatTree ft{{}, c};
  core::HybridSwitchFramework& fw = ft.rack(0);
  fw.use_default_policies();

  control::SdnController sdn{fw.classifier()};
  control::ElephantPinner pinner{fw.simulator(), sdn, fw.processing().voqs(),
                                 control::ElephantPinner::Config{50_us, 32'768, 1024}};
  pinner.start(8_ms);

  topo::WorkloadSpec bursts;
  bursts.kind = topo::WorkloadSpec::Kind::kOnOffBursts;
  bursts.mean_on = 100_us;
  bursts.mean_off = 100_us;
  bursts.seed = 3;
  topo::attach_workload(fw, bursts);

  const core::RunReport r = ft.run(8_ms, 1_ms);
  EXPECT_GT(pinner.pin_events(), 0u);
  EXPECT_GT(r.delivery_ratio(), 0.8);
  // At least one pinned flow saw traffic.
  std::uint64_t counted = 0;
  for (const auto id : sdn.flow_ids()) counted += sdn.flow_stats(id).packets;
  if (sdn.installed_flows() > 0) {
    EXPECT_GT(counted, 0u);
  }
}

}  // namespace
}  // namespace xdrs
