// Tests for the two-tier fat-tree: deterministic placement, single-rack
// degeneration to the single-switch run, the oversubscription property the
// topology exists to model, and sweep-level thread/shard invariance of the
// multi-rack path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/sdn.hpp"
#include "core/report_io.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "sim/time.hpp"
#include "topo/fat_tree.hpp"
#include "topo/testbed.hpp"
#include "traffic/generators.hpp"

namespace xdrs {
namespace {

using namespace sim::literals;
using exp::ScenarioSpec;
using exp::make_scenario;
using topo::Placement;
using topo::place_flow;
using topo::TopologySpec;

// ---- placement -------------------------------------------------------------

TEST(Placement, IsAPureFunctionOfItsArguments) {
  // Same inputs, same answer — placement carries no stream state, so the
  // host->rack assignment cannot depend on thread count, shard split or
  // call order.
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    const Placement a = place_flow(7, 1, 3, 5, flow, 0.5, 4, 8);
    const Placement b = place_flow(7, 1, 3, 5, flow, 0.5, 4, 8);
    EXPECT_EQ(a.remote, b.remote);
    EXPECT_EQ(a.dst_rack, b.dst_rack);
    EXPECT_EQ(a.uplink, b.uplink);
  }
}

TEST(Placement, LocalityExtremesAndRangeInvariants) {
  for (std::uint64_t flow = 0; flow < 256; ++flow) {
    // locality 1.0: nothing ever leaves the rack.
    EXPECT_FALSE(place_flow(7, 0, 1, 2, flow, 1.0, 4, 8).remote);
    // locality 0.0: everything leaves, to a DIFFERENT rack, on a valid
    // uplink.
    const Placement p = place_flow(7, 2, 1, 2, flow, 0.0, 4, 8);
    EXPECT_TRUE(p.remote);
    EXPECT_NE(p.dst_rack, 2u);
    EXPECT_LT(p.dst_rack, 4u);
    EXPECT_LT(p.uplink, 8u);
  }
}

TEST(Placement, LocalityFractionIsApproximatelyHonoured) {
  const double locality = 0.7;
  int local = 0;
  const int n = 4000;
  for (int flow = 0; flow < n; ++flow) {
    if (!place_flow(7, 1, 3, 5, static_cast<std::uint64_t>(flow), locality, 4, 8).remote) {
      ++local;
    }
  }
  EXPECT_NEAR(static_cast<double>(local) / n, locality, 0.03);
}

TEST(Placement, SeedAndLocalityChangeTheAssignment) {
  // Different seeds draw different assignments for at least some flows, and
  // the keep-local draw is monotone in locality: any flow local at 0.3
  // stays local at 0.9 (same hash, larger threshold).
  int differs = 0;
  for (std::uint64_t flow = 0; flow < 256; ++flow) {
    const Placement a = place_flow(7, 0, 1, 2, flow, 0.5, 4, 8);
    const Placement b = place_flow(8, 0, 1, 2, flow, 0.5, 4, 8);
    if (a.remote != b.remote || a.dst_rack != b.dst_rack) ++differs;
    if (!place_flow(7, 0, 1, 2, flow, 0.3, 4, 8).remote) {
      EXPECT_FALSE(place_flow(7, 0, 1, 2, flow, 0.9, 4, 8).remote);
    }
  }
  EXPECT_GT(differs, 0);
}

TEST(Placement, HashModMatchesTheRemainderForEveryPlacementDivisor) {
  // place_flow reduces by racks - 1 (racks 2-9) and by the uplink count
  // (1-33 covers ft2's 16 and powers of two either side); the mask path
  // must give exactly what % gives.
  std::mt19937_64 rng{2015};
  for (std::uint64_t n = 1; n <= 33; ++n) {
    for (int k = 0; k < 2000; ++k) {
      const std::uint64_t h = k < 4 ? ~std::uint64_t{0} - static_cast<std::uint64_t>(k) : rng();
      ASSERT_EQ(topo::hash_mod(h, n), h % n) << "h " << h << " n " << n;
    }
  }
  for (std::uint32_t racks = 2; racks <= 9; ++racks) {
    for (std::uint32_t uplinks = 1; uplinks <= 33; ++uplinks) {
      for (std::uint64_t flow = 0; flow < 64; ++flow) {
        const Placement p = place_flow(rng(), racks - 1, 3, 5, flow, 0.0, racks, uplinks);
        ASSERT_TRUE(p.remote);
        ASSERT_LT(p.dst_rack, racks - 1);
        ASSERT_LT(p.uplink, uplinks);
      }
    }
  }
}

TEST(TopologySpecTest, UplinkDerivationFollowsOversubscription) {
  TopologySpec t;
  EXPECT_EQ(t.uplinks(8), 8u);  // full bisection
  t.oversubscription = 2.0;
  EXPECT_EQ(t.uplinks(8), 4u);
  t.oversubscription = 16.0;
  EXPECT_EQ(t.uplinks(8), 1u);  // never below 1
  EXPECT_FALSE(t.multi_rack());
  t.racks = 2;
  EXPECT_TRUE(t.multi_rack());
}

TEST(TopologySpecTest, RackCountFitsTheAddressOctet) {
  // Each rack owns 10.<rack>.0.0/16 of the synthesized 5-tuple space.
  TopologySpec t;
  t.racks = 257;
  EXPECT_THROW((topo::FatTree{t, core::FrameworkConfig{}}), std::invalid_argument);
}

// ---- single-rack degeneration ----------------------------------------------

/// The single switch assembled by hand, the way a library user drives one:
/// a 1-rack tree, then the policy stack, the workloads and the VOIP
/// overlay on rack(0), then run().  The reference materialize() must
/// reproduce for every 1-rack spec.
core::RunReport hand_built_run(const ScenarioSpec& spec) {
  topo::FatTree ft{{}, spec.config};
  core::HybridSwitchFramework& fw = ft.rack(0);
  fw.set_policies(spec.policies);
  for (const auto& w : spec.workloads) topo::attach_workload(fw, w);
  if (spec.voip_pairs > 0) {
    topo::attach_voip(fw, spec.voip_pairs, spec.voip_period, spec.voip_packet_bytes,
                      spec.config.seed + 99);
  }
  return ft.run(spec.duration, spec.warmup);
}

TEST(FatTreeRun, RunIsOneShot) {
  topo::FatTree ft{{}, core::FrameworkConfig{}};
  ft.rack(0).use_default_policies();
  (void)ft.run(100_us);
  EXPECT_THROW((void)ft.run(100_us), std::logic_error);
}

TEST(FatTreeRun, RejectsNonPositiveDuration) {
  topo::FatTree ft{{}, core::FrameworkConfig{}};
  ft.rack(0).use_default_policies();
  EXPECT_THROW((void)ft.run(sim::Time::zero()), std::invalid_argument);
}

TEST(FatTreeRun, MaterializeBuildsTheSingleRackTheSpecDescribes) {
  // Trace and empirical scenarios read files relative to the repository
  // root, and tests run from the build tree: point them at small
  // per-process temp files instead.
  const auto temp = [](const char* stem) {
    return (std::filesystem::temp_directory_path() /
            (std::string{stem} + std::to_string(::getpid()) + ".csv"))
        .string();
  };
  const std::string trace_path = temp("xdrs_fat_tree_trace_");
  {
    std::ofstream out{trace_path, std::ios::trunc};
    out << "start_us,src,dst,bytes,priority\n";
    for (int i = 0; i < 40; ++i) {
      out << i * 20 << ',' << i % 4 << ',' << (i + 1 + i % 3) % 4 << ',' << 20'000 + i * 997
          << ',' << i % 3 << '\n';
    }
  }
  const std::string cdf_path = temp("xdrs_fat_tree_cdf_");
  {
    std::ofstream out{cdf_path, std::ios::trunc};
    out << "bytes,cdf\n2000,0.3\n20000,0.8\n100000,1.0\n";
  }

  for (const std::string& name : exp::known_scenarios()) {
    for (const std::uint32_t ports : {4u, 8u}) {
      for (const sim::Time warmup : {sim::Time::zero(), 200_us}) {
        ScenarioSpec spec = make_scenario(name, ports, 0.6, 7).with_window(1_ms, warmup);
        for (auto& w : spec.workloads) {
          if (w.kind == topo::WorkloadSpec::Kind::kTraceReplay) w.trace_path = trace_path;
          if (w.kind == topo::WorkloadSpec::Kind::kEmpirical) w.cdf_path = cdf_path;
          if (w.deadline.kind == traffic::DeadlineSpec::Kind::kCdf) w.deadline.cdf_path = cdf_path;
        }
        const std::string point = name + " p" + std::to_string(ports) + " w" +
                                  std::to_string(warmup.ps());
        auto ft = exp::materialize(spec);
        ASSERT_EQ(ft->racks(), 1u) << point;
        ASSERT_EQ(ft->uplink_ports(), 0u) << point;
        const core::RunReport tree = ft->run(spec.duration, spec.warmup);
        const core::RunReport reference = hand_built_run(spec);
        EXPECT_GT(reference.offered_packets, 0u) << point;
        EXPECT_EQ(core::report_state_json(tree), core::report_state_json(reference)) << point;
      }
    }
  }
  std::filesystem::remove(trace_path);
  std::filesystem::remove(cdf_path);
}

// ---- multi-rack runs -------------------------------------------------------

ScenarioSpec two_rack_spec(double locality, double oversub) {
  return make_scenario("uniform", 8, 0.7, 7)
      .with_window(1_ms, 200_us)
      .with_racks(2)
      .with_oversubscription(oversub)
      .with_locality(locality);
}

TEST(FatTreeRun, PerHopMetricsArePopulatedOnEveryMultiRackPoint) {
  const core::RunReport r = exp::run_scenario(two_rack_spec(0.5, 1.0));
  EXPECT_GT(r.intra_rack_bytes, 0);
  EXPECT_GT(r.cross_rack_bytes, 0);
  EXPECT_GT(r.core_link_bytes, 0);
  EXPECT_GT(r.core_utilization, 0.0);
  // Delivered bytes split exactly into the two hop classes.
  EXPECT_EQ(r.intra_rack_bytes + r.cross_rack_bytes, r.delivered_bytes);
}

TEST(FatTreeRun, FlowLevelWorkloadsSplitCompletionTimesByHopClass) {
  // "uniform" is packet-level (no flows, no FCTs); a flow-level scenario
  // records every completed flow into exactly one of the locality buckets.
  const ScenarioSpec spec = make_scenario("flows", 8, 0.7, 7)
                                .with_window(1_ms, 200_us)
                                .with_racks(2)
                                .with_locality(0.5);
  const core::RunReport r = exp::run_scenario(spec);
  EXPECT_GT(r.fct_intra_rack.count(), 0u);
  EXPECT_GT(r.fct_cross_rack.count(), 0u);
  // Both splits partition the same completed-flow population.
  EXPECT_EQ(r.fct_intra_rack.count() + r.fct_cross_rack.count(),
            r.fct_deadline.count() + r.fct_other.count());
}

TEST(FatTreeRun, MultiRackRunsAreDeterministic) {
  const core::RunReport a = exp::run_scenario(two_rack_spec(0.5, 2.0));
  const core::RunReport b = exp::run_scenario(two_rack_spec(0.5, 2.0));
  EXPECT_EQ(core::report_state_json(a), core::report_state_json(b));
}

TEST(FatTreeRun, OversubscriptionCapsCrossRackGoodputNotIntraRack) {
  // Mostly-remote traffic at high load: at 8:1 oversubscription the two
  // ToRs funnel ~80% of their offered load through a single uplink column
  // each, so cross-rack goodput must drop well below full bisection's,
  // while rack-local traffic — which never touches an uplink — stays in
  // the same ballpark.
  const ScenarioSpec full = two_rack_spec(0.2, 1.0).with_load(0.9);
  const ScenarioSpec tight = two_rack_spec(0.2, 8.0).with_load(0.9);
  const core::RunReport rf = exp::run_scenario(full);
  const core::RunReport rt = exp::run_scenario(tight);

  EXPECT_LT(rt.cross_rack_bytes, rf.cross_rack_bytes * 0.7);
  const double intra_ratio = static_cast<double>(rt.intra_rack_bytes) /
                             static_cast<double>(rf.intra_rack_bytes);
  EXPECT_GT(intra_ratio, 0.7);
  EXPECT_LT(intra_ratio, 1.3);
}

TEST(FatTreeRun, CrossRackTrafficIsDeliveredAndCrossesTheCoreOnce) {
  // The shape the cross-rack misroute was measured at: a per-5-tuple
  // verdict cache sent remote packets to the local host with the same index
  // and local ones into the core (26.2 of 374.6 MB delivered at locality 0,
  // with 495.7 MB of core bytes).  Core bytes may exceed the remote share
  // of the offered bytes only by the warm-up backlog they also carry (core
  // bytes count every forward in the window, offered bytes only
  // window-born packets) and the spread of the hashed per-pair placement
  // draw: 10 % covers both.  The fixed code reads 0.94 and 0.97.
  for (const double locality : {0.0, 0.5}) {
    const ScenarioSpec spec = make_scenario("uniform", 32, 0.6, 1)
                                  .with_window(8_ms, 2_ms)
                                  .with_racks(2)
                                  .with_oversubscription(1.0)
                                  .with_locality(locality);
    const core::RunReport r = exp::run_scenario(spec);
    const double offered = static_cast<double>(r.offered_bytes);
    EXPECT_GE(static_cast<double>(r.delivered_bytes), 0.8 * offered) << "locality " << locality;
    EXPECT_LE(static_cast<double>(r.core_link_bytes), 1.1 * (1.0 - locality) * offered)
        << "locality " << locality;
  }
}

TEST(FatTreeRun, SdnRuleOnAToRRetargetsOnlyItsLocalFlow) {
  // A rule on rack 0's classifier for 10.0.0.5 — rack 0's host 5.  Rack 0
  // sends one local flow 2 -> 5 and one cross-rack flow 3 -> rack 1's host
  // 5 (10.1.0.5), and nothing else: the uniform scenario's slotted ToRs
  // and policies without its workloads.  Only the local flow may match.
  constexpr std::uint32_t kHosts = 8;
  ScenarioSpec spec = make_scenario("uniform", kHosts, 0.5, 1).with_racks(2);
  spec.workloads.clear();
  spec.voip_pairs = 0;
  const auto tree = exp::materialize(spec);
  topo::FatTree& ft = *tree;
  for (std::uint32_t r = 0; r < ft.racks(); ++r) ft.rack(r).trace().enable();

  const auto cbr = [](net::PortId src, net::PortId dst) {
    traffic::CbrGenerator::Config c;
    c.src = src;
    c.dst = dst;
    c.packet_bytes = 1000;
    return std::make_unique<traffic::CbrGenerator>(c);
  };
  auto local = cbr(2, 5);
  const traffic::TrafficGenerator& local_gen = *local;
  auto remote = cbr(3, 5);
  const traffic::TrafficGenerator& remote_gen = *remote;
  ft.rack(0).add_generator(std::move(local), ft.placement_transform(0, 1.0, 1));
  ft.rack(0).add_generator(std::move(remote), ft.placement_transform(0, 0.0, 1));

  control::SdnController sdn{ft.rack(0).classifier()};
  net::Rule rule;
  rule.dst_addr_value = 0x0a000005u;
  rule.dst_addr_mask = 0xffffffffu;
  rule.verdict = net::Verdict{6, net::TrafficClass::kThroughput};
  const std::uint64_t id = sdn.install(rule);

  (void)ft.run(1_ms);
  const auto deliveries = [&ft](std::uint32_t rack, auto pred) {
    std::size_t n = 0;
    for (const sim::TraceEvent& e : ft.rack(rack).trace().events()) {
      if (e.category == sim::TraceCategory::kDeliver && pred(e.a, e.b)) ++n;
    }
    return n;
  };
  const std::uint64_t emitted = local_gen.stats().packets;
  ASSERT_GT(emitted, 10u);
  EXPECT_EQ(sdn.flow_stats(id).packets, emitted);
  EXPECT_EQ(sdn.flow_stats(id).bytes, local_gen.stats().bytes);
  // The local flow lands on host 6, never on host 5; allow for the packets
  // still in flight at the horizon.
  const std::size_t retargeted = deliveries(0, [](auto a, auto b) { return a == 2 && b == 6; });
  EXPECT_GE(retargeted + 3, emitted);
  EXPECT_EQ(deliveries(0, [](auto, auto b) { return b == 5; }), 0u);
  // The cross-rack flow reaches rack 1's host 5 through the core.
  const std::size_t crossed =
      deliveries(1, [](auto a, auto b) { return a >= kHosts && b == 5; });
  EXPECT_GE(crossed + 3, remote_gen.stats().packets);
  EXPECT_GT(crossed, 10u);
}

TEST(FatTreeRun, VoipOverlayCarriesItsRacksAddresses) {
  // Rack 1's VOIP stream 0 -> kHosts/2 must read 10.1.x.y like every other
  // packet of rack 1, and stay in rack 1.
  constexpr std::uint32_t kHosts = 8;
  ScenarioSpec spec = make_scenario("uniform", kHosts, 0.5, 1).with_racks(2);
  spec.workloads.clear();
  spec.voip_pairs = 1;
  const auto tree = exp::materialize(spec);
  topo::FatTree& ft = *tree;
  ft.rack(1).trace().enable();

  control::SdnController sdn{ft.rack(1).classifier()};
  const auto count_src = [&sdn](std::uint32_t src_addr) {
    net::Rule rule;
    rule.src_addr_value = src_addr;
    rule.src_addr_mask = 0xffffffffu;
    rule.verdict = net::Verdict{kHosts / 2, net::TrafficClass::kLatencySensitive};
    return sdn.install(rule);
  };
  const std::uint64_t rack1 = count_src(0x0a010000u);
  const std::uint64_t rack0 = count_src(0x0a000000u);

  (void)ft.run(1_ms);
  EXPECT_GT(sdn.flow_stats(rack1).packets, 0u);
  EXPECT_EQ(sdn.flow_stats(rack0).packets, 0u);
  std::size_t delivered = 0;
  for (const sim::TraceEvent& e : ft.rack(1).trace().events()) {
    if (e.category != sim::TraceCategory::kDeliver) continue;
    EXPECT_LT(e.b, kHosts);  // nothing leaves through an uplink
    if (e.a == 0 && e.b == kHosts / 2) ++delivered;
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(ft.core_queue_bytes(), 0);
}

// ---- sweep invariance ------------------------------------------------------

std::vector<ScenarioSpec> small_ft_grid() {
  std::vector<ScenarioSpec> grid{
      make_scenario("uniform", 8, 0.7, 7).with_window(1_ms, 200_us).with_racks(2)};
  grid = exp::expand(grid, exp::axis_oversubscription({1.0, 2.0}));
  grid = exp::expand(grid, exp::axis_locality({0.5, 0.9}));
  return grid;  // 4 points, all multi-rack
}

TEST(FatTreeSweep, ThreadCountDoesNotChangeTheBytes) {
  const auto grid = small_ft_grid();
  exp::ExecutionPlan one;
  one.threads = 1;
  exp::ExecutionPlan four;
  four.threads = 4;
  const std::string a = exp::ExperimentRunner{one}.run(grid).to_json();
  const std::string b = exp::ExperimentRunner{four}.run(grid).to_json();
  EXPECT_EQ(a, b);
}

TEST(FatTreeSweep, TwoShardMergeMatchesTheUnshardedRun) {
  const auto grid = small_ft_grid();
  const std::string whole = exp::ExperimentRunner{}.run(grid).to_json();

  std::vector<std::string> shard_jsons;
  for (std::size_t i = 0; i < 2; ++i) {
    exp::ExecutionPlan opts;
    opts.source.shard = {i, 2};
    shard_jsons.push_back(exp::ExperimentRunner{opts}.run(grid).to_shard_json());
  }
  const exp::SweepResult merged = exp::SweepResult::merge_shards(grid, shard_jsons);
  EXPECT_EQ(merged.to_json(), whole);
}

}  // namespace
}  // namespace xdrs
