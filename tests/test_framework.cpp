// End-to-end integration tests of the full framework (Figure 2 wired):
// traffic in, scheduled service, deliveries and reports out.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/framework.hpp"
#include "topo/fat_tree.hpp"
#include "topo/testbed.hpp"
#include "traffic/generators.hpp"
#include "traffic/patterns.hpp"

namespace xdrs::core {
namespace {

using sim::Time;
using namespace xdrs::sim::literals;

FrameworkConfig fast_hybrid(std::uint32_t ports = 4) {
  FrameworkConfig c;
  c.ports = ports;
  c.discipline = SchedulingDiscipline::kHybridEpoch;
  c.epoch = 100_us;
  c.ocs_reconfig = 1_us;
  c.min_circuit_hold = 10_us;
  c.placement = BufferPlacement::kToRSwitch;
  return c;
}

FrameworkConfig slotted(std::uint32_t ports = 4) {
  FrameworkConfig c;
  c.ports = ports;
  c.discipline = SchedulingDiscipline::kSlotted;
  c.slot_time = 5_us;
  c.ocs_reconfig = 50_ns;
  return c;
}

TEST(Framework, ValidatesConfig) {
  FrameworkConfig c = fast_hybrid();
  c.ports = 1;
  EXPECT_THROW((topo::FatTree{{}, c}), std::invalid_argument);
}

TEST(Framework, RejectsASlotThatCannotCarryOneMtu) {
  // One MTU takes 1.216 us on a 10 Gbps wire, and each slotted window
  // closes ocs_path_latency() before its slot ends: a 1,250 ns slot
  // delivers nothing in either placement.
  for (const BufferPlacement placement : {BufferPlacement::kToRSwitch, BufferPlacement::kHost}) {
    FrameworkConfig c = slotted();
    c.placement = placement;
    c.slot_time = 1'250_ns;
    EXPECT_THROW((topo::FatTree{{}, c}), std::invalid_argument) << to_string(placement);
    c.slot_time = 12'500_ns;
    EXPECT_NO_THROW((topo::FatTree{{}, c})) << to_string(placement);
  }
  // Only slotted runs read slot_time.
  FrameworkConfig hybrid = fast_hybrid();
  hybrid.slot_time = 1'250_ns;
  EXPECT_NO_THROW((topo::FatTree{{}, hybrid}));
}

TEST(Framework, RejectsASlotEatenByTheRetune) {
  // A 12.5 us slot less a 12 us retune leaves 0.4 us after the 100 ns OCS
  // path latency, less than the 1.216 us one MTU takes: the slot carries
  // nothing, and the reason names the retune.  A 1 us retune leaves room.
  FrameworkConfig c = slotted();
  c.slot_time = 12'500_ns;
  c.ocs_reconfig = 12_us;
  try {
    topo::FatTree ft{{}, c};
    ADD_FAILURE() << "a 12 us retune on a 12.5 us slot was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("retune"), std::string::npos) << e.what();
  }
  c.ocs_reconfig = 1_us;
  EXPECT_NO_THROW((topo::FatTree{{}, c}));
  // Both guard bands count too: after a 1 us retune and 100 ns of path,
  // two 5 us bands leave 1.4 us, two 5.5 us bands 0.4 us.
  c.sync.guard_band = 5_us;
  EXPECT_NO_THROW((topo::FatTree{{}, c}));
  c.sync.guard_band = 5'500_ns;
  EXPECT_THROW((topo::FatTree{{}, c}), std::invalid_argument);
  // Hybrid runs read neither slot_time nor this rule.
  FrameworkConfig hybrid = fast_hybrid();
  hybrid.slot_time = 12'500_ns;
  hybrid.ocs_reconfig = 12_us;
  EXPECT_NO_THROW((topo::FatTree{{}, hybrid}));
}

TEST(Framework, HybridDeliversModerateUniformLoad) {
  topo::FatTree ft{{}, fast_hybrid()};
  HybridSwitchFramework& fw = ft.rack(0);
  fw.use_default_policies();
  topo::WorkloadSpec spec;
  spec.kind = topo::WorkloadSpec::Kind::kPoissonUniform;
  spec.load = 0.3;
  topo::attach_workload(fw, spec);

  const RunReport r = ft.run(4_ms, 1_ms);
  EXPECT_GT(r.offered_packets, 100u);
  EXPECT_GT(r.delivery_ratio(), 0.90) << r.summary();
  EXPECT_GT(r.scheduler_decisions, 10u);
}

TEST(Framework, SlottedIslipDeliversUniformLoad) {
  topo::FatTree ft{{}, slotted()};
  HybridSwitchFramework& fw = ft.rack(0);
  fw.use_default_policies();  // islip:2 for slotted
  topo::WorkloadSpec spec;
  spec.kind = topo::WorkloadSpec::Kind::kPoissonUniform;
  spec.load = 0.4;
  topo::attach_workload(fw, spec);

  const RunReport r = ft.run(4_ms, 1_ms);
  EXPECT_GT(r.delivery_ratio(), 0.90) << r.summary();
  // Slotted mode serves everything over the fabric circuits.
  EXPECT_GT(r.ocs_bytes, 0);
}

TEST(Framework, ConservationOfPackets) {
  topo::FatTree ft{{}, fast_hybrid()};
  HybridSwitchFramework& fw = ft.rack(0);
  fw.use_default_policies();
  topo::WorkloadSpec spec;
  spec.load = 0.4;
  topo::attach_workload(fw, spec);
  const RunReport r = ft.run(3_ms, 500_us);
  // Delivered never exceeds offered; the difference is queued or dropped.
  EXPECT_LE(r.delivered_bytes, r.offered_bytes);
  EXPECT_LE(r.delivered_packets, r.offered_packets);
}

TEST(Framework, SlottedWindowsEndBeforeTheNextRetuneCutsAPacket) {
  // Saturated permutation pairs under islip:1: the hardware decision
  // (62.6 ns) is shorter than the 100 ns fabric, so a window that closed at
  // the slot boundary would leave its last packet in the fabric when the
  // next slot retunes.
  for (const BufferPlacement placement : {BufferPlacement::kToRSwitch, BufferPlacement::kHost}) {
    FrameworkConfig c = slotted(8);
    c.placement = placement;
    c.slot_time = 12'500_ns;
    topo::FatTree ft{{}, c};
    HybridSwitchFramework& fw = ft.rack(0);
    fw.set_policies(PolicyStack{}.with_matcher("islip:1"));
    topo::WorkloadSpec spec;
    spec.kind = topo::WorkloadSpec::Kind::kPermutation;
    spec.load = 0.95;
    topo::attach_workload(fw, spec);
    const RunReport r = ft.run(1_ms, 200_us);
    EXPECT_GT(r.reconfigurations, 50u);
    EXPECT_GT(r.ocs_bytes, 0);
    EXPECT_EQ(r.reconfig_cuts, 0u) << to_string(placement) << ": " << r.summary();
  }
}

TEST(Framework, HybridRetunesWaitForTheRunningPlansWindows) {
  // Saturated permutation pairs under hardware-timed Solstice: a plan with
  // fewer slots computes faster than the one before it, so without
  // sequencing the next epoch's first retune falls inside the previous
  // plan's last window and cuts the packets still on the fabric.
  for (const BufferPlacement placement : {BufferPlacement::kToRSwitch, BufferPlacement::kHost}) {
    FrameworkConfig c = fast_hybrid(8);
    c.placement = placement;
    topo::FatTree ft{{}, c};
    HybridSwitchFramework& fw = ft.rack(0);
    fw.set_policies(PolicyStack{});
    topo::WorkloadSpec spec;
    spec.kind = topo::WorkloadSpec::Kind::kPermutation;
    spec.load = 0.95;
    topo::attach_workload(fw, spec);
    const RunReport r = ft.run(10_ms, 1_ms);
    EXPECT_GT(r.ocs_bytes, 0);
    EXPECT_GT(r.delivery_ratio(), 0.99) << to_string(placement) << ": " << r.summary();
    EXPECT_EQ(r.reconfig_cuts, 0u) << to_string(placement) << ": " << r.summary();
    EXPECT_EQ(r.sync_losses, 0u) << to_string(placement) << ": " << r.summary();
  }
}

TEST(Framework, OcsCarriesElephantsEpsCarriesResidual) {
  FrameworkConfig c = fast_hybrid();
  topo::FatTree ft{{}, c};
  HybridSwitchFramework& fw = ft.rack(0);
  fw.set_policies(PolicyStack{});

  topo::WorkloadSpec spec;
  spec.kind = topo::WorkloadSpec::Kind::kOnOffBursts;
  spec.mean_on = 50_us;
  spec.mean_off = 150_us;
  topo::attach_workload(fw, spec);

  const RunReport r = ft.run(4_ms, 1_ms);
  EXPECT_GT(r.ocs_bytes, 0) << r.summary();
  EXPECT_GT(r.delivery_ratio(), 0.5) << r.summary();
}

TEST(Framework, LatencySensitiveBypassInTorMode) {
  topo::FatTree ft{{}, fast_hybrid()};
  HybridSwitchFramework& fw = ft.rack(0);
  fw.use_default_policies();
  topo::attach_voip(fw, 2, 20_us, 200);
  const RunReport r = ft.run(2_ms, 200_us);
  EXPECT_GT(r.latency_sensitive.count(), 50u);
  // Bypass path: latency ~ link + EPS serialisation + EPS latency, well
  // under 10 us at these rates.
  EXPECT_LT(r.latency_sensitive.quantile_time(0.99), 10_us) << r.summary();
}

// Paper §2: slow scheduling "can increase the overall traffic latency and
// jitter of widely used applications (i.e., VOIP ...)".  Four CBR streams
// (200 B every 20 us) cross an 8-port switch alone, then next to Pareto
// ON/OFF line-rate bursts, under a hardware loop with ToR buffers and a
// software loop with host buffers.
TEST(Framework, HardwareSchedulingBeatsSoftwareOnVoipLatency) {
  const auto run_with = [](bool hardware, bool bursty) {
    FrameworkConfig c = fast_hybrid(8);
    c.placement = hardware ? BufferPlacement::kToRSwitch : BufferPlacement::kHost;
    c.epoch = hardware ? Time::microseconds(100) : Time::milliseconds(1);
    c.min_circuit_hold = hardware ? 10_us : 100_us;
    topo::FatTree ft{{}, c};
    HybridSwitchFramework& fw = ft.rack(0);
    fw.set_policies(PolicyStack{}.with_timing(hardware ? "hardware" : "software"));
    topo::attach_voip(fw, 4, 20_us, 200);
    if (bursty) {
      topo::WorkloadSpec spec;
      spec.kind = topo::WorkloadSpec::Kind::kOnOffBursts;
      spec.mean_on = 60_us;
      spec.mean_off = 140_us;
      spec.seed = 29;
      topo::attach_workload(fw, spec);
    }
    return ft.run(30_ms, 5_ms);
  };

  const RunReport hw = run_with(true, false);
  const RunReport sw = run_with(false, false);
  ASSERT_GT(hw.latency_sensitive.count(), 0u);
  ASSERT_GT(sw.latency_sensitive.count(), 0u);
  // The paper's claim: slow scheduling inflates interactive latency.
  EXPECT_LT(hw.latency_sensitive.quantile(0.99) * 10, sw.latency_sensitive.quantile(0.99))
      << "hw: " << hw.latency_sensitive.summary_time()
      << " sw: " << sw.latency_sensitive.summary_time();

  // Next to bursts.  Bands: ±25 % around the recorded p99 (7.86 us hw,
  // 4.03 ms sw) and RFC 3550 jitter (0.24 us hw, 20.65 us sw).  A p99 moves
  // in steps of the histogram's 1/16-octave buckets and the jitter is a
  // mean over four flows, so 25 % admits a few steps but not a change of
  // regime; the claim itself is the hundredfold gap, asserted apart.
  const RunReport hw_bursty = run_with(true, true);
  const RunReport sw_bursty = run_with(false, true);
  const double hw_p99 = hw_bursty.latency_sensitive.quantile_time(0.99).us();
  const double sw_p99 = sw_bursty.latency_sensitive.quantile_time(0.99).us();
  EXPECT_NEAR(hw_p99, 7.86, 0.25 * 7.86);
  EXPECT_NEAR(sw_p99, 4030.0, 0.25 * 4030.0);
  EXPECT_GT(sw_p99, 100 * hw_p99);
  EXPECT_NEAR(hw_bursty.jitter_us.mean(), 0.24, 0.25 * 0.24);
  EXPECT_NEAR(sw_bursty.jitter_us.mean(), 20.65, 0.25 * 20.65);
  EXPECT_GT(sw_bursty.jitter_us.mean(), 10 * hw_bursty.jitter_us.mean());

  // The decision latency each loop lived through (recorded 1.81 us hw,
  // 858.8 us sw): the paper's "milliseconds vs nanoseconds", held to two
  // orders of magnitude since a hardware Solstice decision grows with the
  // number of slots it plans.
  EXPECT_GE(sw_bursty.mean_decision_latency.ratio(hw_bursty.mean_decision_latency), 100.0)
      << "hw " << hw_bursty.mean_decision_latency.to_string() << " sw "
      << sw_bursty.mean_decision_latency.to_string();
}

TEST(Framework, HostModeBuffersAtHostsTorModeBuffersInSwitch) {
  const auto run_with = [](BufferPlacement placement) {
    FrameworkConfig c = fast_hybrid();
    c.placement = placement;
    c.epoch = 500_us;
    topo::FatTree ft{{}, c};
    HybridSwitchFramework& fw = ft.rack(0);
    fw.use_default_policies();
    topo::WorkloadSpec spec;
    spec.load = 0.5;
    topo::attach_workload(fw, spec);
    return ft.run(3_ms, 500_us);
  };
  const RunReport host = run_with(BufferPlacement::kHost);
  const RunReport tor = run_with(BufferPlacement::kToRSwitch);
  EXPECT_GT(host.peak_host_buffer_bytes, 0);
  EXPECT_GT(tor.peak_switch_buffer_bytes, 0);
}

TEST(Framework, ReconfigurationsAreCountedAndDutyCycleSane) {
  topo::FatTree ft{{}, fast_hybrid()};
  HybridSwitchFramework& fw = ft.rack(0);
  fw.use_default_policies();
  topo::WorkloadSpec spec;
  spec.load = 0.5;
  topo::attach_workload(fw, spec);
  const RunReport r = ft.run(3_ms, 500_us);
  EXPECT_GT(r.reconfigurations, 0u);
  EXPECT_GE(r.ocs_duty_cycle, 0.0);
  EXPECT_LE(r.ocs_duty_cycle, 1.0);
}

TEST(Framework, DeterministicAcrossRuns) {
  const auto run_once = [] {
    topo::FatTree ft{{}, fast_hybrid()};
    HybridSwitchFramework& fw = ft.rack(0);
    fw.use_default_policies();
    topo::WorkloadSpec spec;
    spec.load = 0.4;
    spec.seed = 31337;
    topo::attach_workload(fw, spec);
    return ft.run(2_ms, 500_us);
  };
  const RunReport a = run_once();
  const RunReport b = run_once();
  EXPECT_EQ(a.offered_packets, b.offered_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(a.ocs_bytes, b.ocs_bytes);
  EXPECT_EQ(a.latency.quantile(0.99), b.latency.quantile(0.99));
}

TEST(Framework, TwoFlowGeneratorsOnOnePortCompleteTheirFlowsApart) {
  // Two generators on port 0 with one seed emit the same flow ids and
  // sizes.  Tagged apart, every completed flow counts once per generator,
  // so the pair completes about twice the flows one generator does; keyed
  // on (port, flow id) alone, each twin pair would merge into one flow.
  const auto completions = [](std::uint32_t generators) {
    topo::FatTree ft{{}, fast_hybrid(8)};
    HybridSwitchFramework& fw = ft.rack(0);
    fw.use_default_policies();
    for (std::uint32_t g = 0; g < generators; ++g) {
      traffic::FlowGenerator::Config cfg;
      cfg.src = 0;
      cfg.line_rate = fw.config().link_rate;
      cfg.load = 0.05;
      cfg.mice_mean_bytes = 6'000;
      cfg.elephant_fraction = 0.0;
      cfg.dest = std::make_shared<traffic::UniformChooser>(8);
      cfg.seed = 5;
      fw.add_generator(std::make_unique<traffic::FlowGenerator>(cfg));
    }
    const RunReport r = ft.run(4_ms);
    return r.fct_other.count() + r.fct_deadline.count();
  };
  const std::uint64_t one = completions(1);
  ASSERT_GT(one, 10u);
  EXPECT_GE(completions(2), 2 * one - one / 10);
}

TEST(Framework, DirectInjectionWorks) {
  topo::FatTree ft{{}, fast_hybrid()};
  HybridSwitchFramework& fw = ft.rack(0);
  fw.use_default_policies();
  net::Packet p;
  p.src = 0;
  p.dst = 1;
  p.size_bytes = 1500;
  fw.simulator().schedule(10_us, [&fw, p] { fw.inject(p); });
  const RunReport r = ft.run(2_ms);
  EXPECT_EQ(r.offered_packets, 1u);
  EXPECT_EQ(r.delivered_packets, 1u);
}

TEST(Framework, IngressTransformRewritesTheSwitchCopyBeforeAnythingReadsIt) {
  // The transform acts on the ingress hop's own copy: the arrival trace,
  // the VOQ and the delivery see the rewritten packet, the caller's packet
  // is untouched.  Both placements, since only ToR placement has the hop.
  for (const BufferPlacement placement : {BufferPlacement::kToRSwitch, BufferPlacement::kHost}) {
    FrameworkConfig cfg = fast_hybrid();
    cfg.placement = placement;
    topo::FatTree ft{{}, cfg};
    HybridSwitchFramework& fw = ft.rack(0);
    fw.use_default_policies();
    fw.trace().enable();
    net::Packet p;
    p.src = 0;
    p.dst = 1;
    p.size_bytes = 1500;
    const HybridSwitchFramework::IngressTransform to_port_2 = [](net::Packet& q) { q.dst = 2; };
    fw.simulator().schedule(10_us, [&fw, &p, &to_port_2] { fw.inject(p, &to_port_2); });
    const RunReport r = ft.run(2_ms);
    EXPECT_EQ(p.dst, 1u);
    EXPECT_EQ(r.delivered_packets, 1u);
    using sim::TraceCategory;
    for (const TraceCategory c :
         {TraceCategory::kPacketArrival, TraceCategory::kEnqueue, TraceCategory::kDeliver}) {
      const std::vector<sim::TraceEvent> seen = fw.trace().filter(c);
      ASSERT_EQ(seen.size(), 1u) << static_cast<int>(c);
      EXPECT_EQ(seen[0].b, 2u) << static_cast<int>(c);
    }
  }
}

TEST(Framework, TraceCapturesPipelineWhenEnabled) {
  topo::FatTree ft{{}, fast_hybrid()};
  HybridSwitchFramework& fw = ft.rack(0);
  fw.use_default_policies();
  fw.trace().enable();
  topo::WorkloadSpec spec;
  spec.load = 0.3;
  topo::attach_workload(fw, spec);
  (void)ft.run(500_us);
  using sim::TraceCategory;
  EXPECT_GT(fw.trace().count(TraceCategory::kPacketArrival), 0u);
  EXPECT_GT(fw.trace().count(TraceCategory::kEnqueue), 0u);
  EXPECT_GT(fw.trace().count(TraceCategory::kScheduleDone), 0u);
  EXPECT_GT(fw.trace().count(TraceCategory::kGrant), 0u);
  EXPECT_GT(fw.trace().count(TraceCategory::kDeliver), 0u);
}

TEST(Framework, ThroughputFractionComputation) {
  RunReport r;
  r.duration = 1_ms;
  r.delivered_bytes = 1'250'000;  // 10 Gbps x 1 ms / 8 = 1.25 MB per port
  EXPECT_NEAR(r.throughput_fraction(sim::DataRate::gbps(10), 1), 1.0, 1e-9);
  EXPECT_NEAR(r.throughput_fraction(sim::DataRate::gbps(10), 4), 0.25, 1e-9);
}

TEST(Framework, SummaryStringMentionsKeyCounters) {
  topo::FatTree ft{{}, fast_hybrid()};
  HybridSwitchFramework& fw = ft.rack(0);
  fw.use_default_policies();
  topo::WorkloadSpec spec;
  spec.load = 0.2;
  topo::attach_workload(fw, spec);
  const RunReport r = ft.run(1_ms);
  const std::string s = r.summary();
  EXPECT_NE(s.find("delivered"), std::string::npos);
  EXPECT_NE(s.find("latency"), std::string::npos);
}

}  // namespace
}  // namespace xdrs::core
