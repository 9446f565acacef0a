// Band tests for the paper's claims.  Each test runs the scenario a claim
// rests on and checks the simulated value against the value recorded when
// the band was set, within a stated tolerance.  The simulator is
// deterministic, so a value moves only when the modelled behaviour does;
// the band says how far it may move before the claim must be re-examined.
//
// Claims pinned elsewhere: Figure 1's closed form (test_buffering_analysis),
// the §2 latency budget and its port scaling (test_timing), Figure 2's
// configure-before-grant order (test_protocol_invariants), and the lived
// decision latency and VOIP latency and jitter of §2 (test_framework).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <string>

#include "analysis/buffering.hpp"
#include "control/timing.hpp"
#include "core/framework.hpp"
#include "exp/scenario.hpp"
#include "stats/summary.hpp"
#include "stats/timeseries.hpp"
#include "topo/fat_tree.hpp"
#include "topo/testbed.hpp"

namespace xdrs {
namespace {

using sim::Time;
using namespace xdrs::sim::literals;

/// The hybrid switch the paper sketches: 10 Gbps OCS and EPS per port,
/// 1 us dark time, 100 us epochs.
core::FrameworkConfig hybrid(std::uint32_t ports) {
  core::FrameworkConfig c;
  c.ports = ports;
  c.discipline = core::SchedulingDiscipline::kHybridEpoch;
  c.epoch = 100_us;
  c.ocs_reconfig = 1_us;
  c.min_circuit_hold = 10_us;
  return c;
}

// ------------------------------------------------------- E1: Figure 1 check

struct OperatingPoint {
  const char* label;
  Time reconfig;
  Time epoch;
  bool hardware;  ///< hardware loop, ToR buffers; else software loop, host buffers
};

constexpr OperatingPoint kFast{"fast (1us dark, 100us epoch, hw loop)", 1_us, 100_us, true};
constexpr OperatingPoint kMedium{"medium (10us dark, 1ms epoch, hw loop)", 10_us, 1_ms, true};
constexpr OperatingPoint kSlow{"slow (1ms dark, 10ms epoch, sw loop)", 1_ms, 10_ms, false};

struct BufferCheck {
  double peak_over_bound;
  double delivery;
};

/// Runs uniform Poisson traffic at load 0.6 through one operating point and
/// sets the simulated peak VOQ bank against the closed-form bound, with the
/// epoch added to the control loop (it bounds how stale a schedule can be).
BufferCheck check_buffering(std::uint32_t ports, sim::DataRate rate, const OperatingPoint& pt) {
  core::FrameworkConfig c = hybrid(ports);
  c.link_rate = rate;
  c.eps_rate = rate;
  c.ocs_reconfig = pt.reconfig;
  c.epoch = pt.epoch;
  c.min_circuit_hold = pt.epoch / 10;
  c.placement = pt.hardware ? core::BufferPlacement::kToRSwitch : core::BufferPlacement::kHost;
  topo::FatTree ft{{}, c};
  core::HybridSwitchFramework& fw = ft.rack(0);
  fw.set_policies(core::PolicyStack{}.with_timing(pt.hardware ? "hardware" : "software"));
  topo::WorkloadSpec spec;
  spec.kind = topo::WorkloadSpec::Kind::kPoissonUniform;
  spec.load = 0.6;
  spec.seed = 11;
  topo::attach_workload(fw, spec);
  const core::RunReport r = ft.run(std::max<Time>(20 * pt.epoch, 10_ms), 2 * pt.epoch);

  analysis::BufferingScenario s;
  s.ports = ports;
  s.port_rate = rate;
  s.switching_time = pt.reconfig;
  s.load = 0.6;
  s.duty_cycle = 0.9;
  const control::TimingBreakdown tb =
      pt.hardware ? control::HardwareSchedulerTimingModel{}.decision_latency(ports, 4, true)
                  : control::SoftwareSchedulerTimingModel{}.decision_latency(ports, 4, true);
  s.control_loop_latency = tb.total() + pt.epoch;
  const analysis::BufferingRequirement model = analysis::compute_buffering(s);
  return {static_cast<double>(r.peak_switch_buffer_bytes) / static_cast<double>(model.total_bytes),
          r.delivery_ratio()};
}

// Peak/bound band: ±10 %.  A peak is one extreme of one seeded run, so it
// moves with any change to when packets are served; the fix of the phantom
// OCS service chains moved the 8-port fast point 1.5 -> 1.3 (13 %), and a
// band that did not catch a shift that size would pin nothing.
constexpr double kPeakTolerance = 0.10;

TEST(PaperClaims, Figure1SimulatedPeakTracksTheBoundAtEightPorts) {
  const double recorded[] = {1.34, 0.83, 0.52};
  const OperatingPoint points[] = {kFast, kMedium, kSlow};
  for (std::size_t i = 0; i < 3; ++i) {
    const BufferCheck b = check_buffering(8, sim::DataRate::gbps(1), points[i]);
    EXPECT_NEAR(b.peak_over_bound, recorded[i], kPeakTolerance * recorded[i]) << points[i].label;
  }
}

// 64 x 10 Gbps at the fast and medium points (about 3 s of wall time
// together).  At the fast point this is not the paper's hybrid shape: a
// hardware-timed 64-port Solstice decision averages 124.3 us, longer than
// the 100 us epoch, so every plan is superseded before its first slot.
// Over the 10 ms window the OCS retunes twice and carries 87 kB against
// the EPS's 455 MB, so the fast band pins an EPS-only switch.  (At 48
// ports decisions average 104.1 us and the OCS retunes 9 times.)  The
// slow point is not run at this shape: it
// takes 16-19 s of wall time in a RelWithDebInfo build and delivers only
// 0.20 of the offered bytes, so its peak (0.50 of the bound) says little
// about the bound; it is checked at 8 ports above.  Delivery band: ±0.02.
TEST(PaperClaims, Figure1SimulatedPeakTracksTheBoundAtSixtyFourPorts) {
  const BufferCheck fast = check_buffering(64, sim::DataRate::gbps(10), kFast);
  EXPECT_NEAR(fast.peak_over_bound, 2.33, kPeakTolerance * 2.33) << kFast.label;
  EXPECT_NEAR(fast.delivery, 0.974, 0.02) << kFast.label;
  const BufferCheck medium = check_buffering(64, sim::DataRate::gbps(10), kMedium);
  EXPECT_NEAR(medium.peak_over_bound, 0.91, kPeakTolerance * 0.91) << kMedium.label;
  EXPECT_NEAR(medium.delivery, 0.950, 0.02) << kMedium.label;
}

// ----------------------------------------------------- E5: the hybrid split

/// Every port carries a floor of Poisson mice at load 0.1; Pareto ON/OFF
/// line-rate bursts with duty cycle `burst_share` ride on top.  The EPS is
/// oversubscribed 4:1, and Solstice only plans a circuit that moves ten
/// times its dark-time cost, so sub-burst backlogs stay electrical.
exp::ScenarioSpec split_point(double burst_share) {
  exp::ScenarioSpec s = exp::make_scenario("uniform", 8, 0.1, 41);
  s.scenario = "hybrid-split";
  s.config.discipline = core::SchedulingDiscipline::kHybridEpoch;
  s.config.epoch = 100_us;
  s.config.ocs_reconfig = 1_us;
  s.config.min_circuit_hold = 10_us;
  s.config.eps_rate = sim::DataRate::mbps(2500);
  s.config.eps_buffer_bytes = 4 << 20;
  s.with_circuit("solstice:10");
  s.workloads.front().seed = 41;
  s.with_window(20_ms, 4_ms);
  if (burst_share > 0.0) {
    topo::WorkloadSpec bursts;
    bursts.kind = topo::WorkloadSpec::Kind::kOnOffBursts;
    bursts.mean_on = 80_us;
    bursts.mean_off = Time::seconds_f(80e-6 * (1.0 - burst_share) / burst_share);
    bursts.seed = 43;
    s.workloads.push_back(bursts);
  }
  return s;
}

double ocs_fraction(const core::RunReport& r) {
  return static_cast<double>(r.ocs_bytes) / static_cast<double>(r.ocs_bytes + r.eps_bytes);
}

// §1: the OCS serves long bursts and the EPS the rest.  Band: ±0.03 on each
// OCS byte fraction, tighter than the smallest step between neighbouring
// shares (0.047), so a band cannot hide a flattened curve.
TEST(PaperClaims, OcsCarriesTheBurstsAndEpsTheMice) {
  const core::RunReport mice_only = exp::run_scenario(split_point(0.0));
  EXPECT_EQ(mice_only.ocs_bytes, 0);
  EXPECT_GT(mice_only.eps_bytes, 0);

  const double shares[] = {0.1, 0.2, 0.4, 0.6};
  const double recorded[] = {0.487, 0.534, 0.607, 0.75};
  double previous = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const double f = ocs_fraction(exp::run_scenario(split_point(shares[i])));
    const std::string what = "burst share " + std::to_string(shares[i]);
    EXPECT_NEAR(f, recorded[i], 0.03) << what;
    EXPECT_GT(f, previous) << what;
    previous = f;
  }
}

// §2: demand estimation quality matters.  Backlog-based estimation serves
// what is queued; offered-rate estimation plans for traffic the EPS already
// carried.  Band: ±0.03 on each delivery ratio.
TEST(PaperClaims, BacklogEstimationDeliversMoreThanRateEstimation) {
  exp::ScenarioSpec spec = split_point(0.4);
  const double instantaneous =
      exp::run_scenario(spec.with_estimator("instantaneous")).delivery_ratio();
  const double windowed = exp::run_scenario(spec.with_estimator("windowed")).delivery_ratio();
  EXPECT_NEAR(instantaneous, 0.949, 0.03);
  EXPECT_NEAR(windowed, 0.789, 0.03);
  EXPECT_GT(instantaneous, windowed);
}

// ------------------------------------------- E6: matchers on a slotted switch

double service_fraction(const std::string& pattern, double load, const std::string& matcher) {
  exp::ScenarioSpec s = exp::make_scenario(pattern, 8, 0.5, 53).with_window(40_ms, 8_ms);
  s.with_load(load).with_matcher(matcher);
  return exp::run_scenario(s).service_fraction(s.config.link_rate, s.config.ports);
}

// Near saturation more iSLIP iterations close on maximum weight.  Band:
// ±0.02 on each service fraction; the ordering is asserted on its own,
// since the islip:1 -> islip:4 gap (0.015) is narrower than the band.
// rrm:1 is left out: on this shape it serves far below its textbook
// saturation even at load 0.3, an open defect rather than a property of RRM.
TEST(PaperClaims, IslipIterationsCloseOnMaxWeightUnderUniformLoad) {
  const double islip1 = service_fraction("uniform", 0.95, "islip:1");
  const double islip4 = service_fraction("uniform", 0.95, "islip:4");
  const double maxweight = service_fraction("uniform", 0.95, "maxweight");
  EXPECT_NEAR(islip1, 0.800, 0.02);
  EXPECT_NEAR(islip4, 0.815, 0.02);
  EXPECT_NEAR(maxweight, 0.853, 0.02);
  EXPECT_LE(islip1, islip4);
  EXPECT_LE(islip4, maxweight);
}

// A permutation is one matching, which iSLIP finds and keeps: service
// tracks the offered load.  Band: at least 0.95 of the load (recorded
// 0.963 at load 0.95) and at most the load plus 0.01 (the warm-up backlog
// served inside the window).
TEST(PaperClaims, IslipTracksOfferedLoadUnderPermutationTraffic) {
  for (const double load : {0.3, 0.5, 0.7, 0.85, 0.95}) {
    const double served = service_fraction("permutation", load, "islip:1");
    EXPECT_GE(served, 0.95 * load) << "load " << load;
    EXPECT_LE(served, load + 0.01) << "load " << load;
  }
}

// ------------------------------------------ E7: host synchronisation (§2)

core::RunReport run_with_skew(core::BufferPlacement placement, Time skew, Time guard) {
  core::FrameworkConfig c = hybrid(8);
  c.placement = placement;
  c.epoch = 200_us;
  c.min_circuit_hold = 20_us;
  c.sync.max_skew = skew;
  c.sync.guard_band = guard;
  c.sync.seed = 77;
  topo::FatTree ft{{}, c};
  core::HybridSwitchFramework& fw = ft.rack(0);
  fw.set_policies(core::PolicyStack{}.with_timing("hardware"));
  topo::WorkloadSpec spec;
  spec.kind = topo::WorkloadSpec::Kind::kOnOffBursts;
  spec.mean_on = 60_us;
  spec.mean_off = 140_us;
  spec.seed = 61;
  topo::attach_workload(fw, spec);
  return ft.run(20_ms, 4_ms);
}

// Host-buffered operation "requires tight synchronization between the host
// and switch": packets miss their circuit window once host skew outgrows
// the guard band, and a guard band as wide as the skew removes the losses
// (at the cost of circuit time).  ToR buffering never consults host clocks.
// Band on the loss count: within a factor of 2 of the recorded 88, since
// it counts rare events (88 of some 45,000 packets); the claim itself is
// "some" against "none".
TEST(PaperClaims, HostSkewBeyondTheGuardBandLosesPacketsTorDoesNot) {
  const core::RunReport unguarded =
      run_with_skew(core::BufferPlacement::kHost, 10_us, Time::zero());
  EXPECT_GE(unguarded.sync_losses, 44u);
  EXPECT_LE(unguarded.sync_losses, 176u);
  EXPECT_EQ(run_with_skew(core::BufferPlacement::kHost, 10_us, 10_us).sync_losses, 0u);
  EXPECT_EQ(run_with_skew(core::BufferPlacement::kToRSwitch, 10_us, Time::zero()).sync_losses, 0u);
}

// ---------------------------------------------- E8: transients (§3)

// Queues build across every dark period and drain once circuits return:
// the reconfiguration transient the framework exposes.  A deliberately slow
// switch (20 us dark) makes it visible.  Band: within a factor of 2 of the
// recorded means (+3.1 KiB across a dark period, -44 KiB in the equal-length
// window after it), since each is a mean over some 130 intervals of a
// bursty queue; the sign is the claim.  Packets cut at retune time are not
// asserted: the hybrid epoch still cuts a few, an open defect.
TEST(PaperClaims, QueuesGrowWhileDarkAndDrainWhenCircuitsReturn) {
  core::FrameworkConfig c = hybrid(8);
  c.epoch = 200_us;
  c.ocs_reconfig = 20_us;
  c.min_circuit_hold = 50_us;
  topo::FatTree ft{{}, c};
  core::HybridSwitchFramework& fw = ft.rack(0);
  fw.set_policies(core::PolicyStack{}.with_timing("hardware"));
  fw.trace().enable();
  topo::WorkloadSpec spec;
  spec.kind = topo::WorkloadSpec::Kind::kOnOffBursts;
  spec.mean_on = 80_us;
  spec.mean_off = 120_us;
  spec.seed = 71;
  topo::attach_workload(fw, spec);

  // Total VOQ occupancy every 2 us alongside the run.
  stats::TimeSeries occupancy{16384};
  const Time horizon = 12_ms;
  std::function<void()> sample = [&] {
    occupancy.record(fw.simulator().now(),
                     static_cast<double>(fw.processing().voqs().total_bytes()));
    if (fw.simulator().now() < horizon) fw.simulator().schedule(2_us, sample);
  };
  fw.simulator().schedule(Time::zero(), sample);
  (void)ft.run(10_ms, 2_ms);

  const auto& samples = occupancy.samples();
  const auto occupancy_at = [&samples](Time at) {
    const auto it = std::lower_bound(
        samples.begin(), samples.end(), at,
        [](const stats::TimeSeries::Sample& s, Time t) { return s.at < t; });
    return it == samples.begin() ? it->value : std::prev(it)->value;
  };
  const auto starts = fw.trace().filter(sim::TraceCategory::kReconfigStart);
  const auto dones = fw.trace().filter(sim::TraceCategory::kReconfigDone);
  stats::Summary dark, after;
  for (std::size_t k = 0; k + 1 < std::min(starts.size(), dones.size()); ++k) {
    if (dones[k].at <= starts[k].at) continue;
    dark.record(occupancy_at(dones[k].at) - occupancy_at(starts[k].at));
    const Time after_end = dones[k].at + (dones[k].at - starts[k].at);
    if (after_end < starts[k + 1].at) {
      after.record(occupancy_at(after_end) - occupancy_at(dones[k].at));
    }
  }
  ASSERT_GT(dark.count(), 100u);
  EXPECT_GE(dark.mean(), 0.5 * 3.1 * 1024);
  EXPECT_LE(dark.mean(), 2.0 * 3.1 * 1024);
  EXPECT_LE(after.mean(), 0.5 * -44.0 * 1024);
  EXPECT_GE(after.mean(), 2.0 * -44.0 * 1024);
}

}  // namespace
}  // namespace xdrs
