// Parameterized property sweeps over the full framework: delivery and
// conservation invariants must hold across schedulers, loads, placements
// and traffic patterns.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/framework.hpp"
#include "topo/fat_tree.hpp"
#include "topo/testbed.hpp"

namespace xdrs::core {
namespace {

using sim::Time;
using namespace xdrs::sim::literals;

// ---------------------------------------------------------- slotted sweep

struct SlottedCase {
  std::string matcher;
  double load;
};

class SlottedSweep : public ::testing::TestWithParam<SlottedCase> {};

TEST_P(SlottedSweep, DeliversAndConserves) {
  const auto& param = GetParam();
  FrameworkConfig c;
  c.ports = 4;
  c.discipline = SchedulingDiscipline::kSlotted;
  c.slot_time = 5_us;
  c.ocs_reconfig = 50_ns;
  c.seed = 5;  // feeds randomized matchers (pim) via the policy context
  topo::FatTree ft{{}, c};
  HybridSwitchFramework& fw = ft.rack(0);
  fw.set_policies(PolicyStack{}.with_matcher(param.matcher));

  topo::WorkloadSpec spec;
  spec.kind = topo::WorkloadSpec::Kind::kPoissonUniform;
  spec.load = param.load;
  spec.seed = 17;
  topo::attach_workload(fw, spec);

  const RunReport r = ft.run(4_ms, 1_ms);
  EXPECT_LE(r.delivered_bytes, r.offered_bytes);
  EXPECT_GT(r.offered_packets, 0u);
  // Low-to-moderate uniform load: every demand-aware matcher must deliver
  // the bulk of it (rotor is demand-oblivious but still work-conserving
  // across N-1 rotations at these loads).
  EXPECT_GT(r.delivery_ratio(), 0.80) << param.matcher << " @ " << param.load << "\n"
                                      << r.summary();
  EXPECT_EQ(r.voq_drops, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MatcherLoadGrid, SlottedSweep,
    ::testing::Values(SlottedCase{"islip:1", 0.3}, SlottedCase{"islip:4", 0.5},
                      SlottedCase{"pim:4", 0.4}, SlottedCase{"rrm:1", 0.2},
                      SlottedCase{"ilqf", 0.4}, SlottedCase{"maxsize", 0.4},
                      SlottedCase{"maxweight", 0.3}, SlottedCase{"rotor", 0.3}),
    [](const ::testing::TestParamInfo<SlottedCase>& param_info) {
      std::string name = param_info.param.matcher + "_l" +
                         std::to_string(static_cast<int>(param_info.param.load * 100));
      for (char& ch : name) {
        if (ch == ':') ch = 'i';
      }
      return name;
    });

// ----------------------------------------------------------- hybrid sweep

struct HybridCase {
  const char* scheduler;  // "solstice", "cthrough", "tms"
  topo::WorkloadSpec::Kind workload;
  double load_or_skew;
};

class HybridSweep : public ::testing::TestWithParam<HybridCase> {};

TEST_P(HybridSweep, DeliversAndConserves) {
  const auto& param = GetParam();
  FrameworkConfig c;
  c.ports = 4;
  c.discipline = SchedulingDiscipline::kHybridEpoch;
  c.epoch = 100_us;
  c.ocs_reconfig = 1_us;
  c.min_circuit_hold = 10_us;
  topo::FatTree ft{{}, c};
  HybridSwitchFramework& fw = ft.rack(0);
  fw.set_policies(PolicyStack{}.with_circuit(param.scheduler));

  topo::WorkloadSpec spec;
  spec.kind = param.workload;
  spec.load = param.load_or_skew;
  if (param.workload == topo::WorkloadSpec::Kind::kPoissonHotspot ||
      param.workload == topo::WorkloadSpec::Kind::kPoissonZipf) {
    spec.load = 0.3;
    spec.skew = param.load_or_skew;
  }
  spec.seed = 23;
  topo::attach_workload(fw, spec);

  const RunReport r = ft.run(4_ms, 1_ms);
  EXPECT_LE(r.delivered_bytes, r.offered_bytes);
  EXPECT_GT(r.offered_packets, 0u);
  EXPECT_GT(r.delivery_ratio(), 0.70)
      << param.scheduler << "/" << spec.name() << "\n"
      << r.summary();
}

INSTANTIATE_TEST_SUITE_P(
    SchedulerWorkloadGrid, HybridSweep,
    ::testing::Values(
        HybridCase{"solstice", topo::WorkloadSpec::Kind::kPoissonUniform, 0.4},
        HybridCase{"solstice", topo::WorkloadSpec::Kind::kPermutation, 0.5},
        HybridCase{"solstice", topo::WorkloadSpec::Kind::kPoissonZipf, 1.2},
        HybridCase{"cthrough", topo::WorkloadSpec::Kind::kPoissonUniform, 0.3},
        HybridCase{"cthrough", topo::WorkloadSpec::Kind::kPermutation, 0.4},
        HybridCase{"tms", topo::WorkloadSpec::Kind::kPoissonUniform, 0.3},
        HybridCase{"tms", topo::WorkloadSpec::Kind::kPoissonHotspot, 0.4}),
    [](const ::testing::TestParamInfo<HybridCase>& param_info) {
      return std::string{param_info.param.scheduler} + "_w" +
             std::to_string(static_cast<int>(param_info.param.workload)) + "_" +
             std::to_string(param_info.index);
    });

// ------------------------------------------------------- placement sweep

class PlacementSweep : public ::testing::TestWithParam<BufferPlacement> {};

TEST_P(PlacementSweep, BothPlacementsDeliverUnderModestLoad) {
  FrameworkConfig c;
  c.ports = 4;
  c.discipline = SchedulingDiscipline::kHybridEpoch;
  c.epoch = 200_us;
  c.ocs_reconfig = 1_us;
  c.min_circuit_hold = 20_us;
  c.placement = GetParam();
  topo::FatTree ft{{}, c};
  HybridSwitchFramework& fw = ft.rack(0);
  fw.use_default_policies();
  topo::WorkloadSpec spec;
  spec.load = 0.3;
  topo::attach_workload(fw, spec);
  const RunReport r = ft.run(4_ms, 1_ms);
  EXPECT_GT(r.delivery_ratio(), 0.60) << to_string(GetParam()) << "\n" << r.summary();
}

INSTANTIATE_TEST_SUITE_P(Placements, PlacementSweep,
                         ::testing::Values(BufferPlacement::kToRSwitch, BufferPlacement::kHost),
                         [](const ::testing::TestParamInfo<BufferPlacement>& param_info) {
                           return param_info.param == BufferPlacement::kToRSwitch ? "tor" : "host";
                         });

// ----------------------------------------------- reconfiguration overhead

class ReconfigSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ReconfigSweep, SlowerSwitchingNeverImprovesDelivery) {
  // Runs the same workload with increasing dark time; delivery must be
  // non-increasing (up to small noise) and duty cycle must fall.
  const auto run_with = [](Time dark) {
    FrameworkConfig c;
    c.ports = 4;
    c.discipline = SchedulingDiscipline::kHybridEpoch;
    c.epoch = 200_us;
    c.ocs_reconfig = dark;
    c.min_circuit_hold = 20_us;
    topo::FatTree ft{{}, c};
    HybridSwitchFramework& fw = ft.rack(0);
    fw.use_default_policies();
    topo::WorkloadSpec spec;
    spec.kind = topo::WorkloadSpec::Kind::kOnOffBursts;
    spec.mean_on = 40_us;
    spec.mean_off = 120_us;
    spec.seed = 5;
    topo::attach_workload(fw, spec);
    return ft.run(4_ms, 1_ms);
  };
  const Time dark = Time::nanoseconds(GetParam());
  const RunReport fast = run_with(10_ns);
  const RunReport slow = run_with(dark);
  EXPECT_GE(fast.delivery_ratio() + 0.05, slow.delivery_ratio())
      << "dark=" << dark.to_string();
}

INSTANTIATE_TEST_SUITE_P(DarkTimes, ReconfigSweep,
                         ::testing::Values(1'000, 10'000, 100'000));  // 1 us .. 100 us

}  // namespace
}  // namespace xdrs::core
