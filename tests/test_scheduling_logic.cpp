// Tests for the scheduling logic driver and the switching logic:
// configure-before-grant ordering, slotted and hybrid disciplines, timing
// model application and plan supersession.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/scheduling_logic.hpp"
#include "schedulers/rga.hpp"
#include "schedulers/solstice.hpp"

namespace xdrs::core {
namespace {

using sim::Time;
using namespace xdrs::sim::literals;

struct Rig {
  explicit Rig(FrameworkConfig c) : cfg{c} {
    ocs = std::make_unique<switching::OpticalCircuitSwitch>(
        sim, switching::OcsConfig{cfg.ports, cfg.link_rate, cfg.ocs_reconfig,
                                  cfg.ocs_fabric_latency});
    switching = std::make_unique<SwitchingLogic>(sim, *ocs, trace);
    sched = std::make_unique<SchedulingLogic>(sim, cfg, *switching, trace);
    sched->set_grant_callback([this](const control::GrantSet& gs) {
      for (const auto& g : gs.grants) grants.push_back(g);
      grant_times.push_back(sim.now());
    });
    sched->set_estimator(std::make_unique<demand::InstantaneousEstimator>(cfg.ports, cfg.ports));
    sched->set_timing_model(std::make_unique<control::IdealTimingModel>());
  }

  FrameworkConfig cfg;
  sim::Simulator sim;
  sim::TraceRecorder trace;
  std::unique_ptr<switching::OpticalCircuitSwitch> ocs;
  std::unique_ptr<SwitchingLogic> switching;
  std::unique_ptr<SchedulingLogic> sched;
  std::vector<control::Grant> grants;
  std::vector<Time> grant_times;
};

FrameworkConfig slotted_config() {
  FrameworkConfig c;
  c.ports = 4;
  c.discipline = SchedulingDiscipline::kSlotted;
  c.slot_time = 10_us;
  c.ocs_reconfig = 100_ns;
  return c;
}

FrameworkConfig hybrid_config() {
  FrameworkConfig c;
  c.ports = 4;
  c.discipline = SchedulingDiscipline::kHybridEpoch;
  c.epoch = 1_ms;
  c.ocs_reconfig = 1_us;
  c.min_circuit_hold = 10_us;
  return c;
}

/// Decision latencies alternating around a 10 us slot: 15 us, then 2 us.
class AlternatingTimingModel final : public control::SchedulerTimingModel {
 public:
  [[nodiscard]] control::TimingBreakdown decision_latency(std::uint32_t, std::uint32_t,
                                                          bool) const override {
    control::TimingBreakdown b;
    b.schedule_computation = calls_++ % 2 == 0 ? 15_us : 2_us;
    return b;
  }
  [[nodiscard]] std::string name() const override { return "alternating"; }

 private:
  mutable std::uint64_t calls_{0};
};

TEST(SwitchingLogic, ConfigureFiresReadyAfterDarkPeriod) {
  Rig rig{slotted_config()};
  std::vector<Time> ready_at;
  rig.switching->configure(schedulers::Matching::rotation(4, 1),
                           [&](Time t) { ready_at.push_back(t); });
  rig.sim.run();
  ASSERT_EQ(ready_at.size(), 1u);
  EXPECT_EQ(ready_at[0], 100_ns);
  EXPECT_EQ(rig.switching->stats().configurations_completed, 1u);
}

TEST(SwitchingLogic, NewerConfigureSupersedesPending) {
  Rig rig{slotted_config()};
  int first_fired = 0, second_fired = 0;
  rig.switching->configure(schedulers::Matching::rotation(4, 1),
                           [&](Time) { ++first_fired; });
  rig.switching->configure(schedulers::Matching::rotation(4, 2),
                           [&](Time) { ++second_fired; });
  rig.sim.run();
  EXPECT_EQ(first_fired, 0);  // superseded callback must never fire
  EXPECT_EQ(second_fired, 1);
}

TEST(SchedulingLogic, RequiresPlugins) {
  Rig rig{slotted_config()};
  // No matcher installed for slotted discipline.
  EXPECT_THROW(rig.sched->start(), std::logic_error);
}

TEST(SchedulingLogic, SlottedGrantsFollowConfiguration) {
  Rig rig{slotted_config()};
  rig.sched->set_matcher(std::make_unique<schedulers::IslipMatcher>(4, 2));
  rig.sched->on_arrival(0, 1, 5000, Time::zero());
  rig.sched->start();
  rig.sim.run_until(9_us);  // one slot
  ASSERT_FALSE(rig.grants.empty());
  const auto& g = rig.grants.front();
  EXPECT_EQ(g.src, 0u);
  EXPECT_EQ(g.dst, 1u);
  EXPECT_EQ(g.via, control::FabricPath::kOcs);
  // Grants must only appear after the 100 ns reconfiguration.
  EXPECT_GE(rig.grant_times.front(), 100_ns);
  // And the OCS is configured to match.
  EXPECT_TRUE(rig.ocs->circuit_up(0, 1));
}

TEST(SchedulingLogic, SlottedGrantBytesMatchSlotCapacity) {
  Rig rig{slotted_config()};
  rig.sched->set_matcher(std::make_unique<schedulers::IslipMatcher>(4, 2));
  rig.sched->on_arrival(0, 1, 1 << 20, Time::zero());
  rig.sched->start();
  rig.sim.run_until(9_us);
  ASSERT_FALSE(rig.grants.empty());
  // 10 us at 10 Gbps = 12500 bytes.
  EXPECT_EQ(rig.grants.front().bytes, 12'500);
}

TEST(SchedulingLogic, SlottedTicksEverySlot) {
  Rig rig{slotted_config()};
  rig.sched->set_matcher(std::make_unique<schedulers::IslipMatcher>(4, 2));
  rig.sched->on_arrival(0, 1, 5000, Time::zero());
  rig.sched->start();
  rig.sim.run_until(95_us);
  EXPECT_EQ(rig.sched->stats().decisions, 10u);
}

TEST(SchedulingLogic, EmptyDemandProducesNoGrants) {
  Rig rig{slotted_config()};
  rig.sched->set_matcher(std::make_unique<schedulers::IslipMatcher>(4, 2));
  rig.sched->start();
  rig.sim.run_until(50_us);
  EXPECT_TRUE(rig.grants.empty());
  EXPECT_GT(rig.sched->stats().decisions, 0u);
}

TEST(SchedulingLogic, TimingModelDelaysGrants) {
  FrameworkConfig cfg = slotted_config();
  // The software loop takes ~1 ms; the slot must outlast it or every grant
  // window closes before the decision lands (itself a meaningful result —
  // see SlottedSlotShorterThanSoftwareLoopStarves below).
  cfg.slot_time = 5_ms;
  Rig rig{cfg};
  rig.sched->set_matcher(std::make_unique<schedulers::IslipMatcher>(4, 2));
  control::SoftwareTimingConfig stc;  // default: hundreds of us
  rig.sched->set_timing_model(std::make_unique<control::SoftwareSchedulerTimingModel>(stc));
  rig.sched->on_arrival(0, 1, 5000, Time::zero());
  rig.sched->start();
  rig.sim.run_until(5_ms);  // the software loop takes most of a millisecond
  ASSERT_FALSE(rig.grant_times.empty());
  const Time expected_min = rig.sched->last_breakdown().total();
  EXPECT_GE(rig.grant_times.front(), expected_min);
}

TEST(SchedulingLogic, SlottedSlotShorterThanSoftwareLoopStarves) {
  // The paper's core failure mode, end to end: a millisecond software
  // scheduler cannot drive a microsecond slot loop — every window has
  // closed by the time its grants arrive, so no traffic is ever granted.
  Rig rig{slotted_config()};  // 10 us slots
  rig.sched->set_matcher(std::make_unique<schedulers::IslipMatcher>(4, 2));
  rig.sched->set_timing_model(std::make_unique<control::SoftwareSchedulerTimingModel>());
  rig.sched->on_arrival(0, 1, 5000, Time::zero());
  rig.sched->start();
  rig.sim.run_until(10_ms);
  EXPECT_TRUE(rig.grants.empty());
  EXPECT_GT(rig.sched->stats().decisions, 100u);  // it keeps deciding, uselessly
}

TEST(SchedulingLogic, SlottedRetunesNeverFallInsideANewerDecisionsWindow) {
  // Every slow decision completes after the next, fast one has retuned the
  // OCS and opened its window.  Applying the slow one then would retune
  // under that window and cut its packets, so it must be dropped.
  Rig rig{slotted_config()};
  rig.trace.enable();
  rig.sched->set_matcher(std::make_unique<schedulers::IslipMatcher>(4, 2));
  rig.sched->set_timing_model(std::make_unique<AlternatingTimingModel>());
  rig.sched->on_arrival(0, 1, 1 << 20, Time::zero());
  rig.sched->start();
  rig.sim.run_until(200_us);

  const std::vector<sim::TraceEvent> retunes =
      rig.trace.filter(sim::TraceCategory::kReconfigStart);
  ASSERT_FALSE(rig.grants.empty());
  ASSERT_FALSE(retunes.empty());
  for (const control::Grant& g : rig.grants) {
    for (const sim::TraceEvent& r : retunes) {
      EXPECT_FALSE(r.at >= g.valid_from && r.at < g.valid_until + rig.cfg.ocs_path_latency())
          << "retune at " << r.at.us() << " us inside the window [" << g.valid_from.us() << ", "
          << g.valid_until.us() << "] us";
    }
  }
}

TEST(SchedulingLogic, HybridEmitsEpsResidualAndCircuitSlots) {
  Rig rig{hybrid_config()};
  schedulers::SolsticeConfig sc;
  sc.reconfig_cost_bytes = 50'000;  // mice stay electrical
  rig.sched->set_circuit_scheduler(std::make_unique<schedulers::SolsticeScheduler>(sc));
  // One elephant pair and one mouse pair.
  rig.sched->on_arrival(0, 1, 1 << 20, Time::zero());
  rig.sched->on_arrival(2, 3, 200, Time::zero());
  rig.sched->start();
  rig.sim.run_until(900_us);

  bool saw_ocs = false, saw_eps_mouse = false;
  for (const auto& g : rig.grants) {
    if (g.via == control::FabricPath::kOcs && g.src == 0 && g.dst == 1) saw_ocs = true;
    if (g.via == control::FabricPath::kEps && g.src == 2 && g.dst == 3) saw_eps_mouse = true;
  }
  EXPECT_TRUE(saw_ocs);
  EXPECT_TRUE(saw_eps_mouse);
}

TEST(SchedulingLogic, HybridSlotsAreSequential) {
  Rig rig{hybrid_config()};
  schedulers::SolsticeConfig sc;  // free circuits: several slots
  rig.sched->set_circuit_scheduler(std::make_unique<schedulers::SolsticeScheduler>(sc));
  rig.sched->on_arrival(0, 1, 100'000, Time::zero());
  rig.sched->on_arrival(1, 2, 60'000, Time::zero());
  rig.sched->on_arrival(2, 0, 20'000, Time::zero());
  rig.sched->start();
  rig.sim.run_until(900_us);

  // OCS grant windows for the same epoch must not overlap (sequential
  // days): sort by start and verify.
  std::vector<std::pair<Time, Time>> windows;
  for (const auto& g : rig.grants) {
    if (g.via == control::FabricPath::kOcs) windows.emplace_back(g.valid_from, g.valid_until);
  }
  ASSERT_GE(windows.size(), 2u);
  std::sort(windows.begin(), windows.end());
  // Windows of the same pair within a slot coincide; distinct slots must
  // be disjoint.
  for (std::size_t i = 1; i < windows.size(); ++i) {
    if (windows[i].first == windows[i - 1].first) continue;  // same slot
    EXPECT_GE(windows[i].first, windows[i - 1].second);
  }
}

TEST(SchedulingLogic, HybridWindowsLetTheLastPacketClearTheFabric) {
  // The next slot retunes as soon as this one's hold ends: each window must
  // close a whole OCS path latency (the fabric, plus the host link in host
  // placement) before that retune, or its last packet is cut.
  for (const BufferPlacement placement : {BufferPlacement::kToRSwitch, BufferPlacement::kHost}) {
    FrameworkConfig c = hybrid_config();
    c.placement = placement;
    Rig rig{c};
    schedulers::SolsticeConfig sc;
    rig.sched->set_circuit_scheduler(std::make_unique<schedulers::SolsticeScheduler>(sc));
    rig.sched->on_arrival(0, 1, 100'000, Time::zero());
    rig.sched->on_arrival(1, 2, 60'000, Time::zero());
    rig.sched->on_arrival(2, 0, 20'000, Time::zero());
    rig.sched->start();
    rig.sim.run_until(900_us);

    std::vector<std::pair<Time, Time>> windows;
    for (const auto& g : rig.grants) {
      if (g.via == control::FabricPath::kOcs) windows.emplace_back(g.valid_from, g.valid_until);
    }
    std::sort(windows.begin(), windows.end());
    windows.erase(std::unique(windows.begin(), windows.end()), windows.end());
    ASSERT_GE(windows.size(), 2u);
    for (std::size_t i = 1; i < windows.size(); ++i) {
      const Time next_retune = windows[i].first - c.ocs_reconfig;  // no guard band
      EXPECT_LE(windows[i - 1].second + c.ocs_path_latency(), next_retune)
          << to_string(placement) << " slot " << i;
    }
  }
}

TEST(SchedulingLogic, HybridAccountsPlanStatistics) {
  Rig rig{hybrid_config()};
  schedulers::SolsticeConfig sc;
  rig.sched->set_circuit_scheduler(std::make_unique<schedulers::SolsticeScheduler>(sc));
  rig.sched->on_arrival(0, 1, 100'000, Time::zero());
  rig.sched->start();
  rig.sim.run_until(3_ms);
  EXPECT_GE(rig.sched->stats().decisions, 3u);
  EXPECT_GT(rig.sched->stats().plan_slots.count(), 0u);
}

TEST(SchedulingLogic, RequestsAreCounted) {
  Rig rig{hybrid_config()};
  schedulers::SolsticeConfig sc;
  rig.sched->set_circuit_scheduler(std::make_unique<schedulers::SolsticeScheduler>(sc));
  control::SchedulingRequest req;
  rig.sched->on_request(req);
  rig.sched->on_request(req);
  EXPECT_EQ(rig.sched->stats().requests_received, 2u);
}

TEST(SchedulingLogic, GuardBandShrinksGrantWindows) {
  FrameworkConfig c = hybrid_config();
  c.sync.guard_band = 2_us;
  Rig rig{c};
  schedulers::SolsticeConfig sc;
  rig.sched->set_circuit_scheduler(std::make_unique<schedulers::SolsticeScheduler>(sc));
  rig.sched->on_arrival(0, 1, 100'000, Time::zero());
  rig.sched->start();
  rig.sim.run_until(900_us);

  for (const auto& g : rig.grants) {
    if (g.via != control::FabricPath::kOcs) continue;
    // Each window must leave >= guard band after the reconfiguration that
    // preceded it (valid_from = up + guard).
    EXPECT_GE(g.valid_from, rig.cfg.ocs_reconfig + 2_us);
  }
}

}  // namespace
}  // namespace xdrs::core
