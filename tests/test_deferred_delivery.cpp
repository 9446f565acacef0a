// Differential test of the OCS's deferred deliveries: a run whose
// host-bound OCS deliveries are settled late must report exactly what the
// same run reports when every delivery is its own event.  Turning the
// trace recorder on gives every send its event, so each spec runs twice,
// traced (events) and untraced (settled), and the two report states and
// telemetry timelines must match byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "core/report_io.hpp"
#include "exp/scenario.hpp"
#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "topo/fat_tree.hpp"

namespace xdrs::exp {
namespace {

using sim::Time;
using namespace xdrs::sim::literals;

struct Outcome {
  std::string report;
  std::string timeline;
  std::uint64_t events{0};
};

/// Runs `spec` with every rack's trace recorder on or off, and with the
/// telemetry timeline sampled every `sample_period` (zero: auto) or, if
/// `telemetry` is false, off: the sampler settles deliveries too, so the
/// report is compared without it.
Outcome run(const ScenarioSpec& spec, bool traced, bool telemetry, Time sample_period) {
  const auto tree = materialize(spec);
  topo::FatTree& ft = *tree;
  if (traced) {
    for (std::uint32_t r = 0; r < ft.racks(); ++r) ft.rack(r).trace().enable();
  }
  if (telemetry) {
    obs::TelemetryConfig tc;
    tc.sample_period = sample_period;
    ft.enable_telemetry(tc);
  }
  const core::RunReport report = ft.run(spec.duration, spec.warmup);
  Outcome out{core::report_state_json(report), "", ft.simulator().stats().events_executed};
  if (telemetry) {
    out.timeline =
        obs::timeline_json(ft.telemetry()->timeline(), ft.telemetry()->resolved_period());
  }
  return out;
}

/// Two flow generators on every host (shuffle with SLO deadlines, and
/// mice/elephant flows), so flows complete over both fabrics.
ScenarioSpec two_flow_generators(std::uint32_t ports, double load, std::uint64_t seed) {
  ScenarioSpec shuffle = make_scenario("shuffle", ports, load, seed);
  for (auto& w : shuffle.workloads) {
    w.deadline.kind = traffic::DeadlineSpec::Kind::kSlo;
    w.deadline.slo_fraction = 0.25;
    w.deadline.slack = 20_us;
  }
  return ScenarioSpec::composite("shuffle+flows",
                                 {shuffle, make_scenario("flows", ports, load, seed)},
                                 {0.5, 0.5});
}

TEST(DeferredDelivery, SettledRunsReportExactlyWhatEventedRunsReport) {
  std::mt19937_64 rng{0x5e771e};
  int compared = 0;
  for (const std::uint32_t racks : {1u, 2u}) {
    for (const auto placement : {core::BufferPlacement::kToRSwitch, core::BufferPlacement::kHost}) {
      for (const bool slotted : {true, false}) {
        for (const bool voip : {true, false}) {
          const std::uint32_t ports = 4 + 2 * static_cast<std::uint32_t>(rng() % 3);
          const double load = 0.3 + 0.1 * static_cast<double>(rng() % 6);
          const std::uint64_t seed = 1 + rng() % 1000;
          ScenarioSpec spec = voip ? make_scenario("voip", ports, load, seed)
                                   : two_flow_generators(ports, load, seed);
          if (slotted) {
            spec.config.discipline = core::SchedulingDiscipline::kSlotted;
            spec.config.slot_time = Time::nanoseconds(12'500);
            spec.config.ocs_reconfig = 50_ns;
          }
          spec.config.placement = placement;
          spec.with_racks(racks).with_locality(0.5).with_window(2_ms, 500_us);
          // Round sample periods line samples up with slot boundaries, so
          // some deliveries fall due exactly at a sample.
          const Time periods[] = {Time::zero(), 1_us, 2500_ns};
          const Time period = periods[rng() % 3];

          const std::string what = spec.key() + " racks=" + std::to_string(racks) + " " +
                                   core::to_string(placement);
          const Outcome evented = run(spec, /*traced=*/true, /*telemetry=*/false, period);
          const Outcome settled = run(spec, /*traced=*/false, /*telemetry=*/false, period);
          EXPECT_EQ(settled.report, evented.report) << what;
          // Settling must have removed delivery events, or this compares
          // two evented runs.
          EXPECT_LT(settled.events, evented.events) << what;
          const Outcome evented_t = run(spec, /*traced=*/true, /*telemetry=*/true, period);
          const Outcome settled_t = run(spec, /*traced=*/false, /*telemetry=*/true, period);
          EXPECT_EQ(settled_t.report, evented.report) << what;
          EXPECT_EQ(evented_t.report, evented.report) << what;
          EXPECT_EQ(settled_t.timeline, evented_t.timeline) << what;
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 16);
}

}  // namespace
}  // namespace xdrs::exp
