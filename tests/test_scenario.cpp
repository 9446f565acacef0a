// Tests for the declarative scenario layer: registry round-trips, fluent
// grid mutators, materialization of the policy stack, and error paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "exp/scenario.hpp"

namespace xdrs::exp {
namespace {

using namespace xdrs::sim::literals;

TEST(ScenarioRegistry, KnowsTheBuiltInScenarios) {
  const auto names = known_scenarios();
  for (const char* expected : {"uniform", "hotspot", "zipf", "permutation", "onoff", "flows",
                               "shuffle", "incast", "voip", "trace", "incast+background",
                               "shuffle+voip", "onoff+mice"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing scenario " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ScenarioRegistry, UnknownNameThrowsWithKnownList) {
  try {
    (void)make_scenario("no-such-scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("uniform"), std::string::npos);
  }
}

TEST(ScenarioRegistry, RegisterExtendAndDuplicateRejected) {
  register_scenario("test-custom", [](std::uint32_t ports, double load, std::uint64_t seed) {
    ScenarioSpec s = make_scenario("uniform", ports, load, seed);
    s.scenario = "test-custom";
    return s;
  });
  const ScenarioSpec s = make_scenario("test-custom", 4, 0.25, 3);
  EXPECT_EQ(s.scenario, "test-custom");
  EXPECT_EQ(s.config.ports, 4u);
  EXPECT_DOUBLE_EQ(s.load(), 0.25);
  EXPECT_THROW(register_scenario("test-custom", [](std::uint32_t, double, std::uint64_t) {
                 return ScenarioSpec{};
               }),
               std::invalid_argument);
}

TEST(ScenarioSpec, RoundTripsThroughRegistryParameters) {
  for (const auto& name : known_scenarios()) {
    const ScenarioSpec s = make_scenario(name, 8, 0.4, 11);
    EXPECT_EQ(s.scenario, name);
    EXPECT_EQ(s.config.ports, 8u);
    EXPECT_EQ(s.config.seed, 11u);
    EXPECT_FALSE(s.workloads.empty()) << name;
  }
}

TEST(ScenarioSpec, FluentMutatorsComposeAndKeyReflectsThem) {
  ScenarioSpec s = make_scenario("uniform", 8, 0.5, 7)
                       .with_ports(16)
                       .with_load(0.75)
                       .with_matcher("islip:4")
                       .with_seed(21)
                       .with_window(1_ms, 100_us);
  EXPECT_EQ(s.config.ports, 16u);
  EXPECT_DOUBLE_EQ(s.load(), 0.75);
  EXPECT_EQ(s.policies.matcher, "islip:4");
  EXPECT_EQ(s.config.seed, 21u);
  EXPECT_EQ(s.duration, 1_ms);
  EXPECT_EQ(s.warmup, 100_us);
  EXPECT_EQ(s.key(), "uniform/slotted/islip:4/solstice/instantaneous/hardware/p16/l0.75/s21");
}

TEST(ScenarioSpec, LoadAndPortsMutatorsRederiveIndirectWorkloadFields) {
  // ON/OFF bursts encode load as a duty cycle: mean_off must track it.
  ScenarioSpec onoff = make_scenario("onoff", 8, 0.5, 7);
  const sim::Time off_at_half = onoff.workloads.front().mean_off;
  onoff.with_load(0.9);
  EXPECT_LT(onoff.workloads.front().mean_off, off_at_half);
  EXPECT_DOUBLE_EQ(onoff.load(), 0.9);

  // Incast encodes load x ports as the per-worker response size.
  ScenarioSpec incast = make_scenario("incast", 8, 0.5, 7);
  const std::int64_t resp = incast.workloads.front().response_bytes;
  incast.with_load(0.9);
  EXPECT_GT(incast.workloads.front().response_bytes, resp);
  incast.with_ports(4);  // fewer workers -> bigger per-worker answers
  EXPECT_GT(incast.workloads.front().response_bytes,
            make_scenario("incast", 8, 0.9, 7).workloads.front().response_bytes);
  EXPECT_EQ(make_scenario("incast", 4, 0.9, 7).workloads.front().response_bytes,
            incast.workloads.front().response_bytes);
}

TEST(ScenarioSpec, KeyKeepsFullLoadPrecision) {
  // The key is an identity: loads differing beyond any fixed decimal count
  // must still render apart (shortest-round-trip, not %.2f or %g).
  const ScenarioSpec a = make_scenario("uniform", 8, 0.1234561, 7);
  const ScenarioSpec b = make_scenario("uniform", 8, 0.1234564, 7);
  EXPECT_NE(a.key(), b.key());
  EXPECT_EQ(make_scenario("uniform", 8, 0.5, 7).key(),
            "uniform/slotted/islip:2/solstice/instantaneous/hardware/p8/l0.5/s7");
}

TEST(ScenarioSpec, KeyDistinguishesDisciplines) {
  // A mutator can flip slotted vs hybrid on one scenario — the repo's
  // headline comparison — so the discipline must be part of the key.
  const ScenarioSpec slotted = make_scenario("uniform", 8, 0.5, 7);
  ScenarioSpec hybrid = slotted;
  hybrid.config.discipline = core::SchedulingDiscipline::kHybridEpoch;
  EXPECT_NE(slotted.key(), hybrid.key());
}

TEST(ScenarioSpec, WithLoadNormalisesSharesOverAnyWorkloadCount) {
  // Hand-assembled multi-workload specs (shares left at 1.0) split the load
  // evenly: load() must equal the requested load, never a multiple of it.
  ScenarioSpec s = make_scenario("uniform", 8, 0.5, 7);
  s.workloads.push_back(s.workloads.front());
  s.with_load(0.5);
  EXPECT_DOUBLE_EQ(s.load(), 0.5);
  EXPECT_DOUBLE_EQ(s.workloads[0].load, 0.25);
  EXPECT_DOUBLE_EQ(s.workloads[1].load, 0.25);
}

TEST(ScenarioSpec, CompositeMergesWorkloadsSharesAndVoip) {
  ScenarioSpec s = make_scenario("incast+background", 8, 0.6, 7);
  ASSERT_EQ(s.workloads.size(), 2u);
  EXPECT_EQ(s.workloads[0].kind, topo::WorkloadSpec::Kind::kIncast);
  EXPECT_EQ(s.workloads[1].kind, topo::WorkloadSpec::Kind::kPoissonUniform);
  EXPECT_DOUBLE_EQ(s.workloads[0].share, 0.4);
  EXPECT_DOUBLE_EQ(s.workloads[1].share, 0.6);
  EXPECT_NE(s.workloads[0].seed, s.workloads[1].seed);
  EXPECT_NEAR(s.load(), 0.6, 1e-12);

  // One load axis drives the whole mix, split by share.
  s.with_load(0.8);
  EXPECT_NEAR(s.load(), 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(s.workloads[1].load, 0.8 * 0.6);

  // The anchor part supplies the config: composites run hybrid.
  EXPECT_EQ(s.config.discipline, core::SchedulingDiscipline::kHybridEpoch);

  // VOIP overlays merge; the zero-share part contributes no workload.
  const ScenarioSpec sv = make_scenario("shuffle+voip", 8, 0.5, 7);
  EXPECT_GT(sv.voip_pairs, 0u);
  ASSERT_EQ(sv.workloads.size(), 1u);
  EXPECT_EQ(sv.workloads[0].kind, topo::WorkloadSpec::Kind::kShuffle);
  EXPECT_NEAR(sv.load(), 0.5, 1e-12);

  EXPECT_THROW((void)ScenarioSpec::composite("x", {}, {}), std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::composite("x", {s}, {0.5, 0.5}), std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::composite("x", {s}, {-1.0}), std::invalid_argument);

  // Degenerate share weights are an error, not a silently zeroed point.
  ScenarioSpec zero = make_scenario("uniform", 8, 0.5, 7);
  zero.workloads[0].share = 0.0;
  EXPECT_THROW(zero.with_load(0.5), std::invalid_argument);
}

TEST(ScenarioSpec, EffectiveLoadExposesClampedDerivations) {
  // ON/OFF clamps the duty cycle into [0.05, 0.95]: requesting 0.99 runs at
  // 0.95, and the spec must say so instead of claiming 0.99.
  ScenarioSpec onoff = make_scenario("onoff", 8, 0.5, 7).with_load(0.99);
  EXPECT_DOUBLE_EQ(onoff.load(), 0.99);
  EXPECT_NEAR(onoff.effective_load(), 0.95, 1e-6);

  // Incast floors the per-worker response at one minimum frame: a tiny load
  // over a short period actually offers far more than requested.
  ScenarioSpec incast = make_scenario("incast", 8, 0.5, 7);
  incast.workloads[0].period = sim::Time::microseconds(1);
  incast.with_load(0.0001);
  EXPECT_GT(incast.effective_load(), 100 * incast.load());

  // Both loads appear in the artefact fields.
  bool saw_load = false;
  bool saw_effective = false;
  for (const auto& f : onoff.fields()) {
    saw_load |= f.name() == "load";
    saw_effective |= f.name() == "effective_load";
  }
  EXPECT_TRUE(saw_load);
  EXPECT_TRUE(saw_effective);

  // And in the exhaustive cache identity, per workload.
  EXPECT_NE(onoff.identity_json().find("\"effective_load\""), std::string::npos);
}

TEST(ScenarioSpec, MaterializeBuildsTheConfiguredFramework) {
  const ScenarioSpec s = make_scenario("uniform", 4, 0.5, 7);
  const auto ft = materialize(s);
  ASSERT_NE(ft, nullptr);
  ASSERT_EQ(ft->racks(), 1u);  // a single switch is a 1-rack tree
  EXPECT_EQ(ft->uplink_ports(), 0u);
  EXPECT_EQ(ft->rack(0).config().ports, 4u);
  EXPECT_EQ(ft->rack(0).config().discipline, core::SchedulingDiscipline::kSlotted);
}

TEST(ScenarioSpec, MaterializeRejectsUnknownPolicies) {
  ScenarioSpec s = make_scenario("uniform", 4, 0.5, 7);
  s.policies.estimator = "psychic";
  EXPECT_THROW((void)materialize(s), std::invalid_argument);

  s = make_scenario("uniform", 4, 0.5, 7);
  s.policies.timing = "quantum";
  EXPECT_THROW((void)materialize(s), std::invalid_argument);

  s = make_scenario("onoff", 4, 0.5, 7);
  s.policies.circuit = "wormhole";
  EXPECT_THROW((void)materialize(s), std::invalid_argument);
}

TEST(ScenarioSpec, EveryBuiltInScenarioActuallyRuns) {
  // The "trace" scenario reads its CSV from the repo root; tests run from
  // the build tree, so synthesize an equivalent trace in a temp file and
  // point any trace workload at it.  Per-process name: concurrent ctest
  // runs (e.g. a plain and a sanitizer build) must not race on one file.
  const std::string trace_path =
      (std::filesystem::temp_directory_path() /
       ("xdrs_scenario_trace_" + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    std::ofstream out{trace_path, std::ios::trunc};
    out << "start_us,src,dst,bytes,priority\n";
    for (int i = 0; i < 40; ++i) {
      const int src = i % 7;
      out << i * 20 << ',' << src << ',' << (src + 1 + i % 3) % 8 << ',' << 20'000 + i * 997
          << ',' << i % 3 << '\n';
    }
  }
  // Likewise for empirical workloads: the bundled CDFs live in the repo
  // root, and the datamining tail (mean ~50 MB flows) would starve a 5 ms
  // window anyway — substitute a small-flow CDF so every scenario observes
  // traffic.
  const std::string cdf_path =
      (std::filesystem::temp_directory_path() /
       ("xdrs_scenario_cdf_" + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    std::ofstream out{cdf_path, std::ios::trunc};
    out << "bytes,cdf\n2000,0.3\n20000,0.8\n100000,1.0\n";
  }
  for (const auto& name : known_scenarios()) {
    if (name == "test-custom") continue;  // registered by an earlier test
    // Flow-level scenarios start slowly (flow interarrivals are milliseconds
    // at low load), so give every scenario a window long enough to observe.
    ScenarioSpec s = make_scenario(name, 4, 0.5, 5).with_window(5_ms, 500_us);
    for (auto& w : s.workloads) {
      if (w.kind == topo::WorkloadSpec::Kind::kTraceReplay) w.trace_path = trace_path;
      if (w.kind == topo::WorkloadSpec::Kind::kEmpirical) w.cdf_path = cdf_path;
      // Deadline budgets drawn from a CDF read a bundled file too.
      if (w.deadline.kind == traffic::DeadlineSpec::Kind::kCdf) w.deadline.cdf_path = cdf_path;
    }
    const core::RunReport r = run_scenario(s);
    EXPECT_GT(r.offered_packets, 0u) << name;
    EXPECT_GT(r.delivered_packets, 0u) << name;
  }
  std::filesystem::remove(trace_path);
  std::filesystem::remove(cdf_path);
}

TEST(ScenarioSpec, SameSpecIsReproducible) {
  const ScenarioSpec s = make_scenario("shuffle", 4, 0.4, 13).with_window(500_us, 100_us);
  const core::RunReport a = run_scenario(s);
  const core::RunReport b = run_scenario(s);
  EXPECT_EQ(a.to_json(), b.to_json());
}

}  // namespace
}  // namespace xdrs::exp
