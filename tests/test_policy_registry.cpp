// Tests for the unified PolicyRegistry and core::PolicyStack: construction
// of all four policy kinds from spec strings, error paths (unknown specs,
// malformed arguments, duplicate registration), user-side registration, and
// a round-trip guarantee that every advertised spec actually constructs and
// behaves.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/policy_stack.hpp"
#include "demand/demand_matrix.hpp"
#include "schedulers/policy_registry.hpp"
#include "schedulers/rotor.hpp"
#include "schedulers/solstice.hpp"

namespace xdrs::schedulers {
namespace {

PolicyContext ctx4() { return {.ports = 4, .seed = 42, .reconfig_cost_bytes = 1250}; }

demand::DemandMatrix full_demand(std::uint32_t n, std::int64_t v = 1000) {
  demand::DemandMatrix m{n};
  for (net::PortId i = 0; i < n; ++i) {
    for (net::PortId j = 0; j < n; ++j) m.set(i, j, v);
  }
  return m;
}

// ----------------------------------------------------------------- PolicySpec

TEST(PolicySpec, ParsesNameAndArgument) {
  const PolicySpec bare = PolicySpec::parse("islip");
  EXPECT_EQ(bare.name(), "islip");
  EXPECT_FALSE(bare.has_arg());
  EXPECT_EQ(bare.uint_arg(3), 3u);

  const PolicySpec with_arg = PolicySpec::parse("islip:4");
  EXPECT_EQ(with_arg.name(), "islip");
  EXPECT_EQ(with_arg.arg(), "4");
  EXPECT_EQ(with_arg.uint_arg(1), 4u);
  EXPECT_EQ(with_arg.str(), "islip:4");
}

TEST(PolicySpec, RejectsMalformedArguments) {
  EXPECT_THROW((void)PolicySpec::parse("islip:").uint_arg(1), std::invalid_argument);
  EXPECT_THROW((void)PolicySpec::parse("islip:abc").uint_arg(1), std::invalid_argument);
  EXPECT_THROW((void)PolicySpec::parse("islip:0").uint_arg(1), std::invalid_argument);
  EXPECT_THROW((void)PolicySpec::parse("islip:4x").uint_arg(1), std::invalid_argument);
  EXPECT_THROW((void)PolicySpec::parse("ewma:x").double_arg(0.5), std::invalid_argument);
  EXPECT_THROW((void)PolicySpec::parse("hardware:fast").mhz_arg(0.0), std::invalid_argument);
}

TEST(PolicySpec, ParsesFrequencies) {
  EXPECT_DOUBLE_EQ(PolicySpec::parse("hardware:500MHz").mhz_arg(0.0), 500.0);
  EXPECT_DOUBLE_EQ(PolicySpec::parse("hardware:500").mhz_arg(0.0), 500.0);
  EXPECT_DOUBLE_EQ(PolicySpec::parse("hardware:1.25GHz").mhz_arg(0.0), 1250.0);
  EXPECT_DOUBLE_EQ(PolicySpec::parse("hardware").mhz_arg(156.25), 156.25);
}

// ------------------------------------------------------------- error paths

TEST(PolicyRegistry, UnknownSpecsThrowWithKnownNamesListed) {
  auto& reg = PolicyRegistry::instance();
  EXPECT_THROW((void)reg.make_matcher("nope", ctx4()), std::invalid_argument);
  EXPECT_THROW((void)reg.make_circuit("wormhole", ctx4()), std::invalid_argument);
  EXPECT_THROW((void)reg.make_estimator("psychic", ctx4()), std::invalid_argument);
  EXPECT_THROW((void)reg.make_timing("quantum", ctx4()), std::invalid_argument);
  try {
    (void)reg.make_matcher("nope", ctx4());
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("islip"), std::string::npos)
        << "error should list known names: " << e.what();
  }
}

TEST(PolicyRegistry, RegistersNoAliasForInstantaneousOrSoftware) {
  // One name per policy: specs spell the canonical names.
  auto& reg = PolicyRegistry::instance();
  EXPECT_TRUE(reg.knows(PolicyKind::kEstimator, "instantaneous"));
  EXPECT_FALSE(reg.knows(PolicyKind::kEstimator, "instant"));
  EXPECT_TRUE(reg.knows(PolicyKind::kTiming, "software"));
  EXPECT_FALSE(reg.knows(PolicyKind::kTiming, "sw"));
}

TEST(PolicyRegistry, BadIterationSuffixThrows) {
  auto& reg = PolicyRegistry::instance();
  EXPECT_THROW((void)reg.make_matcher("islip:0", ctx4()), std::invalid_argument);
  EXPECT_THROW((void)reg.make_matcher("islip:abc", ctx4()), std::invalid_argument);
  EXPECT_THROW((void)reg.make_matcher("islip:", ctx4()), std::invalid_argument);
  EXPECT_THROW((void)reg.make_estimator("ewma:1.5", ctx4()), std::invalid_argument);
  EXPECT_THROW((void)reg.make_estimator("ewma:0", ctx4()), std::invalid_argument);
  EXPECT_THROW((void)reg.make_timing("hardware:0MHz", ctx4()), std::invalid_argument);
}

TEST(PolicyRegistry, DuplicateRegistrationThrows) {
  auto& reg = PolicyRegistry::instance();
  const auto factory = [](const PolicySpec&, const PolicyContext& c) {
    return std::make_unique<RotorMatcher>(c.ports);
  };
  // First registration of a fresh name succeeds...
  reg.register_matcher("test-dup", factory);
  EXPECT_TRUE(reg.knows(PolicyKind::kMatcher, "test-dup"));
  // ...re-registering it (and any built-in) throws.
  EXPECT_THROW(reg.register_matcher("test-dup", factory), std::invalid_argument);
  EXPECT_THROW(reg.register_matcher("islip", factory), std::invalid_argument);
  // Names that would break the spec / stack grammar are rejected outright.
  EXPECT_THROW(reg.register_matcher("bad:name", factory), std::invalid_argument);
  EXPECT_THROW(reg.register_matcher("bad/name", factory), std::invalid_argument);
  EXPECT_THROW(reg.register_matcher("", factory), std::invalid_argument);
}

// -------------------------------------------------------------- round trips

TEST(PolicyRegistry, EveryKnownMatcherSpecConstructsAndMatchesConflictFree) {
  auto& reg = PolicyRegistry::instance();
  const auto d = full_demand(4);
  const auto specs = reg.known_specs(PolicyKind::kMatcher);
  ASSERT_FALSE(specs.empty());
  for (const auto& spec : specs) {
    auto m = reg.make_matcher(spec, ctx4());
    ASSERT_NE(m, nullptr) << spec;
    EXPECT_FALSE(m->name().empty()) << spec;
    Matching out;
    m->compute_into(d, out);
    // Conflict-freedom is Matching's own invariant; check consistency and
    // bounds here: every granted pair is a real (demand-positive) pair.
    EXPECT_LE(out.size(), 4u) << spec;
    out.for_each_pair([&](net::PortId i, net::PortId j) { EXPECT_GT(d.at(i, j), 0) << spec; });
    EXPECT_GE(m->last_iterations(), 1u) << spec;
  }
}

TEST(PolicyRegistry, EveryKnownCircuitEstimatorTimingSpecConstructs) {
  auto& reg = PolicyRegistry::instance();
  const auto d = full_demand(4);
  for (const auto& spec : reg.known_specs(PolicyKind::kCircuit)) {
    auto s = reg.make_circuit(spec, ctx4());
    ASSERT_NE(s, nullptr) << spec;
    CircuitPlan plan;
    s->plan_into(d, plan);
    EXPECT_LE(plan.residual.total(), d.total()) << spec;
  }
  for (const auto& spec : reg.known_specs(PolicyKind::kEstimator)) {
    auto e = reg.make_estimator(spec, ctx4());
    ASSERT_NE(e, nullptr) << spec;
    demand::DemandMatrix snap;
    e->on_arrival(0, 1, 1000, sim::Time::microseconds(1));
    e->snapshot(sim::Time::microseconds(2), snap);
    EXPECT_EQ(snap.inputs(), 4u) << spec;
  }
  for (const auto& spec : reg.known_specs(PolicyKind::kTiming)) {
    auto t = reg.make_timing(spec, ctx4());
    ASSERT_NE(t, nullptr) << spec;
    const auto b = t->decision_latency(4, 2, true);
    EXPECT_GE(b.total(), sim::Time::zero()) << spec;
  }
}

TEST(PolicyRegistry, SolsticeArgumentSetsAmortisationIncludingZero) {
  auto& reg = PolicyRegistry::instance();
  const auto config_of = [&reg](const char* spec) {
    auto s = reg.make_circuit(spec, ctx4());
    return dynamic_cast<SolsticeScheduler&>(*s).config().min_amortisation;
  };
  EXPECT_DOUBLE_EQ(config_of("solstice"), 1.0);      // library default
  EXPECT_DOUBLE_EQ(config_of("solstice:2.5"), 2.5);
  EXPECT_DOUBLE_EQ(config_of("solstice:0"), 0.0);    // explicit 0 disables
  EXPECT_THROW((void)reg.make_circuit("solstice:-1", ctx4()), std::invalid_argument);
}

TEST(PolicyRegistry, HardwareClockArgumentScalesLatency) {
  auto& reg = PolicyRegistry::instance();
  const auto slow = reg.make_timing("hardware", ctx4());
  const auto fast = reg.make_timing("hardware:500MHz", ctx4());
  EXPECT_LT(fast->decision_latency(16, 4, true).total(),
            slow->decision_latency(16, 4, true).total());
}

TEST(CircuitPlan, ReuseSlotGrowsToNonSequentialIndices) {
  // User-registered planners may claim slots out of order; the helper must
  // grow the list to cover the index, not just append one element.
  CircuitPlan plan;
  CircuitSlot& s2 = plan.reuse_slot(2, 4);
  ASSERT_EQ(plan.slots.size(), 3u);
  s2.weight_bytes = 7;
  EXPECT_EQ(plan.slots[2].weight_bytes, 7);
  EXPECT_EQ(plan.slots[2].configuration.inputs(), 4u);
  // Rectangular overload keeps non-square fabrics working (cthrough).
  CircuitSlot& r = plan.reuse_slot(0, 2, 6);
  EXPECT_EQ(r.configuration.inputs(), 2u);
  EXPECT_EQ(r.configuration.outputs(), 6u);
}

TEST(PolicyRegistry, KnownSpecNamesAreUniquePerKind) {
  auto& reg = PolicyRegistry::instance();
  for (const PolicyKind k : {PolicyKind::kMatcher, PolicyKind::kCircuit, PolicyKind::kEstimator,
                             PolicyKind::kTiming}) {
    const auto specs = reg.known_specs(k);
    const std::set<std::string> unique(specs.begin(), specs.end());
    EXPECT_EQ(unique.size(), specs.size()) << to_string(k);
  }
}

}  // namespace
}  // namespace xdrs::schedulers

// ---------------------------------------------------------------- PolicyStack

namespace xdrs::core {
namespace {

TEST(PolicyStack, DefaultsAndToString) {
  const PolicyStack s;
  EXPECT_EQ(s.to_string(), "islip:2/solstice/instantaneous/hardware");
}

TEST(PolicyStack, ParseClassifiesBareSegmentsByRegistry) {
  const PolicyStack s = PolicyStack::parse("islip:4/ewma:0.5/software");
  EXPECT_EQ(s.matcher, "islip:4");
  EXPECT_EQ(s.estimator, "ewma:0.5");
  EXPECT_EQ(s.timing, "software");
  EXPECT_EQ(s.circuit, "solstice");  // untouched default

  const PolicyStack hybrid = PolicyStack::parse("cthrough/instantaneous/hardware:500MHz");
  EXPECT_EQ(hybrid.circuit, "cthrough");
  EXPECT_EQ(hybrid.estimator, "instantaneous");
  EXPECT_EQ(hybrid.timing, "hardware:500MHz");
}

TEST(PolicyStack, ParseAcceptsExplicitKindPrefixes) {
  const PolicyStack s = PolicyStack::parse("matcher=maxweight/timing=ideal");
  EXPECT_EQ(s.matcher, "maxweight");
  EXPECT_EQ(s.timing, "ideal");
}

TEST(PolicyStack, ParseRejectsUnknownDuplicateAndBadKinds) {
  EXPECT_THROW((void)PolicyStack::parse("frobnicator"), std::invalid_argument);
  EXPECT_THROW((void)PolicyStack::parse("islip:2/islip:4"), std::invalid_argument);
  EXPECT_THROW((void)PolicyStack::parse("gizmo=islip:2"), std::invalid_argument);
  // A kind prefix must not smuggle a typo past classification.
  EXPECT_THROW((void)PolicyStack::parse("matcher=islp:4"), std::invalid_argument);
  EXPECT_THROW((void)PolicyStack::parse("circuit=islip:2"), std::invalid_argument);
}

TEST(PolicyStack, RoundTripsThroughToString) {
  const PolicyStack s = PolicyStack::parse("pim:2/tms:4/windowed/distributed");
  EXPECT_EQ(PolicyStack::parse(s.to_string()), s);
}

TEST(PolicyStack, ToStringQualifiesCrossKindAmbiguousNames) {
  // A name registered under two kinds needs a kind= prefix to survive the
  // round trip; to_string must add it.
  auto& reg = schedulers::PolicyRegistry::instance();
  reg.register_matcher("test-ambi",
                       [](const schedulers::PolicySpec&, const schedulers::PolicyContext& c) {
                         return std::make_unique<schedulers::RotorMatcher>(c.ports);
                       });
  reg.register_estimator(
      "test-ambi", [](const schedulers::PolicySpec&, const schedulers::PolicyContext& c) {
        return std::make_unique<demand::InstantaneousEstimator>(c.ports, c.ports);
      });
  PolicyStack s;
  s.matcher = "test-ambi";
  EXPECT_EQ(s.to_string(), "matcher=test-ambi/solstice/instantaneous/hardware");
  EXPECT_EQ(PolicyStack::parse(s.to_string()), s);
}

}  // namespace
}  // namespace xdrs::core
