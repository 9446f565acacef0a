// Tests for the deadline/SLO subsystem: assigner math and determinism,
// flow-completion tracking (met / missed / censored), the SRPT weight
// transform and its epoch-warm invalidation, EDF urgency snapshots, and
// the end-to-end properties the sweep artefacts rely on — miss ratio is
// exactly zero without deadlines, monotone in offered load at a fixed
// seed, and byte-identical across runner thread counts and shard/merge.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/flow_tracker.hpp"
#include "demand/demand_matrix.hpp"
#include "demand/edf.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "net/packet.hpp"
#include "schedulers/greedy.hpp"
#include "schedulers/srpt.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"
#include "traffic/deadline.hpp"

namespace xdrs {
namespace {

using namespace xdrs::sim::literals;
using sim::Time;

// ---- DeadlineAssigner ------------------------------------------------------

TEST(DeadlineAssigner, NoneAlwaysReturnsZero) {
  traffic::DeadlineAssigner off;  // default-constructed = disabled
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(off.assign(Time::microseconds(5), 1'000'000).is_zero());

  traffic::DeadlineSpec spec;  // kind defaults to kNone
  traffic::DeadlineAssigner a{spec, sim::DataRate::gbps(10), 7};
  EXPECT_FALSE(a.enabled());
  EXPECT_TRUE(a.assign(Time::zero(), 64).is_zero());
}

TEST(DeadlineAssigner, FixedAddsTheOffsetToTheFlowStart) {
  traffic::DeadlineSpec spec;
  spec.kind = traffic::DeadlineSpec::Kind::kFixed;
  spec.fixed = Time::microseconds(250);
  traffic::DeadlineAssigner a{spec, sim::DataRate::gbps(10), 7};
  EXPECT_TRUE(a.enabled());
  EXPECT_EQ(a.assign(Time::microseconds(10), 999), Time::microseconds(260));
  // Size-independent: a 1000x larger flow gets the same absolute offset.
  EXPECT_EQ(a.assign(Time::microseconds(10), 999'000), Time::microseconds(260));
}

TEST(DeadlineAssigner, SloScalesWithFlowBytesAtTheFractionalRate) {
  traffic::DeadlineSpec spec;
  spec.kind = traffic::DeadlineSpec::Kind::kSlo;
  spec.slo_fraction = 0.25;
  spec.slack = Time::microseconds(50);
  traffic::DeadlineAssigner a{spec, sim::DataRate::gbps(10), 7};
  // 1000 B at 0.25 x 10G = 2.5 Gb/s -> 8000 bits / 2.5e9 = 3.2 us exactly.
  const Time start = Time::microseconds(100);
  EXPECT_EQ(a.assign(start, 1000), start + Time::picoseconds(3'200'000) + spec.slack);
  // Double the bytes, double the transmission budget; the slack is flat.
  EXPECT_EQ(a.assign(start, 2000), start + Time::picoseconds(6'400'000) + spec.slack);
}

TEST(DeadlineAssigner, CdfDrawsAreDeterministicPerSeedAndIndependentOfFlowSize) {
  // Budget bytes come from the empirical CDF, not the flow's own size: the
  // same draw sequence yields the same deadlines for wildly different flows.
  const std::string cdf = (std::filesystem::temp_directory_path() /
                           ("xdrs_dl_cdf_" + std::to_string(::getpid()) + ".csv"))
                              .string();
  {
    std::ofstream out{cdf, std::ios::trunc};
    out << "bytes,cdf\n1000,0.5\n1000000,1.0\n";
  }
  traffic::DeadlineSpec spec;
  spec.kind = traffic::DeadlineSpec::Kind::kCdf;
  spec.slo_fraction = 0.5;
  spec.slack = Time::microseconds(10);
  spec.cdf_path = cdf;

  traffic::DeadlineAssigner a{spec, sim::DataRate::gbps(10), 7};
  traffic::DeadlineAssigner b{spec, sim::DataRate::gbps(10), 7};
  traffic::DeadlineAssigner c{spec, sim::DataRate::gbps(10), 8};
  std::vector<Time> from_a, from_b, from_c;
  for (int i = 0; i < 64; ++i) {
    const Time start = Time::microseconds(i);
    from_a.push_back(a.assign(start, 100));
    from_b.push_back(b.assign(start, 100'000'000));  // size must not matter
    from_c.push_back(c.assign(start, 100));
    EXPECT_GE(from_a.back(), start + spec.slack) << i;
  }
  EXPECT_EQ(from_a, from_b);
  EXPECT_NE(from_a, from_c);  // a different seed draws a different sequence
  std::filesystem::remove(cdf);
}

// ---- FlowCompletionTracker -------------------------------------------------

net::Packet packet(net::PortId src, net::FlowId flow, std::int64_t bytes, Time created,
                   Time deadline, std::int64_t flow_bytes) {
  net::Packet p;
  p.src = src;
  p.dst = src + 1;
  p.flow = flow;
  p.size_bytes = bytes;
  p.created_at = created;
  p.deadline = deadline;
  p.flow_bytes = flow_bytes;
  return p;
}

TEST(FlowCompletionTracker, SplitsMetMissedAndCensoredFlows) {
  core::FlowCompletionTracker t;
  const Time end = Time::milliseconds(1);

  // Flow 1: two packets, done at 40us, deadline 50us -> met, FCT 30us.
  t.on_deliver(packet(0, 1, 600, 10_us, 50_us, 1000), 20_us);
  t.on_deliver(packet(0, 1, 400, 10_us, 50_us, 1000), 40_us);
  // Flow 2: completes at 90us, deadline 60us -> missed (late completion).
  t.on_deliver(packet(0, 2, 1000, 10_us, 60_us, 1000), 90_us);
  // Flow 3: unfinished, deadline 80us < end -> missed (expired).
  t.on_deliver(packet(0, 3, 500, 10_us, 80_us, 1000), 70_us);
  // Flow 4: unfinished, deadline beyond the horizon -> censored.
  t.on_deliver(packet(0, 4, 500, 10_us, Time::milliseconds(5), 1000), 70_us);
  // Flow 5: no deadline, completes -> fct_other only.
  t.on_deliver(packet(1, 5, 1000, 10_us, Time::zero(), 1000), 35_us);
  // Flow 6: no deadline, unfinished -> censored entirely.
  t.on_deliver(packet(1, 6, 100, 10_us, Time::zero(), 1000), 35_us);
  // Packet-level source (no flow size): ignored even with a million bytes.
  t.on_deliver(packet(2, 7, 1'000'000, 10_us, 20_us, 0), 15_us);

  core::RunReport r;
  t.finalize(Time::zero(), end, r);
  EXPECT_EQ(r.deadline_flows_met, 1u);
  EXPECT_EQ(r.deadline_flows_missed, 2u);
  EXPECT_DOUBLE_EQ(r.deadline_miss_ratio(), 2.0 / 3.0);
  EXPECT_EQ(r.fct_deadline.count(), 2u);  // completions only (flows 1 and 2)
  EXPECT_EQ(r.fct_deadline.min(), (30_us).ps());
  EXPECT_EQ(r.fct_deadline.max(), (80_us).ps());
  EXPECT_EQ(r.fct_other.count(), 1u);
  EXPECT_EQ(r.fct_other.max(), (25_us).ps());
}

TEST(FlowCompletionTracker, GoodputCountsOnlyBytesDeliveredByTheDeadline) {
  core::FlowCompletionTracker t;
  // 600 B arrive before the 50us deadline, 400 B after: only the 600 count.
  t.on_deliver(packet(0, 1, 600, 10_us, 50_us, 1000), 45_us);
  t.on_deliver(packet(0, 1, 400, 10_us, 50_us, 1000), 55_us);
  // A no-deadline flow contributes nothing regardless of timing.
  t.on_deliver(packet(1, 2, 800, 10_us, Time::zero(), 800), 20_us);
  core::RunReport r;
  t.finalize(Time::zero(), Time::milliseconds(1), r);
  EXPECT_EQ(r.goodput_before_deadline_bytes, 600);
  EXPECT_EQ(r.deadline_flows_missed, 1u);  // completed late
}

TEST(FlowCompletionTracker, WarmupStraddlingFlowsAreExcluded) {
  core::FlowCompletionTracker t;
  // Born before the measurement window: observed but never reported, even
  // though it completes (and would have missed) inside the window.
  t.on_deliver(packet(0, 1, 1000, 10_us, 60_us, 1000), 90_us);
  // Born inside the window: reported.
  t.on_deliver(packet(0, 2, 1000, 120_us, 200_us, 1000), 150_us);
  EXPECT_EQ(t.tracked_flows(), 2u);
  core::RunReport r;
  t.finalize(100_us, Time::milliseconds(1), r);
  EXPECT_EQ(r.deadline_flows_met, 1u);
  EXPECT_EQ(r.deadline_flows_missed, 0u);
  EXPECT_EQ(r.goodput_before_deadline_bytes, 1000);
}

// ---- SrptWeightedMatcher ---------------------------------------------------

TEST(SrptWeighted, PrefersTheSmallestRemainingQueues) {
  // maxweight/greedy serve the heaviest backlog; SRPT inverts it.
  demand::DemandMatrix d{2};
  d.set(0, 0, 100);        // nearly-done RPC
  d.set(0, 1, 1'000'000);  // bulk shuffle
  d.set(1, 0, 1'000'000);
  d.set(1, 1, 100);
  schedulers::SrptWeightedMatcher srpt{2.0};
  const schedulers::Matching inverted = srpt.compute(d);
  EXPECT_EQ(inverted.output_of(0), 0u);
  EXPECT_EQ(inverted.output_of(1), 1u);
  schedulers::GreedyMaxWeightMatcher greedy;
  const schedulers::Matching heavy = greedy.compute(d);
  EXPECT_EQ(heavy.output_of(0), 1u);
  EXPECT_EQ(heavy.output_of(1), 0u);
}

TEST(SrptWeighted, NeverGrantsZeroDemandAndStaysWorkConserving) {
  demand::DemandMatrix d{8};
  sim::Rng rng{42};
  for (net::PortId i = 0; i < 8; ++i) {
    for (net::PortId j = 0; j < 8; ++j) {
      if (rng.bernoulli(0.4)) d.set(i, j, rng.uniform_int(1, 1'000'000'000));
    }
  }
  schedulers::SrptWeightedMatcher m{1.0};
  const schedulers::Matching got = m.compute(d);
  got.for_each_pair([&](net::PortId i, net::PortId j) { EXPECT_GT(d.at(i, j), 0); });
  // Maximal on its support: no augmenting single edge left unmatched.
  for (net::PortId i = 0; i < 8; ++i) {
    for (net::PortId j = 0; j < 8; ++j) {
      if (d.at(i, j) > 0 && !got.input_matched(i) && !got.output_matched(j)) {
        FAIL() << "unmatched grantable pair " << i << "->" << j;
      }
    }
  }
}

TEST(SrptWeighted, UrgencyChangesInvalidateTheWarmEntry) {
  demand::DemandMatrix d{2};
  d.set(0, 0, 100);
  d.set(0, 1, 1'000'000);
  d.set(1, 0, 1'000'000);
  d.set(1, 1, 100);
  schedulers::SrptWeightedMatcher warm{2.0};
  schedulers::Matching first, replay, after;
  warm.compute_into(d, first);
  warm.compute_into(d, replay);  // unchanged urgency: bit-identical replay
  EXPECT_EQ(first, replay);
  EXPECT_EQ(first.output_of(0), 0u);

  // A value-only change (same support — what an EDF boost or a partial
  // drain looks like) must flip the preference: the anti-diagonal queues
  // are now the nearly-done ones.
  d.set(0, 0, 1'000'000);
  d.set(1, 1, 1'000'000);
  d.set(0, 1, 100);
  d.set(1, 0, 100);
  warm.compute_into(d, after);
  schedulers::SrptWeightedMatcher cold{2.0};
  schedulers::Matching fresh;
  cold.compute_into(d, fresh);
  EXPECT_EQ(after, fresh);  // warm instance == cold compute, always
  EXPECT_NE(after, first);  // and the urgency flip actually changed grants
  EXPECT_EQ(after.output_of(0), 1u);
  EXPECT_EQ(after.output_of(1), 0u);
}

TEST(SrptWeighted, RejectsNonPositiveGamma) {
  EXPECT_THROW(schedulers::SrptWeightedMatcher{0.0}, std::invalid_argument);
  EXPECT_THROW(schedulers::SrptWeightedMatcher{-1.0}, std::invalid_argument);
}

// ---- EdfEstimator ----------------------------------------------------------

TEST(EdfEstimator, BoostsBacklogAsTheDeadlineApproaches) {
  demand::EdfEstimator e{4, 4, /*boost=*/4.0};
  demand::DemandMatrix out{4};
  e.on_arrival(0, 1, 1000, Time::zero());
  e.on_arrival(2, 3, 1000, Time::zero());

  // No deadline anywhere: snapshot is the plain backlog.
  e.snapshot(Time::zero(), out);
  EXPECT_EQ(out.at(0, 1), 1000);
  EXPECT_EQ(out.at(2, 3), 1000);

  // A deadline exactly one epoch (100us) out weights by 1 + boost = 5.
  e.on_deadline(0, 1, Time::microseconds(100), Time::zero());
  e.snapshot(Time::zero(), out);
  EXPECT_EQ(out.at(0, 1), 5000);
  EXPECT_EQ(out.at(2, 3), 1000);  // the deadline-free VOQ is untouched

  // An expired deadline saturates at 1 + 64 * boost = 257.
  e.snapshot(Time::milliseconds(10), out);
  EXPECT_EQ(out.at(0, 1), 257'000);

  // The earliest deadline wins when several flows share the VOQ.
  e.on_deadline(0, 1, Time::microseconds(50), Time::zero());
  e.on_deadline(0, 1, Time::microseconds(900), Time::zero());
  e.snapshot(Time::zero(), out);
  EXPECT_EQ(out.at(0, 1), 1000 + 4 * 2 * 1000);  // 50us left -> urgency 9
}

TEST(EdfEstimator, DrainingTheVoqClearsItsDeadline) {
  demand::EdfEstimator e{2, 2, 4.0};
  demand::DemandMatrix out{2};
  e.on_arrival(0, 1, 1000, Time::zero());
  e.on_deadline(0, 1, Time::microseconds(100), Time::zero());
  e.on_departure(0, 1, 1000, Time::microseconds(10));  // VOQ empty
  e.on_arrival(0, 1, 500, Time::microseconds(20));     // new, deadline-free flow
  e.snapshot(Time::microseconds(20), out);
  EXPECT_EQ(out.at(0, 1), 500);  // stale urgency must not leak forward
}

TEST(EdfEstimator, RejectsNonPositiveBoost) {
  EXPECT_THROW((demand::EdfEstimator{4, 4, 0.0}), std::invalid_argument);
  EXPECT_THROW((demand::EdfEstimator{4, 4, -2.0}), std::invalid_argument);
}

// ---- end-to-end properties -------------------------------------------------

TEST(DeadlineProperties, MissRatioIsExactlyZeroWithoutDeadlines) {
  for (const char* name : {"uniform", "flows", "incast"}) {
    const core::RunReport r =
        exp::run_scenario(exp::make_scenario(name, 4, 0.6, 7).with_window(1_ms, 200_us));
    EXPECT_EQ(r.deadline_flows_met, 0u) << name;
    EXPECT_EQ(r.deadline_flows_missed, 0u) << name;
    EXPECT_DOUBLE_EQ(r.deadline_miss_ratio(), 0.0) << name;
    EXPECT_EQ(r.goodput_before_deadline_bytes, 0) << name;
    EXPECT_EQ(r.fct_deadline.count(), 0u) << name;
  }
}

TEST(DeadlineProperties, EnablingDeadlinesDoesNotPerturbTheWorkload) {
  // The assigner draws from its own forked rng stream, so switching a
  // workload from kNone to kSlo must replay the exact same arrivals.
  // Incast bursts fire once per millisecond; the window must span a few.
  exp::ScenarioSpec plain = exp::make_scenario("incast", 4, 0.6, 7).with_window(3_ms, 400_us);
  exp::ScenarioSpec slo = plain;
  for (auto& w : slo.workloads) {
    w.deadline.kind = traffic::DeadlineSpec::Kind::kSlo;
    w.deadline.slo_fraction = 0.25;
    w.deadline.slack = Time::microseconds(100);
  }
  const core::RunReport a = exp::run_scenario(plain);
  const core::RunReport b = exp::run_scenario(slo);
  EXPECT_EQ(a.offered_packets, b.offered_packets);
  EXPECT_EQ(a.offered_bytes, b.offered_bytes);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(a.deadline_flows_met + a.deadline_flows_missed, 0u);
  EXPECT_GT(b.deadline_flows_met + b.deadline_flows_missed, 0u);
}

TEST(DeadlineProperties, MissRatioIsMonotoneInOfferedLoad) {
  // At a fixed seed, pushing the same mix harder can only hurt: the ratio
  // of deadline flows that miss is non-decreasing in offered load.  The
  // `flows` scenario scales arrival rate (not flow size) with load, so the
  // SLO budgets stay put while queueing grows.
  double previous = -1.0;
  for (const double load : {0.3, 0.6, 0.9}) {
    exp::ScenarioSpec s = exp::make_scenario("flows", 8, load, 7).with_window(2_ms, 400_us);
    for (auto& w : s.workloads) {
      w.deadline.kind = traffic::DeadlineSpec::Kind::kSlo;
      w.deadline.slo_fraction = 0.25;
      w.deadline.slack = Time::microseconds(20);
    }
    const core::RunReport r = exp::run_scenario(s);
    const double ratio = r.deadline_miss_ratio();
    EXPECT_GE(ratio, previous) << "load " << load;
    previous = ratio;
  }
  EXPECT_GT(previous, 0.0);  // the high-load point genuinely misses
}

TEST(DeadlineProperties, DeadlineSweepIsThreadInvariantAndMergesExactly) {
  // A miniature deadline grid (no CDF files: rpc_slo + explicit SLO knobs)
  // crossing deadline-aware and deadline-blind stacks, as the `deadline`
  // preset does.  The artefact bytes must not depend on runner threads or
  // on sharding.
  std::vector<exp::ScenarioSpec> grid{
      exp::make_scenario("rpc_slo", 4, 0.6, 7).with_window(1_ms, 200_us)};
  grid = exp::expand(grid, exp::axis_load({0.5, 0.8}));
  grid = exp::expand(grid, exp::axis_matcher({"maxweight", "srpt_w:2"}));
  grid = exp::expand(grid, exp::axis_estimator({"instantaneous", "edf"}));
  ASSERT_EQ(grid.size(), 8u);

  exp::ExecutionPlan one;
  one.threads = 1;
  const exp::SweepResult serial = exp::ExperimentRunner{one}.run(grid);
  exp::ExecutionPlan four;
  four.threads = 4;
  const exp::SweepResult threaded = exp::ExperimentRunner{four}.run(grid);
  EXPECT_EQ(serial.to_json(), threaded.to_json());
  EXPECT_EQ(serial.to_csv(), threaded.to_csv());

  exp::ExecutionPlan s0, s1;
  s0.source.shard = {0, 2};
  s1.source.shard = {1, 2};
  const exp::SweepResult merged = exp::SweepResult::merge_shards(
      grid, {exp::ExperimentRunner{s0}.run(grid).to_shard_json(),
             exp::ExperimentRunner{s1}.run(grid).to_shard_json()});
  EXPECT_EQ(merged.to_json(), serial.to_json());

  // The metrics actually flow into the artefact: some point misses.
  EXPECT_NE(serial.to_json().find("\"deadline_flows_"), std::string::npos);
  std::uint64_t total = 0;
  for (const auto& p : serial.points) {
    total += p.report.deadline_flows_met + p.report.deadline_flows_missed;
  }
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace xdrs
