// Tests for the Solstice-style threshold-halving hybrid circuit scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "schedulers/solstice.hpp"
#include "sim/random.hpp"

#include "reference_hopcroft_karp.hpp"

namespace xdrs::schedulers {
namespace {

demand::DemandMatrix random_demand(std::uint32_t n, sim::Rng& rng, double density) {
  demand::DemandMatrix m{n};
  for (net::PortId i = 0; i < n; ++i) {
    for (net::PortId j = 0; j < n; ++j) {
      if (rng.bernoulli(density)) m.set(i, j, rng.uniform_int(1, 100'000));
    }
  }
  return m;
}

SolsticeConfig cheap_reconfig() {
  SolsticeConfig c;
  c.reconfig_cost_bytes = 0;  // circuits are free: cover everything
  c.min_amortisation = 1.0;
  return c;
}

/// SolsticeScheduler::plan_into as it was before the threshold edges were
/// kept incrementally on the bitset solver: the stuffed demand is a
/// DemandMatrix, and every threshold rebuilds the solver's adjacency from
/// an n^2 scan.  Kept line for line, on fresh workspaces and the reference
/// solver, as the oracle of the differential test below.
CircuitPlan reference_plan(const SolsticeConfig& cfg, const demand::DemandMatrix& dem) {
  const std::uint32_t n = dem.inputs();
  CircuitPlan out;
  out.residual.copy_from(dem);
  if (dem.total() == 0) return out;

  demand::DemandMatrix stuffed;
  std::vector<std::int64_t> row_slack, col_slack;
  stuffed.copy_from(dem);
  {
    const std::int64_t phi = dem.max_line_sum();
    row_slack.resize(n);
    col_slack.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) row_slack[i] = phi - dem.row_sum(i);
    for (std::uint32_t j = 0; j < n; ++j) col_slack[j] = phi - dem.col_sum(j);
    std::uint32_t i = 0, j = 0;
    while (i < n && j < n) {
      const std::int64_t s = std::min(row_slack[i], col_slack[j]);
      if (s > 0) stuffed.add(i, j, s);
      row_slack[i] -= s;
      col_slack[j] -= s;
      if (row_slack[i] == 0) ++i;
      if (j < n && col_slack[j] == 0) ++j;
    }
  }

  const auto min_slot_bytes = static_cast<std::int64_t>(
      cfg.min_amortisation * static_cast<double>(cfg.reconfig_cost_bytes));

  const auto floor_pow2 = [](std::int64_t v) {
    return std::int64_t{1} << (63 - std::countl_zero(static_cast<std::uint64_t>(v)));
  };
  std::int64_t t = floor_pow2(std::max<std::int64_t>(1, stuffed.max_element()));
  std::size_t used = 0;
  reference::HopcroftKarp hk{0, 0};
  while (t > 0 && t >= std::max<std::int64_t>(1, min_slot_bytes)) {
    if (cfg.max_slots > 0 && used >= cfg.max_slots) break;

    hk.reset(n, n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::int64_t* row = stuffed.row_data(i);
      for (std::uint32_t j = 0; j < n; ++j) {
        if (row[j] >= t) hk.add_edge(i, j);
      }
    }
    if (hk.solve() < n) {
      t /= 2;
      continue;
    }

    CircuitSlot& slot = out.reuse_slot(used++, n);
    slot.weight_bytes = t;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t j = hk.match_of_left(i);
      slot.configuration.match(i, j);
      stuffed.subtract_clamped(i, j, t);
      out.residual.subtract_clamped(i, j, t);
    }
    if (out.residual.total() == 0) break;
  }
  out.slots.resize(used);
  return out;
}

TEST(Solstice, ValidatesConfig) {
  SolsticeConfig bad = cheap_reconfig();
  bad.reconfig_cost_bytes = -1;
  EXPECT_THROW(SolsticeScheduler{bad}, std::invalid_argument);
  bad = cheap_reconfig();
  bad.min_amortisation = -0.5;
  EXPECT_THROW(SolsticeScheduler{bad}, std::invalid_argument);
}

TEST(Solstice, RequiresSquareMatrix) {
  SolsticeScheduler s{cheap_reconfig()};
  EXPECT_THROW((void)s.plan(demand::DemandMatrix{2, 3}), std::invalid_argument);
}

TEST(Solstice, EmptyDemandYieldsEmptyPlan) {
  SolsticeScheduler s{cheap_reconfig()};
  const CircuitPlan plan = s.plan(demand::DemandMatrix{4});
  EXPECT_TRUE(plan.slots.empty());
  EXPECT_EQ(plan.residual.total(), 0);
}

TEST(Solstice, FreeReconfigCoversAllDemand) {
  sim::Rng rng{21};
  SolsticeScheduler s{cheap_reconfig()};
  for (int round = 0; round < 10; ++round) {
    const auto d = random_demand(8, rng, 0.5);
    const CircuitPlan plan = s.plan(d);
    EXPECT_EQ(plan.residual.total(), 0) << "round " << round;
    EXPECT_FALSE(plan.slots.empty());
  }
}

TEST(Solstice, SlotsArePerfectMatchingsWithPowerOfTwoWeights) {
  sim::Rng rng{23};
  SolsticeScheduler s{cheap_reconfig()};
  const auto d = random_demand(6, rng, 0.6);
  for (const auto& slot : s.plan(d).slots) {
    EXPECT_TRUE(slot.configuration.is_perfect());
    EXPECT_GT(slot.weight_bytes, 0);
    EXPECT_EQ(slot.weight_bytes & (slot.weight_bytes - 1), 0)
        << slot.weight_bytes << " is not a power of two";
  }
}

TEST(Solstice, ThresholdsAreNonIncreasing) {
  sim::Rng rng{25};
  SolsticeScheduler s{cheap_reconfig()};
  const auto d = random_demand(8, rng, 0.7);
  const CircuitPlan plan = s.plan(d);
  for (std::size_t k = 1; k < plan.slots.size(); ++k) {
    EXPECT_LE(plan.slots[k].weight_bytes, plan.slots[k - 1].weight_bytes);
  }
}

TEST(Solstice, ReconfigCostPushesSmallDemandToEps) {
  demand::DemandMatrix d{4};
  d.set(0, 1, 1 << 20);  // 1 MiB elephant
  d.set(1, 0, 1 << 20);
  d.set(2, 3, 100);      // tiny mice
  d.set(3, 2, 100);
  SolsticeConfig c;
  c.reconfig_cost_bytes = 10'000;  // a slot must move >= 10 KB per pair
  c.min_amortisation = 1.0;
  SolsticeScheduler s{c};
  const CircuitPlan plan = s.plan(d);
  // Elephants get circuits; the mice must remain in the residual.
  EXPECT_GT(plan.residual.at(2, 3), 0);
  EXPECT_GT(plan.residual.at(3, 2), 0);
  EXPECT_LT(plan.residual.at(0, 1), 1 << 20);
  for (const auto& slot : plan.slots) {
    EXPECT_GE(slot.weight_bytes, 10'000);
  }
}

TEST(Solstice, MaxSlotsBudgetHonoured) {
  sim::Rng rng{27};
  SolsticeConfig c = cheap_reconfig();
  c.max_slots = 3;
  SolsticeScheduler s{c};
  const auto d = random_demand(8, rng, 0.8);
  const CircuitPlan plan = s.plan(d);
  EXPECT_LE(plan.slots.size(), 3u);
}

TEST(Solstice, ResidualBookkeepingIsExact) {
  sim::Rng rng{29};
  SolsticeConfig c;
  c.reconfig_cost_bytes = 50'000;
  SolsticeScheduler s{c};
  const auto d = random_demand(6, rng, 0.5);
  const CircuitPlan plan = s.plan(d);

  demand::DemandMatrix expect = d;
  for (const auto& slot : plan.slots) {
    slot.configuration.for_each_pair([&](net::PortId i, net::PortId j) {
      expect.subtract_clamped(i, j, slot.weight_bytes);
    });
  }
  EXPECT_EQ(plan.residual, expect);
}

TEST(Solstice, PlansMatchTheReferencePlannerSlotForSlot) {
  // Random demands at each shape, planned by one recycled scheduler per
  // configuration, against the reference planner: every slot's weight and
  // matching and the whole residual must be equal.  Most plans fail their
  // first thresholds on the covers check (some row has no entry >= t); the
  // demands with a zero row or an empty column stress it further.
  constexpr std::uint32_t kShapes[] = {2, 8, 48, 64, 65, 128};
  constexpr double kAmortisation[] = {0.0, 1.0, 1.5};
  sim::Rng rng{33};
  for (const std::uint32_t n : kShapes) {
    for (const double amortisation : kAmortisation) {
      for (const std::size_t max_slots : {std::size_t{0}, std::size_t{n}, std::size_t{3}}) {
        SolsticeConfig c;
        c.reconfig_cost_bytes = 3'000;
        c.min_amortisation = amortisation;
        c.max_slots = max_slots;
        SolsticeScheduler s{c};
        CircuitPlan plan;
        for (int round = 0; round < 6; ++round) {
          const double density = round < 2 ? 0.9 : round < 4 ? 0.3 : 0.05;
          demand::DemandMatrix d = random_demand(n, rng, density);
          const auto line = static_cast<net::PortId>(rng.next_below(n));
          if (round % 3 == 1) {
            for (net::PortId j = 0; j < n; ++j) d.set(line, j, 0);  // a zero row
          } else if (round % 3 == 2) {
            for (net::PortId i = 0; i < n; ++i) d.set(i, line, 0);  // an uncovered column
          }
          s.plan_into(d, plan);
          const CircuitPlan want = reference_plan(c, d);
          SCOPED_TRACE(::testing::Message() << n << " ports, amortisation " << amortisation
                                            << ", max_slots " << max_slots << ", round " << round);
          ASSERT_EQ(plan.slots.size(), want.slots.size());
          for (std::size_t k = 0; k < want.slots.size(); ++k) {
            ASSERT_EQ(plan.slots[k].weight_bytes, want.slots[k].weight_bytes) << "slot " << k;
            ASSERT_EQ(plan.slots[k].configuration, want.slots[k].configuration) << "slot " << k;
          }
          ASSERT_EQ(plan.residual, want.residual);
        }
      }
    }
  }
}

TEST(CircuitPlan, CircuitBytesSumsSlotService) {
  CircuitPlan plan;
  plan.residual = demand::DemandMatrix{2};
  CircuitSlot s1;
  s1.configuration = Matching::rotation(2, 1);
  s1.weight_bytes = 100;
  plan.slots.push_back(s1);
  EXPECT_EQ(plan.circuit_bytes(), 200);  // 2 pairs x 100 bytes
}

}  // namespace
}  // namespace xdrs::schedulers
