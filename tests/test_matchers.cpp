// Property-based tests across every matching algorithm: conflict-freedom,
// demand-respect, maximality, optimality (where promised) and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "schedulers/policy_registry.hpp"
#include "schedulers/greedy.hpp"
#include "schedulers/hopcroft_karp.hpp"
#include "schedulers/hungarian.hpp"
#include "schedulers/rga.hpp"
#include "schedulers/rotor.hpp"
#include "sim/random.hpp"

#include "reference_hopcroft_karp.hpp"

namespace xdrs::schedulers {
namespace {

/// Registry shorthand used throughout this file.
std::unique_ptr<MatchingAlgorithm> make_matcher(std::string_view spec, std::uint32_t ports,
                                                std::uint64_t seed = 1) {
  return PolicyRegistry::instance().make_matcher(spec, {.ports = ports, .seed = seed});
}

std::vector<std::string> known_matcher_specs() {
  return PolicyRegistry::instance().known_specs(PolicyKind::kMatcher);
}

demand::DemandMatrix random_demand(std::uint32_t n, sim::Rng& rng, double density) {
  demand::DemandMatrix m{n};
  for (net::PortId i = 0; i < n; ++i) {
    for (net::PortId j = 0; j < n; ++j) {
      if (rng.bernoulli(density)) m.set(i, j, rng.uniform_int(1, 10'000));
    }
  }
  return m;
}

demand::DemandMatrix full_demand(std::uint32_t n, std::int64_t v = 1000) {
  demand::DemandMatrix m{n};
  for (net::PortId i = 0; i < n; ++i) {
    for (net::PortId j = 0; j < n; ++j) m.set(i, j, v);
  }
  return m;
}

/// No matched pair without demand; used on every algorithm except rotor
/// (which is demand-oblivious by design).
void expect_respects_demand(const Matching& m, const demand::DemandMatrix& d) {
  m.for_each_pair([&](net::PortId i, net::PortId j) { EXPECT_GT(d.at(i, j), 0); });
}

/// Maximal: no augmenting single edge remains.
void expect_maximal(const Matching& m, const demand::DemandMatrix& d) {
  for (net::PortId i = 0; i < d.inputs(); ++i) {
    if (m.input_matched(i)) continue;
    for (net::PortId j = 0; j < d.outputs(); ++j) {
      if (d.at(i, j) > 0) {
        EXPECT_TRUE(m.output_matched(j))
            << "pair (" << i << "," << j << ") could still be matched";
      }
    }
  }
}

std::int64_t weight_of(const Matching& m, const demand::DemandMatrix& d) {
  return HungarianMatcher::matching_weight(m, d);
}

/// Exhaustive maximum-weight over all permutations (test oracle, n <= 6).
std::int64_t brute_force_max_weight(const demand::DemandMatrix& d) {
  std::vector<net::PortId> perm(d.inputs());
  std::iota(perm.begin(), perm.end(), 0);
  std::int64_t best = 0;
  do {
    std::int64_t w = 0;
    for (net::PortId i = 0; i < d.inputs(); ++i) w += d.at(i, perm[i]);
    best = std::max(best, w);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

// -------------------------------------------------------------- RGA family

struct RgaCase {
  const char* spec;
  std::uint32_t ports;
};

class RgaProperties : public ::testing::TestWithParam<RgaCase> {};

TEST_P(RgaProperties, RespectsDemandAndIsConflictFree) {
  const auto [spec, ports] = GetParam();
  auto matcher = make_matcher(spec, ports, 42);
  sim::Rng rng{ports * 17 + 1};
  for (int round = 0; round < 20; ++round) {
    const auto d = random_demand(ports, rng, 0.4);
    const Matching m = matcher->compute(d);
    expect_respects_demand(m, d);
    EXPECT_LE(m.size(), ports);
  }
}

TEST_P(RgaProperties, NIterationsYieldMaximalMatching) {
  const auto [spec, ports] = GetParam();
  // Re-spec with `ports` iterations: each iteration adds >= 1 pair while
  // any request exists, so N iterations guarantee maximality.
  const std::string base{spec};
  const std::string algo = base.substr(0, base.find(':'));
  auto matcher = make_matcher(algo + ":" + std::to_string(ports), ports, 42);
  sim::Rng rng{ports * 31 + 7};
  for (int round = 0; round < 20; ++round) {
    const auto d = random_demand(ports, rng, 0.5);
    const Matching m = matcher->compute(d);
    expect_maximal(m, d);
  }
}

TEST_P(RgaProperties, EmptyDemandYieldsEmptyMatching) {
  const auto [spec, ports] = GetParam();
  auto matcher = make_matcher(spec, ports, 42);
  const demand::DemandMatrix d{ports};
  EXPECT_TRUE(matcher->compute(d).empty());
  EXPECT_GE(matcher->last_iterations(), 1u);
}

TEST_P(RgaProperties, ReportsHardwareParallel) {
  const auto [spec, ports] = GetParam();
  auto matcher = make_matcher(spec, ports, 42);
  EXPECT_TRUE(matcher->hardware_parallel());
}

INSTANTIATE_TEST_SUITE_P(Sweep, RgaProperties,
                         ::testing::Values(RgaCase{"rrm:1", 4}, RgaCase{"rrm:2", 8},
                                           RgaCase{"islip:1", 4}, RgaCase{"islip:2", 8},
                                           RgaCase{"islip:4", 16}, RgaCase{"pim:1", 4},
                                           RgaCase{"pim:2", 8}, RgaCase{"pim:4", 16}));

TEST(Islip, DesynchronisesToPerfectMatchingUnderFullLoad) {
  // The classic iSLIP result: persistent all-to-all demand desynchronises
  // the pointers; within a few N slots every slot yields a perfect match.
  constexpr std::uint32_t kPorts = 8;
  IslipMatcher matcher{kPorts, 1};
  const auto d = full_demand(kPorts);
  std::uint32_t last_size = 0;
  for (std::uint32_t slot = 0; slot < 3 * kPorts; ++slot) {
    last_size = matcher.compute(d).size();
  }
  EXPECT_EQ(last_size, kPorts);
}

TEST(Islip, OneIterationCountsOneIteration) {
  IslipMatcher matcher{4, 1};
  (void)matcher.compute(full_demand(4));
  EXPECT_EQ(matcher.last_iterations(), 1u);
}

TEST(Islip, ConvergenceStopsEarly) {
  // With demand only on one pair, further iterations add nothing; the
  // matcher should not burn all its iteration budget.
  IslipMatcher matcher{8, 8};
  demand::DemandMatrix d{8};
  d.set(3, 5, 100);
  const Matching m = matcher.compute(d);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_LE(matcher.last_iterations(), 2u);
}

TEST(Rrm, SynchronisationPathologyUnderUniformLoad) {
  // RRM's pointers move in lockstep: under persistent full demand its
  // 1-iteration matchings stay well below perfect — the motivation for
  // iSLIP.  (Documented behaviour, not a bug.)
  constexpr std::uint32_t kPorts = 8;
  RrmMatcher matcher{kPorts, 1};
  const auto d = full_demand(kPorts);
  std::uint32_t total = 0;
  constexpr int kSlots = 64;
  for (int slot = 0; slot < kSlots; ++slot) total += matcher.compute(d).size();
  const double mean_size = static_cast<double>(total) / kSlots;
  EXPECT_LT(mean_size, kPorts * 0.8);
}

TEST(Pim, DeterministicForSeed) {
  const auto d = full_demand(8);
  PimMatcher a{8, 2, 7}, b{8, 2, 7};
  for (int round = 0; round < 10; ++round) EXPECT_EQ(a.compute(d), b.compute(d));
}

TEST(Pim, LogIterationsNearPerfectOnFullDemand) {
  constexpr std::uint32_t kPorts = 16;
  PimMatcher matcher{kPorts, 5, 3};  // log2(16)+1
  const auto d = full_demand(kPorts);
  std::uint32_t total = 0;
  constexpr int kSlots = 50;
  for (int s = 0; s < kSlots; ++s) total += matcher.compute(d).size();
  EXPECT_GT(static_cast<double>(total) / kSlots, kPorts * 0.9);
}

TEST(Rga, RejectsZeroIterations) {
  EXPECT_THROW(IslipMatcher(4, 0), std::invalid_argument);
  EXPECT_THROW(RrmMatcher(4, 0), std::invalid_argument);
}

// ------------------------------------------------------------------ greedy

TEST(Greedy, PicksHeaviestEdgeFirst) {
  GreedyMaxWeightMatcher g;
  demand::DemandMatrix d{3};
  d.set(0, 0, 10);
  d.set(0, 1, 100);
  d.set(1, 1, 50);
  const Matching m = g.compute(d);
  EXPECT_EQ(m.output_of(0), 1u);  // heaviest edge claimed both sides
}

TEST(Greedy, IsMaximal) {
  GreedyMaxWeightMatcher g;
  sim::Rng rng{5};
  for (int round = 0; round < 30; ++round) {
    const auto d = random_demand(8, rng, 0.4);
    expect_maximal(g.compute(d), d);
  }
}

TEST(Greedy, AtLeastHalfOptimal) {
  // Greedy maximal-weight matching is a 2-approximation.
  GreedyMaxWeightMatcher g;
  HungarianMatcher exact;
  sim::Rng rng{9};
  for (int round = 0; round < 30; ++round) {
    const auto d = random_demand(6, rng, 0.6);
    const std::int64_t greedy_w = weight_of(g.compute(d), d);
    const std::int64_t exact_w = weight_of(exact.compute(d), d);
    EXPECT_GE(2 * greedy_w, exact_w);
    EXPECT_LE(greedy_w, exact_w);
  }
}

// --------------------------------------------------------------- Hungarian

TEST(Hungarian, MatchesBruteForceOnSmallMatrices) {
  HungarianMatcher h;
  sim::Rng rng{11};
  for (int round = 0; round < 40; ++round) {
    const auto d = random_demand(5, rng, 0.7);
    EXPECT_EQ(weight_of(h.compute(d), d), brute_force_max_weight(d)) << "round " << round;
  }
}

TEST(Hungarian, NeverMatchesZeroDemandPairs) {
  HungarianMatcher h;
  sim::Rng rng{13};
  for (int round = 0; round < 20; ++round) {
    const auto d = random_demand(6, rng, 0.3);
    expect_respects_demand(h.compute(d), d);
  }
}

TEST(Hungarian, PerfectOnFullDemand) {
  HungarianMatcher h;
  EXPECT_TRUE(h.compute(full_demand(8)).is_perfect());
}

TEST(Hungarian, RectangularMatrices) {
  HungarianMatcher h;
  demand::DemandMatrix d{2, 4};
  d.set(0, 3, 10);
  d.set(1, 1, 20);
  const Matching m = h.compute(d);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(weight_of(m, d), 30);
}

TEST(Hungarian, EmptyMatrix) {
  HungarianMatcher h;
  EXPECT_TRUE(h.compute(demand::DemandMatrix{4}).empty());
}

TEST(Hungarian, DiagonalIsOptimal) {
  HungarianMatcher h;
  demand::DemandMatrix d{4};
  for (net::PortId i = 0; i < 4; ++i) d.set(i, i, 100);
  const Matching m = h.compute(d);
  EXPECT_TRUE(m.is_perfect());
  EXPECT_EQ(weight_of(m, d), 400);
}

// ------------------------------------------------------------ Hopcroft-Karp

TEST(HopcroftKarp, FindsPerfectMatchingWhenOneExists) {
  HopcroftKarp hk{4, 4};
  for (std::uint32_t i = 0; i < 4; ++i) {
    hk.add_edge(i, i);
    hk.add_edge(i, (i + 1) % 4);
  }
  EXPECT_EQ(hk.solve(), 4u);
}

TEST(HopcroftKarp, MaxCardinalityOnStarGraph) {
  // All left vertices share one right vertex: maximum matching is 1.
  HopcroftKarp hk{4, 4};
  for (std::uint32_t i = 0; i < 4; ++i) hk.add_edge(i, 0);
  EXPECT_EQ(hk.solve(), 1u);
}

TEST(HopcroftKarp, AugmentingPathCase) {
  // Classic case requiring augmentation: greedy would find 1, maximum is 2.
  HopcroftKarp hk{2, 2};
  hk.add_edge(0, 0);
  hk.add_edge(0, 1);
  hk.add_edge(1, 0);
  EXPECT_EQ(hk.solve(), 2u);
}

TEST(HopcroftKarp, ClearEdgesResets) {
  HopcroftKarp hk{2, 2};
  hk.add_edge(0, 0);
  EXPECT_EQ(hk.solve(), 1u);
  hk.clear_edges();
  EXPECT_EQ(hk.solve(), 0u);
}

TEST(HopcroftKarp, EdgeValidation) {
  HopcroftKarp hk{2, 2};
  EXPECT_THROW(hk.add_edge(2, 0), std::out_of_range);
  EXPECT_THROW(hk.add_edge(0, 2), std::out_of_range);
}

TEST(HopcroftKarp, MatchesTheVectorAdjacencySolverOnRandomGraphs) {
  // Random bipartite graphs of 1-130 lefts and rights (unbalanced and
  // multi-word shapes) at densities 0 to 1.  Each left's rights are added
  // in ascending order, the order the reference solver visits them in, and
  // then a few edges are added a second time.  One bitset solver is
  // recycled across shapes through reset(), as the planners recycle theirs.
  constexpr double kDensities[] = {0.0, 0.01, 0.04, 0.15, 0.5, 0.9, 1.0};
  sim::Rng rng{41};
  HopcroftKarp hk{0, 0};
  for (int trial = 0; trial < 700; ++trial) {
    const auto lefts = static_cast<std::uint32_t>(rng.uniform_int(1, 130));
    const auto rights = static_cast<std::uint32_t>(rng.uniform_int(1, 130));
    const double density = trial % 8 == 7 ? rng.next_double() : kDensities[trial % 8];
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::uint32_t l = 0; l < lefts; ++l) {
      for (std::uint32_t r = 0; r < rights; ++r) {
        if (rng.bernoulli(density)) edges.emplace_back(l, r);
      }
    }
    const std::size_t repeats = edges.empty() ? 0 : rng.next_below(edges.size() / 4 + 2);
    for (std::size_t k = 0; k < repeats; ++k) edges.push_back(edges[rng.next_below(edges.size())]);

    hk.reset(lefts, rights);
    reference::HopcroftKarp ref{lefts, rights};
    for (const auto& [l, r] : edges) {
      hk.add_edge(l, r);
      ref.add_edge(l, r);
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ": " << lefts << " x " << rights
                                      << ", density " << density);
    const std::uint32_t size = ref.solve();
    ASSERT_EQ(hk.solve(), size);
    ASSERT_EQ(hk.phases(), ref.phases());
    for (std::uint32_t l = 0; l < lefts; ++l) {
      ASSERT_EQ(hk.match_of_left(l), ref.match_of_left(l)) << "left " << l;
    }
    // solve() keeps the edges, so solving again gives the same matching.
    ASSERT_EQ(hk.solve(), size);
    ASSERT_EQ(hk.phases(), ref.phases());
  }
}

TEST(HopcroftKarp, MatchesTheReferenceAtWordBoundaries) {
  // Every shape of {63, 64, 65, 127, 128, 129} lefts by the same right
  // counts, on either side of the one- and two-word rows.  One recycled
  // solver is driven the way Solstice drives its own: solve, drop some
  // matched edges (a slice lowers those pairs below the threshold), OR new
  // edges into the rows (halving the threshold admits a bucket), solve
  // again.  After every solve its matching and phase count are compared
  // with a fresh reference solver, so layer masks left stale by an earlier
  // solve or shape would show.
  constexpr std::uint32_t kSizes[] = {63, 64, 65, 127, 128, 129};
  constexpr int kRounds = 6;
  sim::Rng rng{43};
  HopcroftKarp hk{0, 0};
  std::uint32_t max_phases = 0;
  for (const std::uint32_t lefts : kSizes) {
    for (const std::uint32_t rights : kSizes) {
      SCOPED_TRACE(::testing::Message() << lefts << " x " << rights);
      hk.reset(lefts, rights);
      std::vector<std::vector<bool>> edge(lefts, std::vector<bool>(rights, false));
      const double density = 0.5 / lefts + rng.next_double() * 0.06;
      for (std::uint32_t l = 0; l < lefts; ++l) {
        for (std::uint32_t r = 0; r < rights; ++r) {
          if (!rng.bernoulli(density)) continue;
          edge[l][r] = true;
          hk.add_edge(l, r);
        }
      }
      for (int round = 0; round < kRounds; ++round) {
        reference::HopcroftKarp ref{lefts, rights};
        for (std::uint32_t l = 0; l < lefts; ++l) {
          for (std::uint32_t r = 0; r < rights; ++r) {
            if (edge[l][r]) ref.add_edge(l, r);
          }
        }
        const std::uint32_t size = ref.solve();
        ASSERT_EQ(hk.solve(), size) << "round " << round;
        ASSERT_EQ(hk.phases(), ref.phases()) << "round " << round;
        for (std::uint32_t l = 0; l < lefts; ++l) {
          ASSERT_EQ(hk.match_of_left(l), ref.match_of_left(l))
              << "round " << round << ", left " << l;
        }
        max_phases = std::max(max_phases, hk.phases());

        for (std::uint32_t l = 0; l < lefts; ++l) {
          const std::uint32_t r = hk.match_of_left(l);
          if (r == HopcroftKarp::kFree || !rng.bernoulli(0.5)) continue;
          edge[l][r] = false;
          hk.row(l)[r / 64u] &= ~(std::uint64_t{1} << (r % 64u));
        }
        for (std::uint32_t l = 0; l < lefts; ++l) {
          for (std::uint32_t r = 0; r < rights; ++r) {
            if (edge[l][r] || !rng.bernoulli(density / 4)) continue;
            edge[l][r] = true;
            hk.row(l)[r / 64u] |= std::uint64_t{1} << (r % 64u);
          }
        }
      }
    }
  }
  EXPECT_GT(max_phases, 3u);  // the graphs need augmenting paths several layers deep
}

TEST(MaxSizeMatcher, CardinalityAtLeastAnyOtherMatcher) {
  MaxSizeMatcher ms;
  GreedyMaxWeightMatcher g;
  sim::Rng rng{17};
  for (int round = 0; round < 30; ++round) {
    const auto d = random_demand(8, rng, 0.3);
    EXPECT_GE(ms.compute(d).size(), g.compute(d).size());
  }
}

TEST(MaxSizeMatcher, RespectsDemand) {
  MaxSizeMatcher ms;
  sim::Rng rng{19};
  const auto d = random_demand(8, rng, 0.4);
  expect_respects_demand(ms.compute(d), d);
}

// ------------------------------------------------------------------- rotor

TEST(Rotor, CyclesThroughRotations) {
  RotorMatcher r{4};
  const auto d = full_demand(4);
  const Matching m1 = r.compute(d);
  const Matching m2 = r.compute(d);
  const Matching m3 = r.compute(d);
  const Matching m4 = r.compute(d);
  EXPECT_EQ(m1, Matching::rotation(4, 1));
  EXPECT_EQ(m2, Matching::rotation(4, 2));
  EXPECT_EQ(m3, Matching::rotation(4, 3));
  EXPECT_EQ(m4, Matching::rotation(4, 1));  // wraps, skipping identity
}

TEST(Rotor, IgnoresDemand) {
  RotorMatcher r{4};
  const demand::DemandMatrix empty{4};
  EXPECT_TRUE(r.compute(empty).is_perfect());
}

TEST(Rotor, DimensionMismatchThrows) {
  RotorMatcher r{4};
  EXPECT_THROW((void)r.compute(demand::DemandMatrix{5}), std::invalid_argument);
}

// ----------------------------------------------------------------- factory

TEST(Factory, BuildsAllKnownSpecs) {
  for (const auto& spec : known_matcher_specs()) {
    auto m = make_matcher(spec, 8, 1);
    ASSERT_NE(m, nullptr) << spec;
    EXPECT_FALSE(m->name().empty());
  }
}

TEST(Factory, ParsesIterationCounts) {
  auto m = make_matcher("islip:4", 8, 1);
  (void)m->compute(full_demand(8));
  EXPECT_LE(m->last_iterations(), 4u);
  EXPECT_EQ(m->name(), "islip-i4");
}

TEST(Factory, RejectsUnknownAndMalformedSpecs) {
  EXPECT_THROW((void)make_matcher("nope", 8), std::invalid_argument);
  EXPECT_THROW((void)make_matcher("islip:0", 8), std::invalid_argument);
  EXPECT_THROW((void)make_matcher("islip:abc", 8), std::invalid_argument);
  EXPECT_THROW((void)make_matcher("islip:", 8), std::invalid_argument);
}

}  // namespace
}  // namespace xdrs::schedulers
