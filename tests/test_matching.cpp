// Tests for the Matching (grant matrix) container invariants.
#include <gtest/gtest.h>

#include "schedulers/matching.hpp"

namespace xdrs::schedulers {
namespace {

TEST(Matching, StartsEmpty) {
  Matching m{4};
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.is_perfect());
  EXPECT_FALSE(m.output_of(0).has_value());
}

TEST(Matching, MatchPairsBothDirections) {
  Matching m{4};
  m.match(1, 2);
  EXPECT_EQ(m.output_of(1), 2u);
  EXPECT_EQ(m.input_of(2), 1u);
  EXPECT_TRUE(m.input_matched(1));
  EXPECT_TRUE(m.output_matched(2));
  EXPECT_FALSE(m.input_matched(0));
  EXPECT_EQ(m.size(), 1u);
}

TEST(Matching, ConflictingPairThrows) {
  Matching m{4};
  m.match(0, 1);
  EXPECT_THROW(m.match(0, 2), std::logic_error);  // input busy
  EXPECT_THROW(m.match(3, 1), std::logic_error);  // output busy
  m.match(0, 1);                                  // exact re-match is idempotent
  EXPECT_EQ(m.size(), 1u);
}

TEST(Matching, UnmatchInput) {
  Matching m{4};
  m.match(0, 1);
  m.unmatch_input(0);
  EXPECT_FALSE(m.input_matched(0));
  EXPECT_FALSE(m.output_matched(1));
  EXPECT_EQ(m.size(), 0u);
  m.unmatch_input(0);  // no-op
  m.match(0, 2);       // can re-match
  EXPECT_EQ(m.output_of(0), 2u);
}

TEST(Matching, PerfectDetection) {
  Matching m{3};
  m.match(0, 1);
  m.match(1, 2);
  EXPECT_FALSE(m.is_perfect());
  m.match(2, 0);
  EXPECT_TRUE(m.is_perfect());
}

TEST(Matching, RectangularDimensions) {
  Matching m{2, 4};
  m.match(0, 3);
  m.match(1, 1);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_FALSE(m.is_perfect());  // outputs outnumber inputs
  EXPECT_THROW(m.match(0, 5), std::out_of_range);
}

TEST(Matching, ForEachPairInInputOrder) {
  Matching m{4};
  m.match(2, 0);
  m.match(0, 3);
  std::vector<std::pair<net::PortId, net::PortId>> pairs;
  m.for_each_pair([&](net::PortId i, net::PortId j) { pairs.emplace_back(i, j); });
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<net::PortId, net::PortId>{0, 3}));
  EXPECT_EQ(pairs[1], (std::pair<net::PortId, net::PortId>{2, 0}));
}

TEST(Matching, ClearResets) {
  Matching m{3};
  m.match(0, 0);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.output_matched(0));
}

TEST(Matching, EqualityCompares) {
  Matching a{3}, b{3};
  a.match(0, 1);
  b.match(0, 1);
  EXPECT_EQ(a, b);
  b.match(1, 2);
  EXPECT_NE(a, b);
}

TEST(Matching, RotationIsPerfectPermutation) {
  for (std::uint32_t shift = 0; shift < 5; ++shift) {
    const Matching m = Matching::rotation(5, shift);
    EXPECT_TRUE(m.is_perfect());
    for (net::PortId i = 0; i < 5; ++i) EXPECT_EQ(m.output_of(i), (i + shift) % 5);
  }
}

TEST(Matching, AssignPermutationEqualsMatchingEachPair) {
  // Replaces whatever was there, re-dimensioning to the permutation's size.
  Matching m{2, 6};
  m.match(1, 5);
  const std::uint32_t perm[] = {2, 0, 3, 1};
  m.assign_permutation(perm);
  Matching expected{4};
  for (net::PortId i = 0; i < 4; ++i) expected.match(i, perm[i]);
  EXPECT_EQ(m, expected);
  EXPECT_TRUE(m.is_perfect());
  EXPECT_EQ(m.input_of(3), 2u);
  m.assign_permutation({});
  EXPECT_EQ(m, Matching{0});
}

TEST(Matching, ToStringRendersPairs) {
  Matching m{3};
  m.match(0, 2);
  m.match(1, 0);
  EXPECT_EQ(m.to_string(), "{0>2, 1>0}");
  EXPECT_EQ(Matching{2}.to_string(), "{}");
}

TEST(Matching, OutOfRangeQueriesThrow) {
  Matching m{2};
  EXPECT_THROW((void)m.output_of(2), std::out_of_range);
  EXPECT_THROW((void)m.input_of(2), std::out_of_range);
  EXPECT_THROW(m.unmatch_input(2), std::out_of_range);
}

}  // namespace
}  // namespace xdrs::schedulers
