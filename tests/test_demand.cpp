// Tests for the demand matrix and the demand estimators.
#include <gtest/gtest.h>

#include <vector>

#include "demand/demand_matrix.hpp"
#include "demand/estimator.hpp"

namespace xdrs::demand {
namespace {

using sim::Time;
using namespace xdrs::sim::literals;

TEST(DemandMatrix, ConstructionValidation) {
  EXPECT_THROW(DemandMatrix(0, 3), std::invalid_argument);
  EXPECT_THROW(DemandMatrix(3, 0), std::invalid_argument);
}

TEST(DemandMatrix, SetGetAndTotal) {
  DemandMatrix m{3};
  m.set(0, 1, 100);
  m.set(2, 0, 50);
  EXPECT_EQ(m.at(0, 1), 100);
  EXPECT_EQ(m.at(2, 0), 50);
  EXPECT_EQ(m.at(1, 1), 0);
  EXPECT_EQ(m.total(), 150);
  m.set(0, 1, 30);  // overwrite adjusts total
  EXPECT_EQ(m.total(), 80);
}

TEST(DemandMatrix, UncheckedAccessorsTrackTotals) {
  DemandMatrix m{3};
  m.add_unchecked(0, 1, 100);
  m.add_unchecked(2, 2, 50);
  EXPECT_EQ(m.at_unchecked(0, 1), 100);
  EXPECT_EQ(m.at(2, 2), 50);  // checked view sees the same store
  EXPECT_EQ(m.total(), 150);
  m.add_unchecked(0, 1, -40);
  EXPECT_EQ(m.at_unchecked(0, 1), 60);
  EXPECT_EQ(m.total(), 110);
}

TEST(DemandMatrix, FillAndCopyFrom) {
  DemandMatrix m{2, 3};
  m.fill(7);
  EXPECT_EQ(m.at(1, 2), 7);
  EXPECT_EQ(m.total(), 7 * 6);
  EXPECT_THROW(m.fill(-1), std::invalid_argument);

  DemandMatrix src{2, 3};
  src.set(0, 0, 11);
  src.set(1, 2, 22);
  m.copy_from(src);  // same shape: reuses storage
  EXPECT_EQ(m, src);

  DemandMatrix other{5};
  other.copy_from(src);  // shape change
  EXPECT_EQ(other, src);
  EXPECT_EQ(other.inputs(), 2u);
  EXPECT_EQ(other.total(), 33);
}

TEST(DemandMatrix, AddAndSubtractClamped) {
  DemandMatrix m{2};
  m.add(0, 1, 100);
  m.subtract_clamped(0, 1, 30);
  EXPECT_EQ(m.at(0, 1), 70);
  m.subtract_clamped(0, 1, 1000);  // clamps at zero
  EXPECT_EQ(m.at(0, 1), 0);
  EXPECT_EQ(m.total(), 0);
}

TEST(DemandMatrix, NegativeRejected) {
  DemandMatrix m{2};
  EXPECT_THROW(m.set(0, 0, -5), std::invalid_argument);
  m.set(0, 0, 10);
  EXPECT_THROW(m.add(0, 0, -20), std::invalid_argument);
}

TEST(DemandMatrix, RowColSums) {
  DemandMatrix m{3};
  m.set(0, 1, 10);
  m.set(0, 2, 20);
  m.set(1, 2, 5);
  EXPECT_EQ(m.row_sum(0), 30);
  EXPECT_EQ(m.row_sum(1), 5);
  EXPECT_EQ(m.col_sum(2), 25);
  EXPECT_EQ(m.col_sum(0), 0);
  EXPECT_EQ(m.max_line_sum(), 30);

  // The one-pass form agrees, on a non-square shape whose largest line is
  // a column.
  DemandMatrix w{2, 4};
  w.set(0, 3, 7);
  w.set(1, 3, 9);
  w.set(1, 0, 1);
  std::vector<std::int64_t> rows{99}, cols;
  EXPECT_EQ(w.line_sums(rows, cols), 16);
  EXPECT_EQ(rows, (std::vector<std::int64_t>{7, 10}));
  EXPECT_EQ(cols, (std::vector<std::int64_t>{1, 0, 0, 16}));
  EXPECT_EQ(w.max_line_sum(), 16);
}

TEST(DemandMatrix, MaxElementAndNonzeroCount) {
  DemandMatrix m{2};
  EXPECT_EQ(m.max_element(), 0);
  m.set(0, 1, 7);
  m.set(1, 0, 3);
  EXPECT_EQ(m.max_element(), 7);
  EXPECT_EQ(m.nonzero_count(), 2u);
}

TEST(DemandMatrix, ForEachNonzeroVisitsExactlyPositives) {
  DemandMatrix m{2};
  m.set(0, 1, 5);
  m.set(1, 1, 9);
  std::int64_t seen = 0;
  int visits = 0;
  m.for_each_nonzero([&](net::PortId, net::PortId, std::int64_t v) {
    seen += v;
    ++visits;
  });
  EXPECT_EQ(seen, 14);
  EXPECT_EQ(visits, 2);
}

TEST(DemandMatrix, ClearAndResize) {
  DemandMatrix m{2};
  m.set(0, 0, 42);
  m.clear();
  EXPECT_EQ(m.total(), 0);
  m.resize(4, 4);
  EXPECT_EQ(m.inputs(), 4u);
  EXPECT_EQ(m.at(3, 3), 0);
}

TEST(DemandMatrix, OutOfRangeThrows) {
  DemandMatrix m{2};
  EXPECT_THROW((void)m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.set(0, 2, 1), std::out_of_range);
  EXPECT_THROW((void)m.row_sum(2), std::out_of_range);
  EXPECT_THROW((void)m.col_sum(2), std::out_of_range);
}

// ---------------------------------------------------- support bitmap views

/// Checks every bitmap invariant against the dense store: bit set iff the
/// element is strictly positive (rows AND transposed columns), tail bits
/// past the dimensions zero, and the popcount-derived nonzero count right.
void expect_support_consistent(const DemandMatrix& m) {
  for (net::PortId i = 0; i < m.inputs(); ++i) {
    for (net::PortId j = 0; j < m.outputs(); ++j) {
      const bool nz = m.at(i, j) > 0;
      EXPECT_EQ(m.has_demand(i, j), nz) << "(" << i << "," << j << ")";
      EXPECT_EQ(((m.row_support(i)[j / 64] >> (j % 64)) & 1u) != 0, nz);
      EXPECT_EQ(((m.col_support(j)[i / 64] >> (i % 64)) & 1u) != 0, nz);
    }
  }
  for (net::PortId i = 0; i < m.inputs(); ++i) {
    EXPECT_EQ(m.row_support(i)[m.words_per_row() - 1] & ~util::tail_mask(m.outputs()), 0u);
  }
  for (net::PortId j = 0; j < m.outputs(); ++j) {
    EXPECT_EQ(m.col_support(j)[m.words_per_col() - 1] & ~util::tail_mask(m.inputs()), 0u);
  }
  std::size_t expected = 0;
  for (net::PortId i = 0; i < m.inputs(); ++i) {
    for (net::PortId j = 0; j < m.outputs(); ++j) expected += m.at(i, j) > 0 ? 1 : 0;
  }
  EXPECT_EQ(m.nonzero_count(), expected);
}

TEST(DemandMatrix, SupportBitmapTracksEveryMutation) {
  // 65 outputs forces a two-word row with a 1-bit tail.
  DemandMatrix m{3, 65};
  m.set(0, 0, 5);
  m.set(0, 64, 7);  // tail-word bit
  m.set(1, 63, 1);  // last bit of word 0
  m.add(2, 10, 3);
  expect_support_consistent(m);

  m.set(0, 0, 0);  // drain via set
  m.subtract_clamped(0, 64, 100);  // drain via clamped subtraction
  m.add_unchecked(1, 63, -1);  // drain via the unchecked hot path
  expect_support_consistent(m);

  m.fill(9);
  expect_support_consistent(m);
  m.fill(0);
  expect_support_consistent(m);

  m.set(2, 2, 4);
  m.clear();
  expect_support_consistent(m);

  m.resize(65, 3);
  m.set(64, 2, 8);
  expect_support_consistent(m);

  DemandMatrix copy{1, 1};
  copy.copy_from(m);
  expect_support_consistent(copy);
}

TEST(DemandMatrix, EqualityComparesValuesNotJustSupport) {
  DemandMatrix a{2}, b{2};
  a.set(0, 0, 3);
  a.set(0, 1, 5);
  b.set(0, 0, 3);
  b.set(0, 1, 5);
  EXPECT_EQ(a, b);
  // Same shape, same support bitmap, same total — only the dense values
  // differ, so the equality must fall through to the value compare.
  b.set(0, 0, 5);
  b.set(0, 1, 3);
  EXPECT_FALSE(a == b);
}

// ------------------------------------------------------------- estimators

TEST(InstantaneousEstimator, TracksBacklogExactly) {
  InstantaneousEstimator e{2, 2};
  e.on_arrival(0, 1, 100, 1_us);
  e.on_arrival(0, 1, 50, 2_us);
  e.on_departure(0, 1, 60, 3_us);
  DemandMatrix m;
  e.snapshot(3_us, m);
  EXPECT_EQ(m.at(0, 1), 90);
  EXPECT_EQ(m.total(), 90);
}

TEST(InstantaneousEstimator, DepartureClampsAtZero) {
  InstantaneousEstimator e{2, 2};
  e.on_arrival(0, 1, 10, 1_us);
  e.on_departure(0, 1, 1000, 2_us);
  DemandMatrix m;
  e.snapshot(2_us, m);
  EXPECT_EQ(m.at(0, 1), 0);
}

TEST(EwmaEstimator, ValidatesAlpha) {
  EXPECT_THROW(EwmaEstimator(2, 2, 0.0), std::invalid_argument);
  EXPECT_THROW(EwmaEstimator(2, 2, 1.5), std::invalid_argument);
}

TEST(EwmaEstimator, AlphaOneEqualsInstantaneous) {
  EwmaEstimator e{2, 2, 1.0};
  e.on_arrival(0, 1, 500, 1_us);
  DemandMatrix m;
  e.snapshot(1_us, m);
  EXPECT_EQ(m.at(0, 1), 500);
}

TEST(EwmaEstimator, SmoothsTowardsBacklog) {
  EwmaEstimator e{2, 2, 0.5};
  e.on_arrival(0, 1, 1000, 1_us);
  DemandMatrix m;
  e.snapshot(1_us, m);
  EXPECT_EQ(m.at(0, 1), 500);  // 0.5 * 1000 + 0.5 * 0
  e.snapshot(2_us, m);
  EXPECT_EQ(m.at(0, 1), 750);  // 0.5 * 1000 + 0.5 * 500
}

TEST(EwmaEstimator, DecaysAfterService) {
  EwmaEstimator e{2, 2, 0.5};
  e.on_arrival(0, 1, 1000, 1_us);
  DemandMatrix m;
  e.snapshot(1_us, m);
  e.on_departure(0, 1, 1000, 2_us);
  e.snapshot(2_us, m);
  EXPECT_EQ(m.at(0, 1), 250);  // halves each snapshot with empty backlog
}

TEST(WindowedRateEstimator, CountsArrivalsInWindow) {
  WindowedRateEstimator e{2, 2, 10_us, 4};  // 40 us window
  e.on_arrival(0, 1, 100, 5_us);
  e.on_arrival(0, 1, 200, 15_us);
  DemandMatrix m;
  e.snapshot(20_us, m);
  EXPECT_EQ(m.at(0, 1), 300);
}

TEST(WindowedRateEstimator, OldArrivalsExpire) {
  WindowedRateEstimator e{2, 2, 10_us, 4};
  e.on_arrival(0, 1, 100, 5_us);
  DemandMatrix m;
  e.snapshot(100_us, m);  // far beyond the 40 us window
  EXPECT_EQ(m.at(0, 1), 0);
}

TEST(WindowedRateEstimator, IgnoresDepartures) {
  WindowedRateEstimator e{2, 2, 10_us, 4};
  e.on_arrival(0, 1, 100, 5_us);
  e.on_departure(0, 1, 100, 6_us);
  DemandMatrix m;
  e.snapshot(7_us, m);
  EXPECT_EQ(m.at(0, 1), 100);  // offered rate, not backlog
}

TEST(WindowedRateEstimator, ValidatesWindow) {
  EXPECT_THROW(WindowedRateEstimator(2, 2, Time::zero(), 4), std::invalid_argument);
  EXPECT_THROW(WindowedRateEstimator(2, 2, 1_us, 0), std::invalid_argument);
}

TEST(Estimators, NamesAreDistinct) {
  InstantaneousEstimator a{2, 2};
  EwmaEstimator b{2, 2, 0.5};
  WindowedRateEstimator c{2, 2, 1_us, 2};
  EXPECT_STRNE(a.name(), b.name());
  EXPECT_STRNE(b.name(), c.name());
}

}  // namespace
}  // namespace xdrs::demand
