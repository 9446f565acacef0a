// The demand matrix: element (i, j) is the estimated traffic (bytes) that
// input i wants to send to output j.  This is the data structure the
// scheduling logic computes over, and the interface between demand
// estimation and the scheduling algorithms.
//
// Alongside the dense int64 store the matrix maintains two uint64_t
// support bitmaps — row-major over outputs and column-major over inputs,
// 64 ports per word — updated incrementally by every mutation.  Matcher
// kernels consume these views directly (find-first-set, mask-AND) instead
// of scanning the int64 grid: at 128 ports the whole bitmap pair is 4 KiB,
// so a matcher's per-iteration working set lives in L1 instead of walking
// 128 KiB of demand values.  Invariant: a bit is set iff the element is
// strictly positive, and bits beyond the dimensions are zero.
#ifndef XDRS_DEMAND_DEMAND_MATRIX_HPP
#define XDRS_DEMAND_DEMAND_MATRIX_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "util/bitset.hpp"

namespace xdrs::demand {

class DemandMatrix {
 public:
  DemandMatrix() = default;
  DemandMatrix(std::uint32_t inputs, std::uint32_t outputs);

  /// Square convenience constructor.
  explicit DemandMatrix(std::uint32_t ports) : DemandMatrix(ports, ports) {}

  [[nodiscard]] std::uint32_t inputs() const noexcept { return inputs_; }
  [[nodiscard]] std::uint32_t outputs() const noexcept { return outputs_; }

  [[nodiscard]] std::int64_t at(net::PortId i, net::PortId j) const;
  void set(net::PortId i, net::PortId j, std::int64_t v);
  void add(net::PortId i, net::PortId j, std::int64_t delta);

  // Unchecked flat-store accessors for hot paths (matcher inner loops,
  // estimator snapshots).  Preconditions: i < inputs(), j < outputs(), and
  // for add_unchecked the element must stay non-negative.
  [[nodiscard]] std::int64_t at_unchecked(net::PortId i, net::PortId j) const noexcept {
    return v_[static_cast<std::size_t>(i) * outputs_ + j];
  }
  void add_unchecked(net::PortId i, net::PortId j, std::int64_t delta) noexcept {
    auto& slot = v_[static_cast<std::size_t>(i) * outputs_ + j];
    slot += delta;
    total_ += delta;
    update_support(i, j, slot > 0);
  }

  /// Clamped subtraction: never drives an element below zero.
  void subtract_clamped(net::PortId i, net::PortId j, std::int64_t delta);

  void clear() noexcept;
  void resize(std::uint32_t inputs, std::uint32_t outputs);

  /// Sets every element to `v` (>= 0) without changing the shape.
  void fill(std::int64_t v);

  /// Becomes a copy of `other`, reusing the existing allocation when the
  /// element count already matches — the per-snapshot path of the sweep
  /// runner, where reallocation churn would dominate small matrices.
  void copy_from(const DemandMatrix& other);

  [[nodiscard]] std::int64_t row_sum(net::PortId i) const;
  [[nodiscard]] std::int64_t col_sum(net::PortId j) const;
  [[nodiscard]] std::int64_t total() const noexcept { return total_; }
  [[nodiscard]] std::int64_t max_element() const;

  /// Largest row or column sum — the quantity BvN-style decompositions
  /// must cover (the matrix "fits" in that many service units).
  [[nodiscard]] std::int64_t max_line_sum() const;

  /// Every row sum into `rows` and every column sum into `cols`, in one
  /// row-major pass (both are resized; recycled buffers stay off the heap).
  /// Returns the largest of them, max_line_sum().
  std::int64_t line_sums(std::vector<std::int64_t>& rows, std::vector<std::int64_t>& cols) const;

  [[nodiscard]] std::size_t nonzero_count() const;

  // ---- support bitmap views (matcher kernel hot path) ---------------------
  // Row view: one bit per OUTPUT, set iff demand(i, j) > 0.
  // Column view: one bit per INPUT, set iff demand(i, j) > 0.
  // Word counts are words_per_row()/words_per_col(); tail bits are zero.
  [[nodiscard]] std::uint32_t words_per_row() const noexcept { return wpr_; }
  [[nodiscard]] std::uint32_t words_per_col() const noexcept { return wpc_; }
  [[nodiscard]] const std::uint64_t* row_support(net::PortId i) const noexcept {
    return row_bits_.data() + static_cast<std::size_t>(i) * wpr_;
  }
  [[nodiscard]] const std::uint64_t* col_support(net::PortId j) const noexcept {
    return col_bits_.data() + static_cast<std::size_t>(j) * wpc_;
  }
  [[nodiscard]] util::BitsetView row_view(net::PortId i) const noexcept {
    return {row_support(i), wpr_};
  }
  [[nodiscard]] util::BitsetView col_view(net::PortId j) const noexcept {
    return {col_support(j), wpc_};
  }
  /// The whole row-major support bitmap — the cheap O(N^2/64) identity the
  /// warm-rematch caches compare (equal bitmap <=> equal support).
  [[nodiscard]] const std::vector<std::uint64_t>& row_support_words() const noexcept {
    return row_bits_;
  }
  /// True iff demand(i, j) > 0, via one bit test instead of an int64 load.
  [[nodiscard]] bool has_demand(net::PortId i, net::PortId j) const noexcept {
    return (row_bits_[static_cast<std::size_t>(i) * wpr_ + j / 64u] >> (j % 64u)) & 1u;
  }
  /// Contiguous row of demand values (outputs() elements) — the dense view
  /// kernels that need values (not just support) iterate.
  [[nodiscard]] const std::int64_t* row_data(net::PortId i) const noexcept {
    return v_.data() + static_cast<std::size_t>(i) * outputs_;
  }

  /// Calls `fn(i, j, value)` for every strictly positive element, in
  /// row-major order (bitmap-driven: zero rows cost one word test each).
  void for_each_nonzero(const std::function<void(net::PortId, net::PortId, std::int64_t)>& fn) const;

  /// Value equality.  Ordered cheapest-reject-first: shape and total, then
  /// the support bitmaps (word compares), then the dense values — so the
  /// warm-rematch equality probe usually answers without touching the grid.
  [[nodiscard]] bool operator==(const DemandMatrix& other) const noexcept;

 private:
  [[nodiscard]] std::size_t idx(net::PortId i, net::PortId j) const;

  /// Keeps both support bitmaps consistent with element (i, j) being
  /// strictly positive (`nz`).  Branchless: two masked stores.
  void update_support(net::PortId i, net::PortId j, bool nz) noexcept {
    const std::uint64_t rm = std::uint64_t{1} << (j % 64u);
    std::uint64_t& rw = row_bits_[static_cast<std::size_t>(i) * wpr_ + j / 64u];
    rw = nz ? (rw | rm) : (rw & ~rm);
    const std::uint64_t cm = std::uint64_t{1} << (i % 64u);
    std::uint64_t& cw = col_bits_[static_cast<std::size_t>(j) * wpc_ + i / 64u];
    cw = nz ? (cw | cm) : (cw & ~cm);
  }

  std::uint32_t inputs_{0};
  std::uint32_t outputs_{0};
  std::uint32_t wpr_{0};  ///< words per row-support row  (= ceil(outputs/64))
  std::uint32_t wpc_{0};  ///< words per col-support column (= ceil(inputs/64))
  std::vector<std::int64_t> v_;
  std::vector<std::uint64_t> row_bits_;  ///< inputs x wpr_, bit j of row i <=> v(i,j) > 0
  std::vector<std::uint64_t> col_bits_;  ///< outputs x wpc_, bit i of col j <=> v(i,j) > 0
  std::int64_t total_{0};
};

}  // namespace xdrs::demand

#endif  // XDRS_DEMAND_DEMAND_MATRIX_HPP
