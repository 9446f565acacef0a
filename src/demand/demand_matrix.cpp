#include "demand/demand_matrix.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace xdrs::demand {

DemandMatrix::DemandMatrix(std::uint32_t inputs, std::uint32_t outputs)
    : inputs_{inputs},
      outputs_{outputs},
      wpr_{util::words_for_bits(outputs)},
      wpc_{util::words_for_bits(inputs)},
      v_(static_cast<std::size_t>(inputs) * outputs, 0),
      row_bits_(static_cast<std::size_t>(inputs) * wpr_, 0),
      col_bits_(static_cast<std::size_t>(outputs) * wpc_, 0) {
  if (inputs == 0 || outputs == 0) {
    throw std::invalid_argument{"DemandMatrix: dimensions must be >= 1"};
  }
}

std::size_t DemandMatrix::idx(net::PortId i, net::PortId j) const {
  if (i >= inputs_ || j >= outputs_) throw std::out_of_range{"DemandMatrix: index"};
  return static_cast<std::size_t>(i) * outputs_ + j;
}

std::int64_t DemandMatrix::at(net::PortId i, net::PortId j) const { return v_[idx(i, j)]; }

void DemandMatrix::set(net::PortId i, net::PortId j, std::int64_t v) {
  if (v < 0) throw std::invalid_argument{"DemandMatrix: negative demand"};
  auto& slot = v_[idx(i, j)];
  total_ += v - slot;
  slot = v;
  update_support(i, j, v > 0);
}

void DemandMatrix::add(net::PortId i, net::PortId j, std::int64_t delta) {
  auto& slot = v_[idx(i, j)];
  if (slot + delta < 0) throw std::invalid_argument{"DemandMatrix: add would go negative"};
  slot += delta;
  total_ += delta;
  update_support(i, j, slot > 0);
}

void DemandMatrix::subtract_clamped(net::PortId i, net::PortId j, std::int64_t delta) {
  auto& slot = v_[idx(i, j)];
  const std::int64_t removed = std::min(slot, delta);
  slot -= removed;
  total_ -= removed;
  update_support(i, j, slot > 0);
}

void DemandMatrix::clear() noexcept {
  std::fill(v_.begin(), v_.end(), 0);
  std::fill(row_bits_.begin(), row_bits_.end(), 0);
  std::fill(col_bits_.begin(), col_bits_.end(), 0);
  total_ = 0;
}

void DemandMatrix::resize(std::uint32_t inputs, std::uint32_t outputs) {
  if (inputs == 0 || outputs == 0) {
    throw std::invalid_argument{"DemandMatrix: dimensions must be >= 1"};
  }
  inputs_ = inputs;
  outputs_ = outputs;
  wpr_ = util::words_for_bits(outputs);
  wpc_ = util::words_for_bits(inputs);
  v_.assign(static_cast<std::size_t>(inputs) * outputs, 0);
  row_bits_.assign(static_cast<std::size_t>(inputs) * wpr_, 0);
  col_bits_.assign(static_cast<std::size_t>(outputs) * wpc_, 0);
  total_ = 0;
}

void DemandMatrix::fill(std::int64_t v) {
  if (v < 0) throw std::invalid_argument{"DemandMatrix: negative demand"};
  std::fill(v_.begin(), v_.end(), v);
  total_ = v * static_cast<std::int64_t>(v_.size());
  if (v > 0) {
    std::fill(row_bits_.begin(), row_bits_.end(), ~std::uint64_t{0});
    std::fill(col_bits_.begin(), col_bits_.end(), ~std::uint64_t{0});
    // Tail bits past the dimensions must stay zero for every row/column.
    const std::uint64_t rt = util::tail_mask(outputs_);
    for (std::uint32_t i = 0; i < inputs_; ++i) {
      row_bits_[static_cast<std::size_t>(i) * wpr_ + wpr_ - 1] = rt;
    }
    const std::uint64_t ct = util::tail_mask(inputs_);
    for (std::uint32_t j = 0; j < outputs_; ++j) {
      col_bits_[static_cast<std::size_t>(j) * wpc_ + wpc_ - 1] = ct;
    }
  } else {
    std::fill(row_bits_.begin(), row_bits_.end(), 0);
    std::fill(col_bits_.begin(), col_bits_.end(), 0);
  }
}

void DemandMatrix::copy_from(const DemandMatrix& other) {
  inputs_ = other.inputs_;
  outputs_ = other.outputs_;
  wpr_ = other.wpr_;
  wpc_ = other.wpc_;
  v_.assign(other.v_.begin(), other.v_.end());
  row_bits_.assign(other.row_bits_.begin(), other.row_bits_.end());
  col_bits_.assign(other.col_bits_.begin(), other.col_bits_.end());
  total_ = other.total_;
}

std::int64_t DemandMatrix::row_sum(net::PortId i) const {
  if (i >= inputs_) throw std::out_of_range{"DemandMatrix::row_sum"};
  std::int64_t s = 0;
  for (std::uint32_t j = 0; j < outputs_; ++j) s += v_[static_cast<std::size_t>(i) * outputs_ + j];
  return s;
}

std::int64_t DemandMatrix::col_sum(net::PortId j) const {
  if (j >= outputs_) throw std::out_of_range{"DemandMatrix::col_sum"};
  std::int64_t s = 0;
  for (std::uint32_t i = 0; i < inputs_; ++i) s += v_[static_cast<std::size_t>(i) * outputs_ + j];
  return s;
}

std::int64_t DemandMatrix::max_element() const {
  return v_.empty() ? 0 : *std::max_element(v_.begin(), v_.end());
}

std::int64_t DemandMatrix::max_line_sum() const {
  std::vector<std::int64_t> rows, cols;
  return line_sums(rows, cols);
}

std::int64_t DemandMatrix::line_sums(std::vector<std::int64_t>& rows,
                                     std::vector<std::int64_t>& cols) const {
  rows.assign(inputs_, 0);
  cols.assign(outputs_, 0);
  std::int64_t best = 0;
  for (std::uint32_t i = 0; i < inputs_; ++i) {
    const std::int64_t* row = row_data(i);
    std::int64_t s = 0;
    for (std::uint32_t j = 0; j < outputs_; ++j) {
      s += row[j];
      cols[j] += row[j];
    }
    rows[i] = s;
    best = std::max(best, s);
  }
  for (const std::int64_t s : cols) best = std::max(best, s);
  return best;
}

std::size_t DemandMatrix::nonzero_count() const {
  std::size_t c = 0;
  for (const std::uint64_t w : row_bits_) c += static_cast<std::size_t>(std::popcount(w));
  return c;
}

void DemandMatrix::for_each_nonzero(
    const std::function<void(net::PortId, net::PortId, std::int64_t)>& fn) const {
  for (std::uint32_t i = 0; i < inputs_; ++i) {
    const std::int64_t* row = v_.data() + static_cast<std::size_t>(i) * outputs_;
    const std::uint64_t* bits = row_support(i);
    for (std::uint32_t w = 0; w < wpr_; ++w) {
      std::uint64_t word = bits[w];
      while (word != 0) {
        const std::uint32_t j = w * 64u + static_cast<std::uint32_t>(std::countr_zero(word));
        fn(i, j, row[j]);
        word &= word - 1;
      }
    }
  }
}

bool DemandMatrix::operator==(const DemandMatrix& other) const noexcept {
  return inputs_ == other.inputs_ && outputs_ == other.outputs_ && total_ == other.total_ &&
         row_bits_ == other.row_bits_ && v_ == other.v_;
}

}  // namespace xdrs::demand
