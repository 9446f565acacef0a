#include "schedulers/hopcroft_karp.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "util/bitset.hpp"

namespace xdrs::schedulers {

namespace {
constexpr std::uint32_t kInfDist = std::numeric_limits<std::uint32_t>::max();
}

HopcroftKarp::HopcroftKarp(std::uint32_t left_count, std::uint32_t right_count)
    : left_count_{0}, right_count_{0}, wpr_{0} {
  reset(left_count, right_count);
}

void HopcroftKarp::add_edge(std::uint32_t left, std::uint32_t right) {
  if (left >= left_count_ || right >= right_count_) {
    throw std::out_of_range{"HopcroftKarp::add_edge"};
  }
  row(left)[right / 64u] |= std::uint64_t{1} << (right % 64u);
}

void HopcroftKarp::clear_edges() {
  std::fill(adj_.begin(), adj_.end(), 0);
  std::fill(match_left_.begin(), match_left_.end(), kFree);
  std::fill(match_right_.begin(), match_right_.end(), kFree);
  phases_ = 0;
}

void HopcroftKarp::reset(std::uint32_t left_count, std::uint32_t right_count) {
  if (left_count != left_count_ || right_count != right_count_) {
    left_count_ = left_count;
    right_count_ = right_count;
    wpr_ = util::words_for_bits(right_count);
    adj_.resize(static_cast<std::size_t>(left_count) * wpr_);
    rights_.resize(wpr_);
    match_left_.resize(left_count);
    match_right_.resize(right_count);
    dist_.resize(left_count);
    queue_.reserve(left_count);  // each left enters the BFS FIFO at most once
  }
  clear_edges();
}

void HopcroftKarp::fill_rights() {
  std::fill(rights_.begin(), rights_.end(), ~std::uint64_t{0});
  if (wpr_ > 0) rights_[wpr_ - 1] = util::tail_mask(right_count_);
}

std::uint32_t HopcroftKarp::greedy() {
  // From an empty matching every left is at distance 0, so the first
  // phase's DFS never recurses: each left in turn takes its lowest free
  // right.
  fill_rights();  // every right starts free
  std::uint32_t matched = 0;
  for (std::uint32_t l = 0; l < left_count_; ++l) {
    const std::uint64_t* adj = row(l);
    for (std::uint32_t w = 0; w < wpr_; ++w) {
      const std::uint64_t m = adj[w] & rights_[w];
      if (m == 0) continue;
      const std::uint32_t r = w * 64u + static_cast<std::uint32_t>(std::countr_zero(m));
      match_left_[l] = r;
      match_right_[r] = l;
      rights_[w] &= ~(std::uint64_t{1} << (r % 64u));
      ++matched;
      break;
    }
  }
  return matched;
}

bool HopcroftKarp::bfs() {
  // Each left vertex enters the FIFO at most once per phase: it is reached
  // only through its matched right, and each right is expanded once (the
  // `rights_` mask holds those not yet reached).
  queue_.clear();
  std::size_t head = 0;
  for (std::uint32_t l = 0; l < left_count_; ++l) {
    if (match_left_[l] == kFree) {
      dist_[l] = 0;
      queue_.push_back(l);
    } else {
      dist_[l] = kInfDist;
    }
  }
  fill_rights();
  bool found_augmenting = false;
  while (head < queue_.size()) {
    const std::uint32_t l = queue_[head++];
    const std::uint64_t* adj = row(l);
    for (std::uint32_t w = 0; w < wpr_; ++w) {
      std::uint64_t m = adj[w] & rights_[w];
      rights_[w] &= ~m;
      while (m != 0) {
        const std::uint32_t r = w * 64u + static_cast<std::uint32_t>(std::countr_zero(m));
        m &= m - 1;
        const std::uint32_t next = match_right_[r];
        if (next == kFree) {
          found_augmenting = true;
        } else {
          dist_[next] = dist_[l] + 1;
          queue_.push_back(next);
        }
      }
    }
  }
  return found_augmenting;
}

bool HopcroftKarp::dfs(std::uint32_t left) {
  const std::uint64_t* adj = row(left);
  const std::uint32_t next_dist = dist_[left] + 1;
  for (std::uint32_t w = 0; w < wpr_; ++w) {
    for (std::uint64_t m = adj[w]; m != 0; m &= m - 1) {
      const std::uint32_t r = w * 64u + static_cast<std::uint32_t>(std::countr_zero(m));
      const std::uint32_t next = match_right_[r];
      if (next == kFree || (dist_[next] == next_dist && dfs(next))) {
        match_left_[left] = r;
        match_right_[r] = left;
        return true;
      }
    }
  }
  dist_[left] = kInfDist;
  return false;
}

std::uint32_t HopcroftKarp::solve() {
  std::fill(match_left_.begin(), match_left_.end(), kFree);
  std::fill(match_right_.begin(), match_right_.end(), kFree);
  std::uint32_t matched = greedy();
  phases_ = matched > 0 ? 1 : 0;
  while (bfs()) {
    ++phases_;
    for (std::uint32_t l = 0; l < left_count_; ++l) {
      if (match_left_[l] == kFree && dfs(l)) ++matched;
    }
  }
  return matched;
}

std::uint32_t HopcroftKarp::match_of_left(std::uint32_t left) const {
  if (left >= left_count_) throw std::out_of_range{"HopcroftKarp::match_of_left"};
  return match_left_[left];
}

void MaxSizeMatcher::compute_into(const demand::DemandMatrix& demand, Matching& out) {
  // Warm replay on support equality: max-size matching never looks at the
  // demand values, only at which pairs are positive.
  if (warm_valid_ && demand.inputs() == prev_inputs_ && demand.outputs() == prev_outputs_ &&
      demand.row_support_words() == prev_support_) {
    out = prev_result_;
    last_iterations_ = prev_iterations_;
    return;
  }

  // The support bitmap has the solver's row layout (one row of
  // ceil(outputs / 64) words per input), so it is the adjacency verbatim.
  hk_.reset(demand.inputs(), demand.outputs());
  const std::vector<std::uint64_t>& support = demand.row_support_words();
  std::copy(support.begin(), support.end(), hk_.row(0));
  hk_.solve();
  last_iterations_ = hk_.phases();

  out.reset(demand.inputs(), demand.outputs());
  for (std::uint32_t l = 0; l < demand.inputs(); ++l) {
    const std::uint32_t r = hk_.match_of_left(l);
    if (r != HopcroftKarp::kFree) out.match(l, r);
  }

  prev_support_ = demand.row_support_words();
  prev_inputs_ = demand.inputs();
  prev_outputs_ = demand.outputs();
  prev_result_ = out;
  prev_iterations_ = last_iterations_;
  warm_valid_ = true;
}

}  // namespace xdrs::schedulers
