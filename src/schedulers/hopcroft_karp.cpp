#include "schedulers/hopcroft_karp.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/bitset.hpp"

namespace xdrs::schedulers {

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
    free_rights_.resize(wpr_);
    free_lefts_.resize(util::words_for_bits(left_count));
    // Layer d >= 1 holds at least one matched left, so the deepest layer
    // is at most left_count, and the BFS ends by writing the one below it.
    layers_.resize((static_cast<std::size_t>(left_count) + 2) * wpr_);
    reached_.resize(wpr_);
    frontier_.resize(wpr_);
    match_left_.resize(left_count);
    match_right_.resize(right_count);
  }
  clear_edges();
}

template <std::uint32_t kWords>
std::uint32_t HopcroftKarp::greedy() {
  // From an empty matching every left is in layer 0, so the first phase's
  // DFS never recurses: each left in turn takes its lowest free right.
  const std::uint32_t wpr = words<kWords>();
  std::uint64_t* free_rights = free_rights_.data();
  std::fill_n(free_rights, wpr, ~std::uint64_t{0});
  if (wpr > 0) free_rights[wpr - 1] = util::tail_mask(right_count_);
  std::fill(free_lefts_.begin(), free_lefts_.end(), 0);
  std::uint32_t matched = 0;
  for (std::uint32_t l = 0; l < left_count_; ++l) {
    const std::uint64_t* adj = row(l);
    std::uint32_t w = 0;
    while (w < wpr && (adj[w] & free_rights[w]) == 0) ++w;
    if (w == wpr) {
      free_lefts_[l / 64u] |= std::uint64_t{1} << (l % 64u);
      continue;
    }
    const std::uint64_t m = adj[w] & free_rights[w];
    const std::uint32_t r = w * 64u + static_cast<std::uint32_t>(std::countr_zero(m));
    match_left_[l] = r;
    match_right_[r] = l;
    free_rights[w] &= ~(std::uint64_t{1} << (r % 64u));
    ++matched;
  }
  return matched;
}

template <std::uint32_t kWords>
bool HopcroftKarp::build_layers() {
  // Layer 0 is the free lefts.  The rights first reached from layer d are
  // either free (an augmenting path ends there) or matched into layer
  // d + 1.  Each right is reached once, and the BFS runs to exhaustion, as
  // the DFS may end a path at a free right in any layer.
  const std::uint32_t wpr = words<kWords>();
  std::uint64_t* reached = reached_.data();
  std::uint64_t* frontier = frontier_.data();  // rights adjacent to the layer
  std::fill_n(reached, wpr, 0);
  std::fill_n(frontier, wpr, 0);
  std::fill_n(layer_rights(0), wpr, 0);
  for (std::uint32_t lw = 0; lw < free_lefts_.size(); ++lw) {
    for (std::uint64_t m = free_lefts_[lw]; m != 0; m &= m - 1) {
      const std::uint64_t* adj = row(lw * 64u + static_cast<std::uint32_t>(std::countr_zero(m)));
      for (std::uint32_t w = 0; w < wpr; ++w) frontier[w] |= adj[w];
    }
  }
  bool found = false;
  for (std::uint32_t depth = 1;; ++depth) {
    std::uint64_t* layer = layer_rights(depth);
    std::uint64_t any = 0;
    for (std::uint32_t w = 0; w < wpr; ++w) {
      const std::uint64_t fresh = frontier[w] & ~reached[w];
      reached[w] |= fresh;
      found |= (fresh & free_rights_[w]) != 0;
      layer[w] = fresh & ~free_rights_[w];
      any |= layer[w];
    }
    if (any == 0) return found;
    std::fill_n(frontier, wpr, 0);
    for (std::uint32_t rw = 0; rw < wpr; ++rw) {
      for (std::uint64_t m = layer[rw]; m != 0; m &= m - 1) {
        const std::uint32_t r = rw * 64u + static_cast<std::uint32_t>(std::countr_zero(m));
        const std::uint64_t* adj = row(match_right_[r]);
        for (std::uint32_t w = 0; w < wpr; ++w) frontier[w] |= adj[w];
      }
    }
  }
}

template <std::uint32_t kWords>
bool HopcroftKarp::augment(std::uint32_t left, std::uint32_t depth) {
  // The candidates are the free rights and the rights matched into the
  // next layer.  Until this call succeeds, a failed call below it changes
  // only deeper layers and the bit it was entered through, so one mask per
  // word stays exact for the whole scan.
  const std::uint32_t wpr = words<kWords>();
  const std::uint64_t* adj = row(left);
  std::uint64_t* here = layer_rights(depth);
  std::uint64_t* next = here + wpr;
  for (std::uint32_t w = 0; w < wpr; ++w) {
    for (std::uint64_t m = adj[w] & (free_rights_[w] | next[w]); m != 0; m &= m - 1) {
      const std::uint64_t bit = m & (~m + 1);
      const std::uint32_t r = w * 64u + static_cast<std::uint32_t>(std::countr_zero(m));
      if ((free_rights_[w] & bit) != 0) {
        free_rights_[w] &= ~bit;
      } else {
        // r's partner either fails and leaves its layer, or passes r up to
        // `left`: r leaves the next layer either way.
        const bool augmented = augment<kWords>(match_right_[r], depth + 1);
        next[w] &= ~bit;
        if (!augmented) continue;
      }
      here[w] |= bit;
      match_left_[left] = r;
      match_right_[r] = left;
      return true;
    }
  }
  return false;
}

template <std::uint32_t kWords>
std::uint32_t HopcroftKarp::search() {
  std::uint32_t matched = greedy<kWords>();
  phases_ = matched > 0 ? 1 : 0;
  while (build_layers<kWords>()) {
    ++phases_;
    // Lefts free at the BFS stay free until their own DFS, so the mask can
    // be walked as it was when the phase began.
    for (std::uint32_t lw = 0; lw < free_lefts_.size(); ++lw) {
      for (std::uint64_t m = free_lefts_[lw]; m != 0; m &= m - 1) {
        const std::uint32_t l = lw * 64u + static_cast<std::uint32_t>(std::countr_zero(m));
        if (augment<kWords>(l, 0)) {
          free_lefts_[lw] &= ~(m & (~m + 1));
          ++matched;
        }
      }
    }
  }
  return matched;
}

std::uint32_t HopcroftKarp::solve() {
  std::fill(match_left_.begin(), match_left_.end(), kFree);
  std::fill(match_right_.begin(), match_right_.end(), kFree);
  return wpr_ == 1 ? search<1>() : search<0>();
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
