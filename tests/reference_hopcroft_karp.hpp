// The vector-adjacency Hopcroft–Karp solver that the bitset solver in
// src/schedulers/hopcroft_karp.cpp replaced, kept line for line (apart from
// its name and where its constants live) as the oracle of the differential
// tests in test_matchers.cpp and test_solstice.cpp.  It visits each left's
// rights in the order add_edge was called, so it agrees with the bitset
// solver whenever every left's rights are first added in ascending order.
#ifndef XDRS_TESTS_REFERENCE_HOPCROFT_KARP_HPP
#define XDRS_TESTS_REFERENCE_HOPCROFT_KARP_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace xdrs::schedulers::reference {

class HopcroftKarp {
 public:
  static constexpr std::uint32_t kFree = 0xffffffffu;

  HopcroftKarp(std::uint32_t left_count, std::uint32_t right_count)
      : left_count_{left_count},
        right_count_{right_count},
        adj_(left_count),
        match_left_(left_count, kFree),
        match_right_(right_count, kFree),
        dist_(left_count, kInfDist) {}

  void add_edge(std::uint32_t left, std::uint32_t right) {
    if (left >= left_count_ || right >= right_count_) {
      throw std::out_of_range{"HopcroftKarp::add_edge"};
    }
    adj_[left].push_back(right);
  }

  void clear_edges() {
    for (auto& a : adj_) a.clear();
    std::fill(match_left_.begin(), match_left_.end(), kFree);
    std::fill(match_right_.begin(), match_right_.end(), kFree);
    phases_ = 0;
  }

  void reset(std::uint32_t left_count, std::uint32_t right_count) {
    if (left_count == left_count_ && right_count == right_count_) {
      clear_edges();
      return;
    }
    left_count_ = left_count;
    right_count_ = right_count;
    adj_.resize(left_count);
    match_left_.resize(left_count);
    match_right_.resize(right_count);
    dist_.resize(left_count);
    clear_edges();
  }

  std::uint32_t solve() {
    std::fill(match_left_.begin(), match_left_.end(), kFree);
    std::fill(match_right_.begin(), match_right_.end(), kFree);
    phases_ = 0;
    std::uint32_t matched = 0;
    while (bfs()) {
      ++phases_;
      for (std::uint32_t l = 0; l < left_count_; ++l) {
        if (match_left_[l] == kFree && dfs(l)) ++matched;
      }
    }
    return matched;
  }

  [[nodiscard]] std::uint32_t match_of_left(std::uint32_t left) const {
    if (left >= left_count_) throw std::out_of_range{"HopcroftKarp::match_of_left"};
    return match_left_[left];
  }

  [[nodiscard]] std::uint32_t phases() const noexcept { return phases_; }

 private:
  static constexpr std::uint32_t kInfDist = std::numeric_limits<std::uint32_t>::max();

  bool bfs() {
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
    bool found_augmenting = false;
    while (head < queue_.size()) {
      const std::uint32_t l = queue_[head++];
      for (const std::uint32_t r : adj_[l]) {
        const std::uint32_t next = match_right_[r];
        if (next == kFree) {
          found_augmenting = true;
        } else if (dist_[next] == kInfDist) {
          dist_[next] = dist_[l] + 1;
          queue_.push_back(next);
        }
      }
    }
    return found_augmenting;
  }

  bool dfs(std::uint32_t left) {
    for (const std::uint32_t r : adj_[left]) {
      const std::uint32_t next = match_right_[r];
      if (next == kFree || (dist_[next] == dist_[left] + 1 && dfs(next))) {
        match_left_[left] = r;
        match_right_[r] = left;
        return true;
      }
    }
    dist_[left] = kInfDist;
    return false;
  }

  std::uint32_t left_count_;
  std::uint32_t right_count_;
  std::vector<std::vector<std::uint32_t>> adj_;
  std::vector<std::uint32_t> match_left_;
  std::vector<std::uint32_t> match_right_;
  std::vector<std::uint32_t> dist_;
  std::vector<std::uint32_t> queue_;
  std::uint32_t phases_{0};
};

}  // namespace xdrs::schedulers::reference

#endif  // XDRS_TESTS_REFERENCE_HOPCROFT_KARP_HPP
