// Maximum-cardinality bipartite matching (Hopcroft–Karp, O(E sqrt(V))).
//
// Two roles in this repository:
//  * a matcher that maximises the number of busy ports per slot (max-size
//    matching — optimal instantaneous fabric utilisation, though not
//    starvation-free), and
//  * the perfect-matching engine inside the Birkhoff–von-Neumann
//    decomposition and the Solstice-style circuit scheduler.
//
// Adjacency is a bitset: one row of uint64_t words per left vertex, right r
// at bit r % 64 of word r / 64.  Rows are visited lowest bit first, so the
// augmenting-path search tries rights in ascending order, and the matching
// depends only on the edge set, never on the order edges were added in.
//
// The search is layered on word masks too.  Each phase's BFS keeps, per
// layer d, the mask of rights matched into layer d (the lefts of layer d are
// exactly those rights' partners, so no per-left distance is stored), and a
// DFS from a left of layer d scans only its row ANDed with the free rights
// and the rights matched into layer d + 1 — the rights an unrestricted scan
// would follow.  Augmenting moves each right of the path one layer up, and a
// left whose DFS fails leaves its layer; both update the masks in place.
#ifndef XDRS_SCHEDULERS_HOPCROFT_KARP_HPP
#define XDRS_SCHEDULERS_HOPCROFT_KARP_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "schedulers/matcher.hpp"

namespace xdrs::schedulers {

/// Standalone solver usable on an arbitrary bipartite adjacency structure.
class HopcroftKarp {
 public:
  HopcroftKarp(std::uint32_t left_count, std::uint32_t right_count);

  /// Sets edge (left, right); adding an edge twice is a no-op.
  void add_edge(std::uint32_t left, std::uint32_t right);
  void clear_edges();

  /// Re-dimensions the solver and clears all edges, reusing existing
  /// allocations when the dimensions already match — lets one solver
  /// instance serve every epoch of a circuit scheduler without churn.
  void reset(std::uint32_t left_count, std::uint32_t right_count);

  /// Adjacency row of `left` (words_per_row() words), for callers that fill
  /// or edit edges a word at a time.  Rows are contiguous and left-major, so
  /// row(0) spans the whole adjacency.  Unchecked: left < left_count, and
  /// bits at or past right_count must stay zero.
  [[nodiscard]] std::uint64_t* row(std::uint32_t left) noexcept {
    return adj_.data() + static_cast<std::size_t>(left) * wpr_;
  }
  [[nodiscard]] std::uint32_t words_per_row() const noexcept { return wpr_; }

  /// Computes a maximum matching; returns its cardinality.  Edges are kept,
  /// so a caller may edit a few rows and solve again.
  std::uint32_t solve();

  /// Partner of a left vertex after solve(), or kFree.
  [[nodiscard]] std::uint32_t match_of_left(std::uint32_t left) const;
  /// Every left's partner after solve() (kFree when unmatched), indexed by
  /// left: after a perfect solve, the permutation itself.
  [[nodiscard]] std::span<const std::uint32_t> left_matches() const noexcept {
    return match_left_;
  }

  static constexpr std::uint32_t kFree = 0xffffffffu;

  /// Augmenting phases of the last solve(): the greedy first phase counts
  /// when it matched anything, then one per BFS that found a free right.
  [[nodiscard]] std::uint32_t phases() const noexcept { return phases_; }

 private:
  // The search, on rows of kWords words (0: wpr_ words, read at run time),
  // so the one-word rows of up to 64 rights compile to scalar code.
  template <std::uint32_t kWords>
  [[nodiscard]] std::uint32_t words() const noexcept {
    return kWords != 0 ? kWords : wpr_;
  }
  template <std::uint32_t kWords>
  [[nodiscard]] std::uint32_t search();
  template <std::uint32_t kWords>
  [[nodiscard]] std::uint32_t greedy();
  template <std::uint32_t kWords>
  [[nodiscard]] bool build_layers();
  template <std::uint32_t kWords>
  [[nodiscard]] bool augment(std::uint32_t left, std::uint32_t depth);

  /// Rights matched into layer `depth` (wpr_ words).
  [[nodiscard]] std::uint64_t* layer_rights(std::uint32_t depth) noexcept {
    return layers_.data() + static_cast<std::size_t>(depth) * wpr_;
  }

  std::uint32_t left_count_;
  std::uint32_t right_count_;
  std::uint32_t wpr_;                       ///< words per adjacency row
  std::vector<std::uint64_t> adj_;          ///< left_count x wpr_, left-major
  std::vector<std::uint64_t> free_rights_;  ///< unmatched rights, wpr_ words
  std::vector<std::uint64_t> free_lefts_;   ///< unmatched lefts, one bit each
  std::vector<std::uint64_t> layers_;       ///< (left_count + 2) x wpr_: layer_rights
  std::vector<std::uint64_t> reached_, frontier_;  ///< BFS scratch, wpr_ words each
  std::vector<std::uint32_t> match_left_;
  std::vector<std::uint32_t> match_right_;
  std::uint32_t phases_{0};
};

/// MatchingAlgorithm adapter: max-size matching over positive demand.
///
/// The result depends only on the SUPPORT of the demand matrix (which pairs
/// are positive), not the values — so the solver's rows are the demand's
/// row-support words, and the epoch-warm cache keys on that bitmap alone: a
/// backlog that changed in magnitude but not in pattern still replays the
/// previous matching exactly.
class MaxSizeMatcher final : public MatchingAlgorithm {
 public:
  MaxSizeMatcher() = default;

  void compute_into(const demand::DemandMatrix& demand, Matching& out) override;
  [[nodiscard]] std::string name() const override { return "maxsize-hk"; }
  [[nodiscard]] std::uint32_t last_iterations() const noexcept override { return last_iterations_; }
  [[nodiscard]] bool hardware_parallel() const noexcept override { return false; }

 private:
  std::uint32_t last_iterations_{0};
  HopcroftKarp hk_{0, 0};  ///< recycled solver
  // Epoch-warm replay cache, keyed on (dims, support bitmap).
  std::vector<std::uint64_t> prev_support_;
  std::uint32_t prev_inputs_{0}, prev_outputs_{0};
  Matching prev_result_;
  std::uint32_t prev_iterations_{0};
  bool warm_valid_{false};
};

}  // namespace xdrs::schedulers

#endif  // XDRS_SCHEDULERS_HOPCROFT_KARP_HPP
