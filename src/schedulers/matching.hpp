// A matching between input and output ports — the "grant matrix" of the
// paper in its canonical sparse form.  Crossbar and circuit constraints are
// identical: an input drives at most one output, an output listens to at
// most one input, so a configuration is a partial permutation.
#ifndef XDRS_SCHEDULERS_MATCHING_HPP
#define XDRS_SCHEDULERS_MATCHING_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace xdrs::schedulers {

class Matching {
 public:
  Matching() = default;
  Matching(std::uint32_t inputs, std::uint32_t outputs);
  explicit Matching(std::uint32_t ports) : Matching(ports, ports) {}

  [[nodiscard]] std::uint32_t inputs() const noexcept { return static_cast<std::uint32_t>(out_of_.size()); }
  [[nodiscard]] std::uint32_t outputs() const noexcept { return static_cast<std::uint32_t>(in_of_.size()); }

  /// Pairs input `i` with output `j`.  Throws if either side is already
  /// matched to a different partner (a grant matrix must stay conflict-free).
  void match(net::PortId i, net::PortId j);

  /// Replaces the matching with the full permutation input i ->
  /// `permutation[i]`, re-dimensioning to n x n (n = permutation.size())
  /// without allocating when the shape already matches.  Unchecked: the
  /// entries must be distinct outputs below n — as the left→right array of
  /// a perfect Hopcroft–Karp solve is.
  void assign_permutation(std::span<const std::uint32_t> permutation);

  /// Dissolves the pair containing input `i`, if any.
  void unmatch_input(net::PortId i);

  [[nodiscard]] std::optional<net::PortId> output_of(net::PortId input) const;
  [[nodiscard]] std::optional<net::PortId> input_of(net::PortId output) const;
  [[nodiscard]] bool input_matched(net::PortId input) const;
  [[nodiscard]] bool output_matched(net::PortId output) const;

  /// Number of matched pairs.
  [[nodiscard]] std::uint32_t size() const noexcept { return matched_; }
  [[nodiscard]] bool empty() const noexcept { return matched_ == 0; }

  /// True when every input (and hence every output, for square dimensions)
  /// is matched: a full permutation.
  [[nodiscard]] bool is_perfect() const noexcept;

  void clear() noexcept;

  /// Clears and re-dimensions in one step, reusing the existing allocation
  /// when the shape already matches — the per-decision path of compute_into
  /// implementations, which must not touch the heap in steady state.
  void reset(std::uint32_t inputs, std::uint32_t outputs);
  void reset(std::uint32_t ports) { reset(ports, ports); }

  /// Calls `fn(input, output)` for every matched pair, in input order.
  template <typename Fn>
  void for_each_pair(Fn&& fn) const {
    for (std::uint32_t i = 0; i < out_of_.size(); ++i) {
      if (out_of_[i] != kUnmatched) fn(net::PortId{i}, net::PortId{out_of_[i]});
    }
  }

  [[nodiscard]] bool operator==(const Matching& other) const noexcept = default;

  /// e.g. "{0>2, 1>0, 3>3}".
  [[nodiscard]] std::string to_string() const;

  /// The identity-rotated permutation: input i -> (i + shift) mod N.
  /// Building block of rotor-style fixed schedules.
  [[nodiscard]] static Matching rotation(std::uint32_t ports, std::uint32_t shift);

 private:
  static constexpr std::uint32_t kUnmatched = 0xffffffffu;
  std::vector<std::uint32_t> out_of_;  // indexed by input
  std::vector<std::uint32_t> in_of_;   // indexed by output
  std::uint32_t matched_{0};
};

}  // namespace xdrs::schedulers

#endif  // XDRS_SCHEDULERS_MATCHING_HPP
