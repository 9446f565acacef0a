// Solstice-style hybrid circuit scheduling (Liu et al., after the REACToR
// line of work the paper cites): greedy threshold-halving decomposition that
// explicitly charges each additional circuit configuration a reconfiguration
// penalty, and hands short/residual demand to the packet switch.
//
// quickStuff + quickSlice, adapted:
//   1. pad the demand so all line sums are equal (as in BvN);
//   2. with threshold t starting at the largest power of two <= max entry,
//      repeatedly extract a perfect matching among entries >= t and schedule
//      it for t bytes; halve t when no such matching exists;
//   3. stop when the value of another slot cannot amortise the dark-time
//      cost (t < delta_bytes x amortisation factor) or a slot budget is hit;
//      whatever remains of the *real* demand becomes the EPS residual.
#ifndef XDRS_SCHEDULERS_SOLSTICE_HPP
#define XDRS_SCHEDULERS_SOLSTICE_HPP

#include <cstdint>
#include <vector>

#include "schedulers/circuit_scheduler.hpp"
#include "schedulers/hopcroft_karp.hpp"

namespace xdrs::schedulers {

struct SolsticeConfig {
  /// Bytes a port could have carried during one reconfiguration (dark time
  /// x link rate).  A slot must move at least `min_amortisation` times this
  /// to be worth scheduling.
  std::int64_t reconfig_cost_bytes{0};
  double min_amortisation{1.0};
  /// Hard cap on configurations per epoch (0 = unlimited).
  std::size_t max_slots{0};
};

class SolsticeScheduler final : public CircuitScheduler {
 public:
  explicit SolsticeScheduler(SolsticeConfig cfg);

  void plan_into(const demand::DemandMatrix& dem, CircuitPlan& out) override;
  [[nodiscard]] std::string name() const override { return "solstice"; }

  [[nodiscard]] const SolsticeConfig& config() const noexcept { return cfg_; }

 private:
  /// Sets the solver's rows to the edges {stuffed >= 2^level} and files
  /// every other positive pair in the bucket of its floor(log2 v).
  void bucket_pairs(std::uint32_t n, int level);
  /// Row `i` of bucket `level`, laid out like the solver's rows.
  [[nodiscard]] std::uint64_t* bucket_row(int level, std::uint32_t i, std::uint32_t n) noexcept {
    return buckets_.data() + (static_cast<std::size_t>(level) * n + i) * hk_.words_per_row();
  }
  /// False when some row is empty or the rows miss a right: no perfect
  /// matching exists, so the solve can be skipped.
  [[nodiscard]] bool rows_cover_all_rights(std::uint32_t n);

  SolsticeConfig cfg_;
  // Recycled epoch workspaces: the stuffed demand (row-major n x n), its
  // line slack, a right mask, the perfect-matching solver, whose rows hold
  // the threshold edge set between solves, and the pairs below the
  // threshold, bucketed by power of two.
  std::vector<std::int64_t> stuffed_;
  std::vector<std::uint64_t> buckets_;
  std::vector<std::int64_t> row_slack_, col_slack_;
  std::vector<std::uint64_t> covered_;
  HopcroftKarp hk_{0, 0};
};

}  // namespace xdrs::schedulers

#endif  // XDRS_SCHEDULERS_SOLSTICE_HPP
