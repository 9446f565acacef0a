#include "schedulers/solstice.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/bitset.hpp"

namespace xdrs::schedulers {
namespace {

/// Largest power of two <= v (v > 0).
/// floor(log2 v) for v > 0.
int floor_log2(std::int64_t v) {
  return 63 - std::countl_zero(static_cast<std::uint64_t>(v));
}

}  // namespace

SolsticeScheduler::SolsticeScheduler(SolsticeConfig cfg) : cfg_{cfg} {
  if (cfg.reconfig_cost_bytes < 0) {
    throw std::invalid_argument{"SolsticeScheduler: negative reconfiguration cost"};
  }
  if (cfg.min_amortisation < 0.0) {
    throw std::invalid_argument{"SolsticeScheduler: negative amortisation factor"};
  }
}

void SolsticeScheduler::bucket_pairs(std::uint32_t n, int level) {
  buckets_.assign(static_cast<std::size_t>(level) * n * hk_.words_per_row(), 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::int64_t* v = stuffed_.data() + static_cast<std::size_t>(i) * n;
    for (std::uint32_t j = 0; j < n; ++j) {
      if (v[j] <= 0) continue;
      const int k = floor_log2(v[j]);
      std::uint64_t* row = k >= level ? hk_.row(i) : bucket_row(k, i, n);
      row[j / 64u] |= std::uint64_t{1} << (j % 64u);
    }
  }
}

bool SolsticeScheduler::rows_cover_all_rights(std::uint32_t n) {
  const std::uint32_t wpr = hk_.words_per_row();
  if (wpr == 1) {
    // One word per row: OR the rows and note an empty one, without a branch.
    const std::uint64_t* rows = hk_.row(0);
    std::uint64_t covered = 0;
    bool empty_row = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      covered |= rows[i];
      empty_row |= rows[i] == 0;
    }
    return !empty_row && covered == util::tail_mask(n);
  }
  covered_.assign(wpr, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t* row = hk_.row(i);
    std::uint64_t any = 0;
    for (std::uint32_t w = 0; w < wpr; ++w) {
      covered_[w] |= row[w];
      any |= row[w];
    }
    if (any == 0) return false;
  }
  for (std::uint32_t w = 0; w + 1 < wpr; ++w) {
    if (covered_[w] != ~std::uint64_t{0}) return false;
  }
  return covered_[wpr - 1] == util::tail_mask(n);
}

void SolsticeScheduler::plan_into(const demand::DemandMatrix& dem, CircuitPlan& out) {
  if (dem.inputs() != dem.outputs()) {
    throw std::invalid_argument{"SolsticeScheduler: matrix must be square"};
  }
  const std::uint32_t n = dem.inputs();

  out.residual.copy_from(dem);
  if (dem.total() == 0) {
    out.truncate(0);
    return;
  }

  // Stuff the demand so all line sums equal phi (northwest-corner rule),
  // working in the recycled flat copy so the epoch allocates nothing.
  stuffed_.assign(dem.row_data(0), dem.row_data(0) + static_cast<std::size_t>(n) * n);
  {
    const std::int64_t phi = dem.line_sums(row_slack_, col_slack_);
    for (std::int64_t& s : row_slack_) s = phi - s;
    for (std::int64_t& s : col_slack_) s = phi - s;
    std::uint32_t i = 0, j = 0;
    while (i < n && j < n) {
      const std::int64_t s = std::min(row_slack_[i], col_slack_[j]);
      if (s > 0) stuffed_[static_cast<std::size_t>(i) * n + j] += s;
      row_slack_[i] -= s;
      col_slack_[j] -= s;
      if (row_slack_[i] == 0) ++i;
      if (j < n && col_slack_[j] == 0) ++j;
    }
  }

  // A slot of t bytes per pair must beat the dark-time opportunity cost.
  const auto min_slot_bytes = static_cast<std::int64_t>(
      cfg_.min_amortisation * static_cast<double>(cfg_.reconfig_cost_bytes));

  // t is 2^level.  The solver's rows hold the edges {stuffed >= t}, and
  // every other positive pair waits in the bucket of its floor(log2 v).
  // Halving t admits one bucket; a slice lowers only its matched pairs, so
  // only those can leave the edges, each for the bucket of its new value.
  int level = floor_log2(std::max<std::int64_t>(
      1, *std::max_element(stuffed_.begin(), stuffed_.end())));
  std::int64_t t = std::int64_t{1} << level;
  hk_.reset(n, n);
  bucket_pairs(n, level);
  const std::size_t adjacency_words = static_cast<std::size_t>(n) * hk_.words_per_row();
  std::size_t used = 0;
  while (t > 0 && t >= std::max<std::int64_t>(1, min_slot_bytes)) {
    if (cfg_.max_slots > 0 && used >= cfg_.max_slots) break;

    if (!rows_cover_all_rights(n) || hk_.solve() < n) {
      t /= 2;  // threshold too demanding: no perfect matching at this level
      if (t > 0) {
        const std::uint64_t* admitted = bucket_row(--level, 0, n);
        std::uint64_t* adjacency = hk_.row(0);
        for (std::size_t w = 0; w < adjacency_words; ++w) adjacency[w] |= admitted[w];
      }
      continue;
    }

    CircuitSlot& slot = out.reuse_slot(used++, n);
    slot.weight_bytes = t;
    const std::span<const std::uint32_t> perm = hk_.left_matches();
    slot.configuration.assign_permutation(perm);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t j = perm[i];
      std::int64_t& v = stuffed_[static_cast<std::size_t>(i) * n + j];
      v -= t;  // an edge, so v >= t
      if (v < t) {
        const std::uint64_t bit = std::uint64_t{1} << (j % 64u);
        hk_.row(i)[j / 64u] &= ~bit;
        if (v > 0) bucket_row(floor_log2(v), i, n)[j / 64u] |= bit;
      }
      out.residual.add_unchecked(i, j, -std::min(out.residual.at_unchecked(i, j), t));
    }
    if (out.residual.total() == 0) break;  // all real demand covered
  }
  out.truncate(used);
}

}  // namespace xdrs::schedulers
