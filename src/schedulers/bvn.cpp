#include "schedulers/bvn.hpp"

#include <algorithm>
#include <stdexcept>

#include "schedulers/hopcroft_karp.hpp"

namespace xdrs::schedulers {
namespace {

/// Northwest-corner slack: the non-negative matrix that lifts every row and
/// column sum of `dem` to its largest line sum phi.
demand::DemandMatrix build_slack(const demand::DemandMatrix& dem) {
  const std::uint32_t n = dem.inputs();
  demand::DemandMatrix slack{n, n};
  std::vector<std::int64_t> r, c;
  const std::int64_t phi = dem.line_sums(r, c);
  for (std::int64_t& s : r) s = phi - s;
  for (std::int64_t& s : c) s = phi - s;
  std::uint32_t i = 0, j = 0;
  while (i < n && j < n) {
    const std::int64_t s = std::min(r[i], c[j]);
    if (s > 0) slack.set(i, j, slack.at(i, j) + s);
    r[i] -= s;
    c[j] -= s;
    if (r[i] == 0) ++i;
    if (j < n && c[j] == 0) ++j;
  }
  return slack;
}

}  // namespace

BvnResult bvn_decompose(const demand::DemandMatrix& dem, std::size_t max_terms) {
  if (dem.inputs() != dem.outputs()) {
    throw std::invalid_argument{"bvn_decompose: matrix must be square"};
  }
  const std::uint32_t n = dem.inputs();
  BvnResult result;
  if (dem.total() == 0) return result;

  demand::DemandMatrix real = dem;                  // remaining true demand
  demand::DemandMatrix slack = build_slack(dem);    // remaining padding

  HopcroftKarp hk{n, n};
  while (real.total() > 0 && (max_terms == 0 || result.terms.size() < max_terms)) {
    // Perfect matching on the support of real + slack.  The padded matrix
    // has all line sums equal, so Birkhoff guarantees one exists.
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::int64_t* r = real.row_data(i);
      const std::int64_t* s = slack.row_data(i);
      std::uint64_t* row = hk.row(i);
      std::fill(row, row + hk.words_per_row(), 0);
      for (std::uint32_t j = 0; j < n; ++j) {
        if (r[j] + s[j] > 0) row[j / 64u] |= std::uint64_t{1} << (j % 64u);
      }
    }
    const std::uint32_t size = hk.solve();
    if (size < n) {
      throw std::logic_error{"bvn_decompose: padded matrix lost perfect-matching support"};
    }

    BvnTerm term;
    term.permutation.assign_permutation(hk.left_matches());
    std::int64_t w = std::numeric_limits<std::int64_t>::max();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t j = hk.left_matches()[i];
      w = std::min(w, real.at(i, j) + slack.at(i, j));
    }
    term.weight = w;

    // Serve real demand before slack so terms retire demand fastest.
    term.permutation.for_each_pair([&](net::PortId i, net::PortId j) {
      const std::int64_t from_real = std::min(real.at(i, j), w);
      term.real_bytes += from_real;
      real.subtract_clamped(i, j, from_real);
      slack.subtract_clamped(i, j, w - from_real);
    });
    result.terms.push_back(std::move(term));
  }
  result.uncovered_bytes = real.total();
  return result;
}

void BvnScheduler::plan_into(const demand::DemandMatrix& dem, CircuitPlan& out) {
  // The full decomposition is inherently allocation-heavy (unbounded term
  // list, one permutation per term), so bvn/tms stay off the zero-alloc
  // contract the simpler planners honour; Solstice is the default hybrid
  // scheduler for exactly this reason.
  BvnResult d = bvn_decompose(dem, 0);
  // Keep the heaviest slots by real coverage; everything else goes electric.
  std::sort(d.terms.begin(), d.terms.end(), [](const BvnTerm& a, const BvnTerm& b) {
    return a.real_bytes > b.real_bytes;
  });
  if (max_slots_ > 0 && d.terms.size() > max_slots_) d.terms.resize(max_slots_);

  out.residual.copy_from(dem);
  std::size_t used = 0;
  for (auto& t : d.terms) {
    // Per-pair circuit service is min(weight, pair demand); subtract from
    // the residual so the EPS sees exactly what circuits will not carry.
    t.permutation.for_each_pair([&](net::PortId i, net::PortId j) {
      out.residual.subtract_clamped(i, j, t.weight);
    });
    // No reuse_slot here: the freshly decomposed permutation replaces the
    // slot's configuration wholesale, so resetting it first would be wasted.
    if (out.slots.size() <= used) out.slots.resize(used + 1);
    CircuitSlot& slot = out.slots[used++];
    slot.configuration = std::move(t.permutation);
    slot.weight_bytes = t.weight;
  }
  out.slots.resize(used);
}

}  // namespace xdrs::schedulers
