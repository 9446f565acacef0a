// Circuit ("day") scheduling for the hybrid fabric.
//
// Where a MatchingAlgorithm answers "which pairs may talk *this slot*?", a
// CircuitScheduler answers the hybrid question of paper §1: which portion of
// the demand is worth paying an OCS reconfiguration for, in which sequence
// of circuit configurations and for how long — and which residual should
// fall through to the electrical packet switch.
#ifndef XDRS_SCHEDULERS_CIRCUIT_SCHEDULER_HPP
#define XDRS_SCHEDULERS_CIRCUIT_SCHEDULER_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "demand/demand_matrix.hpp"
#include "schedulers/matching.hpp"

namespace xdrs::schedulers {

/// One circuit configuration and the traffic volume it is planned to carry.
struct CircuitSlot {
  Matching configuration;
  std::int64_t weight_bytes{0};  ///< per-pair volume this slot should move
};

/// A full plan for one scheduling epoch.
///
/// Plans are recyclable: plan_into implementations claim slots through
/// reuse_slot(), drop the rest with truncate() and refresh `residual` with
/// DemandMatrix::copy_from, so an epoch whose shape matches an earlier one
/// reuses every buffer, whatever its slot count.
struct CircuitPlan {
  std::vector<CircuitSlot> slots;
  demand::DemandMatrix residual;  ///< demand left for the EPS

  /// Returns slot `k` ready for writing: grows the list if needed, resets
  /// the slot's configuration to `inputs` x `outputs` and zeroes its weight
  /// — reusing the allocations of a previous epoch's slot when present.
  CircuitSlot& reuse_slot(std::size_t k, std::uint32_t inputs, std::uint32_t outputs) {
    while (slots.size() <= k) {
      if (spare_.empty()) {
        slots.emplace_back();
      } else {
        slots.push_back(std::move(spare_.back()));
        spare_.pop_back();
      }
    }
    CircuitSlot& s = slots[k];
    s.configuration.reset(inputs, outputs);
    s.weight_bytes = 0;
    return s;
  }
  CircuitSlot& reuse_slot(std::size_t k, std::uint32_t ports) {
    return reuse_slot(k, ports, ports);
  }

  /// Keeps the first `count` slots.  The dropped ones are set aside with
  /// their buffers for reuse_slot, so a plan with fewer slots than the last
  /// one frees nothing and a later, longer one allocates nothing.
  void truncate(std::size_t count) {
    while (slots.size() > count) {
      spare_.push_back(std::move(slots.back()));
      slots.pop_back();
    }
  }

  /// Total bytes the plan routes over circuits (weight x pairs per slot).
  [[nodiscard]] std::int64_t circuit_bytes() const {
    std::int64_t total = 0;
    for (const auto& s : slots) {
      total += s.weight_bytes * static_cast<std::int64_t>(s.configuration.size());
    }
    return total;
  }

 private:
  std::vector<CircuitSlot> spare_;  ///< slots truncate() set aside
};

class CircuitScheduler {
 public:
  virtual ~CircuitScheduler() = default;

  /// Plans circuit service for `dem`, writing the result into `out`
  /// (recycling its slot matchings and residual buffer).  The plan's slot
  /// weights, summed per pair, never exceed the pair's demand plus padding
  /// slack; `residual` holds exactly the demand the slots do not cover.
  ///
  /// Hot-path entry point: implementations keep per-instance workspaces so
  /// that steady-state calls with a stable `dem` shape and a recycled `out`
  /// avoid per-epoch heap allocation (solstice/cthrough honour this, and
  /// `bench_matching_compute --alloc-check` gates it; the bvn-backed
  /// planners allocate per decomposition term by nature).
  virtual void plan_into(const demand::DemandMatrix& dem, CircuitPlan& out) = 0;

  /// By-value convenience wrapper over plan_into (tests, examples).
  [[nodiscard]] CircuitPlan plan(const demand::DemandMatrix& dem) {
    CircuitPlan out;
    plan_into(dem, out);
    return out;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace xdrs::schedulers

#endif  // XDRS_SCHEDULERS_CIRCUIT_SCHEDULER_HPP
