// Switching logic (Figure 2, right block): receives the grant matrix from
// the scheduling logic and configures the OCS circuits to match it, then
// reports readiness so grants can be released — the paper's explicit
// ordering: "Before providing a grant to the processing logic, the
// scheduler sends the grant matrix to the switching logic to configure the
// circuits in the OCS to match the grant matrix."
#ifndef XDRS_CORE_SWITCHING_LOGIC_HPP
#define XDRS_CORE_SWITCHING_LOGIC_HPP

#include <cstdint>
#include <functional>

#include "obs/metrics.hpp"
#include "schedulers/matching.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "switching/ocs.hpp"

namespace xdrs::core {

struct SwitchingStats {
  std::uint64_t configurations_requested{0};
  std::uint64_t configurations_completed{0};
};

class SwitchingLogic {
 public:
  using ReadyCallback = std::function<void(sim::Time circuits_up_at)>;

  SwitchingLogic(sim::Simulator& sim, switching::OpticalCircuitSwitch& ocs,
                 sim::TraceRecorder& trace);

  /// Retunes the OCS to `m`; the callback fires once circuits are up.  A
  /// newer configure supersedes an in-flight one; the superseded callback
  /// is dropped (its grants must never be released onto the wrong circuits).
  void configure(const schedulers::Matching& m, ReadyCallback on_ready);

  [[nodiscard]] const SwitchingStats& stats() const noexcept { return stats_; }

  /// Wires stage profiling: resolves the "ocs_reconfigure" timer out of
  /// `reg` once (nullptr detaches).  Measures the host-side cost of driving
  /// a retune, not the optical dark period — that lives in virtual time.
  void set_stage_timers(obs::Registry* reg);

 private:
  sim::Simulator& sim_;
  switching::OpticalCircuitSwitch& ocs_;
  sim::TraceRecorder& trace_;
  obs::Registry* obs_{nullptr};
  obs::Timer* t_reconfigure_{nullptr};
  ReadyCallback pending_;
  SwitchingStats stats_;
};

}  // namespace xdrs::core

#endif  // XDRS_CORE_SWITCHING_LOGIC_HPP
