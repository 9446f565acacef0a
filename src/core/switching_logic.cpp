#include "core/switching_logic.hpp"

#include <utility>

namespace xdrs::core {

SwitchingLogic::SwitchingLogic(sim::Simulator& sim, switching::OpticalCircuitSwitch& ocs,
                               sim::TraceRecorder& trace)
    : sim_{sim}, ocs_{ocs}, trace_{trace} {
  ocs_.set_configured_callback([this](const schedulers::Matching& /*m*/) {
    ++stats_.configurations_completed;
    trace_.record(sim_.now(), sim::TraceCategory::kReconfigDone);
    if (pending_) {
      // Move out before invoking: the callback may call configure() again.
      ReadyCallback cb = std::move(pending_);
      pending_ = nullptr;
      cb(sim_.now());
    }
  });
}

void SwitchingLogic::set_stage_timers(obs::Registry* reg) {
  obs_ = reg;
  t_reconfigure_ = reg != nullptr ? &reg->timer("ocs_reconfigure") : nullptr;
}

void SwitchingLogic::configure(const schedulers::Matching& m, ReadyCallback on_ready) {
  ++stats_.configurations_requested;
  trace_.record(sim_.now(), sim::TraceCategory::kReconfigStart);
  pending_ = std::move(on_ready);  // supersedes any in-flight callback
  obs::ScopedSpan span{obs_, t_reconfigure_};
  ocs_.reconfigure(m);
}

}  // namespace xdrs::core
