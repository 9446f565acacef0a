// Scheduling logic (Figure 2, centre block): "processes the incoming
// requests, estimates the demand matrix, and runs the scheduling algorithm,
// generating corresponding transmission grants."
//
// Two disciplines:
//  * kSlotted     — every slot, run a MatchingAlgorithm on the demand
//                   estimate and grant one slot's worth of service to each
//                   matched pair (classic input-queued crossbar operation);
//  * kHybridEpoch — every epoch, run a CircuitScheduler, execute its slot
//                   sequence on the OCS (configure -> hold -> next) and
//                   grant the residual matrix to the EPS.
//
// Every decision is delayed by the pluggable SchedulerTimingModel — a
// software model *lives* its milliseconds here, which is how the paper's
// fast-vs-slow comparison is realised end to end.
#ifndef XDRS_CORE_SCHEDULING_LOGIC_HPP
#define XDRS_CORE_SCHEDULING_LOGIC_HPP

#include <cstdint>
#include <functional>
#include <memory>

#include "control/messages.hpp"
#include "control/timing.hpp"
#include "core/config.hpp"
#include "core/switching_logic.hpp"
#include "demand/estimator.hpp"
#include "obs/metrics.hpp"
#include "schedulers/circuit_scheduler.hpp"
#include "schedulers/matcher.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "stats/summary.hpp"

namespace xdrs::core {

struct SchedulingStats {
  std::uint64_t decisions{0};
  std::uint64_t requests_received{0};
  sim::Time decision_latency_total{};
  stats::Summary plan_slots;        ///< circuit slots per hybrid decision
  stats::Summary residual_fraction; ///< EPS share of demand per decision
};

class SchedulingLogic {
 public:
  using GrantCallback = std::function<void(const control::GrantSet&)>;

  SchedulingLogic(sim::Simulator& sim, const FrameworkConfig& cfg, SwitchingLogic& switching,
                  sim::TraceRecorder& trace);

  // Pluggable policy objects.  Which are required depends on the
  // discipline: kSlotted needs a matcher, kHybridEpoch a circuit scheduler;
  // both need an estimator and a timing model.
  void set_matcher(std::unique_ptr<schedulers::MatchingAlgorithm> m) { matcher_ = std::move(m); }
  void set_circuit_scheduler(std::unique_ptr<schedulers::CircuitScheduler> s) {
    circuit_scheduler_ = std::move(s);
  }
  void set_estimator(std::unique_ptr<demand::DemandEstimator> e) { estimator_ = std::move(e); }
  void set_timing_model(std::unique_ptr<control::SchedulerTimingModel> t) {
    timing_ = std::move(t);
  }

  void set_grant_callback(GrantCallback cb) { grant_cb_ = std::move(cb); }

  /// Begins periodic operation (first decision immediately).
  void start();

  // Demand-information feed from the processing logic.
  void on_request(const control::SchedulingRequest& req);
  void on_arrival(net::PortId src, net::PortId dst, std::int64_t bytes, sim::Time at);
  void on_departure(net::PortId src, net::PortId dst, std::int64_t bytes, sim::Time at);
  void on_deadline(net::PortId src, net::PortId dst, sim::Time deadline, sim::Time at);

  [[nodiscard]] const SchedulingStats& stats() const noexcept { return stats_; }

  /// Wires stage profiling: resolves the "estimator_snapshot",
  /// "matcher_compute" and "circuit_plan" timers out of `reg` once, so the
  /// decision loop holds raw pointers and the telemetry-off path stays a
  /// single branch per stage.  nullptr detaches (the default).
  void set_stage_timers(obs::Registry* reg);

  /// The demand estimate of the most recent decision (telemetry sampling
  /// reads its sparsity; read-only).
  [[nodiscard]] const demand::DemandMatrix& demand() const noexcept { return demand_; }

  /// Latency of the most recent decision (component breakdown).
  [[nodiscard]] const control::TimingBreakdown& last_breakdown() const noexcept {
    return last_breakdown_;
  }

  /// "matcher/circuit/estimator/timing" self-reported names of the
  /// installed policy objects ('-' for absent ones) — stamped into
  /// RunReport so artifacts name the stack that actually scheduled them.
  [[nodiscard]] std::string installed_policy_names() const;

 private:
  void tick();
  void decide_slotted();
  void decide_hybrid();
  /// Executes hybrid plan slot `k`: configure, wait, grant, advance.  A
  /// slot reached before released_at_ waits for it, so a plan never
  /// retunes under the previous plan's open window.
  /// `deadline` is the end of this epoch's planning horizon: no window may
  /// extend past it, so stale grants can never collide with the next
  /// epoch's reconfiguration (hosts with clock skew still can — that is
  /// the synchronisation experiment).
  void run_plan_slot(std::shared_ptr<schedulers::CircuitPlan> plan, std::size_t k,
                     std::uint64_t epoch, sim::Time deadline);
  void account_decision(const control::TimingBreakdown& b);

  sim::Simulator& sim_;
  const FrameworkConfig& cfg_;
  SwitchingLogic& switching_;
  sim::TraceRecorder& trace_;

  std::unique_ptr<schedulers::MatchingAlgorithm> matcher_;
  std::unique_ptr<schedulers::CircuitScheduler> circuit_scheduler_;
  std::unique_ptr<demand::DemandEstimator> estimator_;
  std::unique_ptr<control::SchedulerTimingModel> timing_;
  GrantCallback grant_cb_;

  // Stage-profiling hooks; null until set_stage_timers() attaches a registry.
  obs::Registry* obs_{nullptr};
  obs::Timer* t_estimator_{nullptr};
  obs::Timer* t_matcher_{nullptr};
  obs::Timer* t_circuit_{nullptr};

  demand::DemandMatrix demand_;
  control::TimingBreakdown last_breakdown_;
  std::uint64_t epoch_counter_{0};
  /// When the running hybrid configuration's last window has cleared the
  /// fabric; no plan slot retunes the OCS before it.
  sim::Time released_at_{};
  SchedulingStats stats_;

  // Recycled decision buffers.  Each decision borrows an entry whose only
  // reference is the pool's (in-flight grant/configure events hold extra
  // references), so steady-state decisions reuse matchings, plans and their
  // residual matrices instead of allocating per slot/epoch.  The pool grows
  // only while decisions outlive a period (slow software schedulers), then
  // stabilises.
  template <typename T>
  [[nodiscard]] std::shared_ptr<T> acquire(std::vector<std::shared_ptr<T>>& pool) {
    for (const auto& entry : pool) {
      if (entry.use_count() == 1) return entry;
    }
    pool.push_back(std::make_shared<T>());
    return pool.back();
  }

  std::vector<std::shared_ptr<schedulers::Matching>> matching_pool_;
  std::vector<std::shared_ptr<schedulers::CircuitPlan>> plan_pool_;
};

}  // namespace xdrs::core

#endif  // XDRS_CORE_SCHEDULING_LOGIC_HPP
