#include "core/scheduling_logic.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace xdrs::core {

using sim::Time;
using sim::TraceCategory;

SchedulingLogic::SchedulingLogic(sim::Simulator& sim, const FrameworkConfig& cfg,
                                 SwitchingLogic& switching, sim::TraceRecorder& trace)
    : sim_{sim}, cfg_{cfg}, switching_{switching}, trace_{trace}, demand_{cfg.ports} {}

void SchedulingLogic::start() {
  if (!estimator_) throw std::logic_error{"SchedulingLogic: no demand estimator"};
  if (!timing_) throw std::logic_error{"SchedulingLogic: no timing model"};
  if (cfg_.discipline == SchedulingDiscipline::kSlotted && !matcher_) {
    throw std::logic_error{"SchedulingLogic: slotted discipline needs a matcher"};
  }
  if (cfg_.discipline == SchedulingDiscipline::kHybridEpoch && !circuit_scheduler_) {
    throw std::logic_error{"SchedulingLogic: hybrid discipline needs a circuit scheduler"};
  }
  tick();
}

void SchedulingLogic::on_request(const control::SchedulingRequest& /*req*/) {
  ++stats_.requests_received;
}

void SchedulingLogic::on_arrival(net::PortId src, net::PortId dst, std::int64_t bytes,
                                 sim::Time at) {
  estimator_->on_arrival(src, dst, bytes, at);
}

void SchedulingLogic::on_departure(net::PortId src, net::PortId dst, std::int64_t bytes,
                                   sim::Time at) {
  estimator_->on_departure(src, dst, bytes, at);
}

void SchedulingLogic::on_deadline(net::PortId src, net::PortId dst, sim::Time deadline,
                                  sim::Time at) {
  estimator_->on_deadline(src, dst, deadline, at);
}

void SchedulingLogic::set_stage_timers(obs::Registry* reg) {
  obs_ = reg;
  t_estimator_ = reg != nullptr ? &reg->timer("estimator_snapshot") : nullptr;
  t_matcher_ = reg != nullptr ? &reg->timer("matcher_compute") : nullptr;
  t_circuit_ = reg != nullptr ? &reg->timer("circuit_plan") : nullptr;
}

std::string SchedulingLogic::installed_policy_names() const {
  std::string s = matcher_ ? matcher_->name() : std::string{"-"};
  s += '/';
  s += circuit_scheduler_ ? circuit_scheduler_->name() : std::string{"-"};
  s += '/';
  s += estimator_ ? estimator_->name() : "-";
  s += '/';
  s += timing_ ? timing_->name() : std::string{"-"};
  return s;
}

void SchedulingLogic::tick() {
  if (cfg_.discipline == SchedulingDiscipline::kSlotted) {
    decide_slotted();
  } else {
    decide_hybrid();
  }
  const Time period =
      cfg_.discipline == SchedulingDiscipline::kSlotted ? cfg_.slot_time : cfg_.epoch;
  sim_.schedule(period, [this] { tick(); });
}

void SchedulingLogic::account_decision(const control::TimingBreakdown& b) {
  ++stats_.decisions;
  stats_.decision_latency_total += b.total();
  last_breakdown_ = b;
}

void SchedulingLogic::decide_slotted() {
  trace_.record(sim_.now(), TraceCategory::kDemandUpdate);
  {
    obs::ScopedSpan span{obs_, t_estimator_};
    estimator_->snapshot(sim_.now(), demand_);
  }
  trace_.record(sim_.now(), TraceCategory::kScheduleStart);
  // Borrow a recycled matching; in-flight grant events from previous slots
  // hold their own references, so this never clobbers a live schedule.
  std::shared_ptr<schedulers::Matching> m = acquire(matching_pool_);
  {
    obs::ScopedSpan span{obs_, t_matcher_};
    matcher_->compute_into(demand_, *m);
  }
  trace_.record(sim_.now(), TraceCategory::kScheduleDone, m->size());

  const control::TimingBreakdown b = timing_->decision_latency(
      cfg_.ports, matcher_->last_iterations(), matcher_->hardware_parallel());
  account_decision(b);
  if (m->empty()) return;

  const std::uint64_t epoch = ++epoch_counter_;
  const std::int64_t slot_capacity = cfg_.link_rate.bytes_in(cfg_.slot_time);
  // Windows close one OCS path latency before the slot boundary (measured
  // from the decision), so the last packet has left the fabric before the
  // next slot's reconfiguration can cut it — except through host clock
  // skew, which is the point of the synchronisation experiments.
  const Time window_end = sim_.now() + cfg_.slot_time - cfg_.ocs_path_latency();
  sim_.schedule(b.total(), [this, m = std::move(m), epoch, slot_capacity, window_end] {
    // A newer decision has started: this one's window, which closes a slot
    // after it started, is already shut, and retuning now would cut the
    // newer window's packets.  So slotted retunes apply in decision order,
    // each at or after its own tick, when the previous window has cleared.
    if (epoch != epoch_counter_) return;
    switching_.configure(
        *m,
        [this, m, epoch, slot_capacity, window_end](Time up) {
          control::GrantSet gs;
          gs.epoch = epoch;
          gs.computed_at = up;
          const Time guard = cfg_.sync.guard_band;
          m->for_each_pair([&](net::PortId i, net::PortId j) {
            control::Grant g;
            g.src = i;
            g.dst = j;
            g.bytes = slot_capacity;
            g.via = control::FabricPath::kOcs;
            g.valid_from = up + guard;
            g.valid_until = window_end - guard;
            if (g.valid_until > g.valid_from) gs.grants.push_back(g);
          });
          if (grant_cb_ && !gs.grants.empty()) grant_cb_(gs);
        });
  });
}

void SchedulingLogic::decide_hybrid() {
  trace_.record(sim_.now(), TraceCategory::kDemandUpdate);
  {
    obs::ScopedSpan span{obs_, t_estimator_};
    estimator_->snapshot(sim_.now(), demand_);
  }
  trace_.record(sim_.now(), TraceCategory::kScheduleStart);
  // Borrow a recycled plan (slot matchings and residual buffer included):
  // plan_into overwrites it in place, so the per-epoch DemandMatrix and
  // slot-vector copies of the old by-value path are gone.  Plans still
  // referenced by in-flight day sequences keep their extra pool reference
  // and are skipped by acquire().
  std::shared_ptr<schedulers::CircuitPlan> plan = acquire(plan_pool_);
  {
    obs::ScopedSpan span{obs_, t_circuit_};
    circuit_scheduler_->plan_into(demand_, *plan);
  }
  trace_.record(sim_.now(), TraceCategory::kScheduleDone, plan->slots.size());

  // Circuit planning is sequential work: roughly one bipartite-matching
  // solve per emitted slot, each touching O(ports) augmenting structure.
  const auto planning_steps =
      static_cast<std::uint32_t>((plan->slots.size() + 1) * cfg_.ports);
  const control::TimingBreakdown b =
      timing_->decision_latency(cfg_.ports, planning_steps, /*hardware_parallel=*/false);
  account_decision(b);

  stats_.plan_slots.record(static_cast<double>(plan->slots.size()));
  if (demand_.total() > 0) {
    stats_.residual_fraction.record(static_cast<double>(plan->residual.total()) /
                                    static_cast<double>(demand_.total()));
  }

  const std::uint64_t epoch = ++epoch_counter_;
  sim_.schedule(b.total(), [this, plan, epoch] {
    // Residual demand rides the EPS for the whole epoch, effective at once.
    control::GrantSet eps_gs;
    eps_gs.epoch = epoch;
    eps_gs.computed_at = sim_.now();
    // Exact size via a support-bitmap popcount, so the grant vector grows
    // once instead of doubling through the visitor below.
    eps_gs.grants.reserve(plan->residual.nonzero_count());
    plan->residual.for_each_nonzero([&](net::PortId i, net::PortId j, std::int64_t bytes) {
      control::Grant g;
      g.src = i;
      g.dst = j;
      g.bytes = bytes;
      g.via = control::FabricPath::kEps;
      g.valid_from = sim_.now();
      g.valid_until = sim_.now() + cfg_.epoch;
      eps_gs.grants.push_back(g);
    });
    if (grant_cb_ && !eps_gs.grants.empty()) grant_cb_(eps_gs);
    run_plan_slot(plan, 0, epoch, sim_.now() + cfg_.epoch);
  });
}

void SchedulingLogic::run_plan_slot(std::shared_ptr<schedulers::CircuitPlan> plan, std::size_t k,
                                    std::uint64_t epoch, sim::Time deadline) {
  // A newer epoch's plan supersedes this one.
  if (epoch != epoch_counter_) return;
  if (k >= plan->slots.size()) return;
  // Never retune under an open window: a plan that finished computing
  // before the previous plan's last window cleared the fabric waits for it.
  if (sim_.now() < released_at_) {
    sim_.schedule_at(released_at_, [this, plan = std::move(plan), k, epoch, deadline] {
      run_plan_slot(plan, k, epoch, deadline);
    });
    return;
  }
  // No room left before the next epoch replans: stop the day sequence.
  if (sim_.now() + cfg_.ocs_reconfig >= deadline) return;
  const schedulers::CircuitSlot& slot = plan->slots[k];

  // Hold the configuration long enough to move `weight_bytes` per pair,
  // including per-packet wire overhead (estimated at MTU framing).
  const std::int64_t overhead =
      (slot.weight_bytes / sim::kMaxFrameBytes + 1) * sim::kWireOverheadBytes;
  const Time hold = std::max(
      cfg_.min_circuit_hold, cfg_.link_rate.transmission_time(slot.weight_bytes + overhead) +
                                 2 * cfg_.sync.guard_band);

  switching_.configure(
      slot.configuration,
      [this, plan, k, epoch, hold, deadline](Time up) {
        if (epoch != epoch_counter_) return;
        // This slot's windows must clear the fabric by the next retune: the
        // next slot's at up + hold, or the next plan's after the deadline.
        released_at_ = std::min(up + hold, deadline);
        const schedulers::CircuitSlot& s = plan->slots[k];
        control::GrantSet gs;
        gs.epoch = epoch;
        gs.computed_at = up;
        const Time guard = cfg_.sync.guard_band;
        s.configuration.for_each_pair([&](net::PortId i, net::PortId j) {
          control::Grant g;
          g.src = i;
          g.dst = j;
          g.bytes = s.weight_bytes;
          g.via = control::FabricPath::kOcs;
          g.valid_from = up + guard;
          g.valid_until = released_at_ - cfg_.ocs_path_latency() - guard;
          if (g.valid_until > g.valid_from) gs.grants.push_back(g);
        });
        if (grant_cb_ && !gs.grants.empty()) grant_cb_(gs);
        sim_.schedule_at(up + hold, [this, plan, k, epoch, deadline] {
          run_plan_slot(plan, k + 1, epoch, deadline);
        });
      });
}

}  // namespace xdrs::core
