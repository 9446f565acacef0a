// The discrete-event simulation engine.
//
// Substitutes for the paper's NetFPGA-SUME testbed: every component of the
// framework (hosts, VOQs, scheduler pipelines, optical switch
// reconfiguration) advances by scheduling callbacks on one of these engines.
// Single-threaded by design — determinism is worth more to a scheduling
// study than parallel speed, and each experiment instead parallelises across
// parameter points (exp::ExperimentRunner, see exp/runner.hpp).
//
// Callbacks are move-only sim::Callback values (see event_queue.hpp).  A
// capture of up to 120 bytes — `this`, a net::Packet and a port fit — is
// stored inline, so scheduling it allocates nothing once the engine has
// reached its peak pending depth; larger captures allocate.  Each event's
// callback runs inside the queue slot it was constructed in; while it runs,
// `pending_events()` no longer counts it and cancelling its own EventId
// returns false.  Cancellation is generation-checked: an EventId whose event
// already fired or was cancelled never matches a later event that reuses its
// storage.
#ifndef XDRS_SIM_SIMULATOR_HPP
#define XDRS_SIM_SIMULATOR_HPP

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace xdrs::sim {

/// Engine statistics, exposed for the scalability experiments (E10).
struct SimulatorStats {
  std::uint64_t events_executed{0};
  std::uint64_t events_scheduled{0};
  std::uint64_t events_cancelled{0};
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.  Monotonically non-decreasing.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules callable `cb` to run `delay` from now.  Negative delays are
  /// clamped to zero (an event can never fire in the past).
  template <class F>
  EventId schedule(Time delay, F&& cb) {
    if (delay.is_negative()) delay = Time::zero();
    ++stats_.events_scheduled;
    return queue_.push(now_ + delay, std::forward<F>(cb));
  }

  /// Schedules callable `cb` at an absolute timestamp, clamped to `now()`.
  template <class F>
  EventId schedule_at(Time at, F&& cb) {
    if (at < now_) at = now_;
    ++stats_.events_scheduled;
    return queue_.push(at, std::forward<F>(cb));
  }

  /// Cancels a pending event.  Returns true if it had not yet fired.
  bool cancel(EventId id);

  /// Runs until the event queue drains or `horizon` is reached, whichever is
  /// first.  Events stamped exactly at the horizon still execute.
  void run_until(Time horizon);

  /// Runs until the event queue drains.
  void run();

  /// Requests that the run loop stop after the current event returns.
  void stop() noexcept { stopping_ = true; }

  [[nodiscard]] const SimulatorStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }

 private:
  /// Fires the earliest pending event in place if it is stamped at or
  /// before `horizon` and no stop was requested; returns false otherwise.
  bool step(Time horizon);

  EventQueue queue_;
  Time now_{Time::zero()};
  bool stopping_{false};
  SimulatorStats stats_;
};

}  // namespace xdrs::sim

#endif  // XDRS_SIM_SIMULATOR_HPP
