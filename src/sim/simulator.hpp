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
//
// Costs, from the calendar queue underneath (event_queue.hpp): firing the
// next event is O(1) with no log-depth pop; scheduling is O(1) at the tail
// of a time bucket, plus a short walk when it lands before events already
// there; an event more than a wheel span ahead pays O(log n) in the far set,
// once on the way in and once when the wheel reaches it.  Cancelling is O(1)
// plus a walk of its bucket.  A run that stops at a horizon leaves the queue
// ready for pushes at that horizon, so `run_until` in steps costs nothing
// extra.
//
// Beside the calendar sit delay lines (delay_line.hpp): FIFOs of events
// that share one fixed delay and one handler, such as the ToR ingress hop.
// An entry costs a FIFO push and pop and no calendar slot.  Each step fires
// whichever comes first in (time, seq) order, the calendar's head or the
// earliest line head; the calendar keeps a lower bound on its head's time,
// so a line head that comes first usually fires without a look into the
// calendar's buckets.  Entries take their seqs from the calendar's counter,
// so the firing order is exactly the one scheduling them as events gives.
#ifndef XDRS_SIM_SIMULATOR_HPP
#define XDRS_SIM_SIMULATOR_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace xdrs::sim {

class DelayLineBase;

/// Engine statistics: events executed, scheduled and cancelled.
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
  ~Simulator();

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

  /// Events at one time fire in the order they were scheduled: the k-th
  /// schedule call or delay-line push gets order k.  A component that keeps
  /// a would-be event out of the queue records next_order() instead, and
  /// compares it with running_order() to learn whether that event would
  /// already have fired.
  [[nodiscard]] std::uint64_t next_order() const noexcept { return queue_.total_pushed() + 1; }

  /// Order of the event whose callback is running; outside run() and
  /// run_until(), every event at or before now() has fired, so the maximum.
  [[nodiscard]] std::uint64_t running_order() const noexcept {
    return running_ ? fired_seq_ : ~std::uint64_t{0};
  }

  [[nodiscard]] const SimulatorStats& stats() const noexcept { return stats_; }
  /// Calendar events and delay-line entries not yet fired.
  [[nodiscard]] std::size_t pending_events() const noexcept;

 private:
  friend class DelayLineBase;

  /// Fires the earliest pending event, from the calendar or a delay line,
  /// if it is stamped at or before `horizon` and no stop was requested;
  /// returns false otherwise.
  bool step(Time horizon);

  // Delay-line bookkeeping (sim/delay_line.hpp).
  void attach(DelayLineBase& line);
  void detach(DelayLineBase& line) noexcept;
  /// The seq of an entry pushed now, counted as a scheduled event.
  std::uint64_t take_line_seq() {
    ++stats_.events_scheduled;
    return queue_.take_seq();
  }
  /// `line`, empty until now, has a head: it may fire first.
  void line_armed(DelayLineBase& line) noexcept;
  /// Finds the non-empty line whose head fires first, if any.
  void find_first_line() noexcept;

  EventQueue queue_;
  Time now_{Time::zero()};
  std::uint64_t fired_seq_{0};  ///< seq of the event fired last
  bool stopping_{false};
  bool running_{false};  ///< inside run() or run_until()
  SimulatorStats stats_;
  std::vector<DelayLineBase*> lines_;
  DelayLineBase* first_line_{nullptr};  ///< non-empty line with the earliest head
};

}  // namespace xdrs::sim

#endif  // XDRS_SIM_SIMULATOR_HPP
