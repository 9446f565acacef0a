// A delay line: events that all take one fixed delay and one handler, kept
// beside the calendar queue instead of in it.
//
// A hop whose every event fires a fixed delay after it is scheduled (the
// host uplink of ToR placement) fires its events in the order it scheduled
// them, because the simulator's clock never goes back.  Such a hop needs no
// calendar slot per event: a FIFO of {time, seq, value} entries holds them,
// and only its head competes with the calendar queue's head.  Each entry
// takes its seq from the calendar's own counter when it is pushed, the seq
// a `Simulator::schedule` call would have taken at that point, so the
// simulator fires calendar events and delay-line entries in exactly the
// (time, seq) order the calendar alone would have fired them, and
// `next_order()`/`running_order()` see entries as events.  A firing counts
// as an executed event, a push as a scheduled one, and a pending entry as a
// pending event.  Entries cannot be cancelled.
//
// A line registers with its simulator for its lifetime.  Its pending
// entries are dropped with it; a line may outlive its simulator, but must
// not be pushed on after that.
#ifndef XDRS_SIM_DELAY_LINE_HPP
#define XDRS_SIM_DELAY_LINE_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "util/fifo.hpp"

namespace xdrs::sim {

/// What the simulator sees of a delay line: its head's (time, seq) and how
/// to fire it.
class DelayLineBase {
 public:
  DelayLineBase(const DelayLineBase&) = delete;
  DelayLineBase& operator=(const DelayLineBase&) = delete;

  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
  /// Entries pushed and not yet fired.
  [[nodiscard]] std::size_t size() const noexcept { return pending_; }

 protected:
  /// `fire` pops the head entry and runs the handler on it.
  DelayLineBase(Simulator& sim, Time delay, void (*fire)(DelayLineBase&))
      : sim_{&sim}, delay_{delay.is_negative() ? Time::zero() : delay}, fire_{fire} {
    sim.attach(*this);
  }
  ~DelayLineBase() {
    if (sim_ != nullptr) sim_->detach(*this);
  }

  /// Takes the time and seq of an entry pushed now; the caller stores the
  /// entry, then calls pushed().
  [[nodiscard]] std::pair<Time, std::uint64_t> stamp() {
    return {sim_->now() + delay_, sim_->take_line_seq()};
  }
  /// Counts the entry stamped last; it is the head if the line was empty.
  void pushed(Time at, std::uint64_t seq) noexcept {
    if (pending_++ != 0) return;
    head_at_ = at;
    head_seq_ = seq;
    sim_->line_armed(*this);
  }
  /// Drops the head, whose successor (if any) is keyed `at`/`seq`.  The
  /// line that fired stays first if it is the simulator's only line and
  /// has a head left; otherwise the simulator looks again.
  void popped(Time at, std::uint64_t seq) noexcept {
    head_at_ = at;
    head_seq_ = seq;
    if (--pending_ == 0 || sim_->lines_.size() != 1) sim_->find_first_line();
  }

 private:
  friend class Simulator;

  Simulator* sim_;  ///< null once the simulator is gone
  Time delay_;
  void (*fire_)(DelayLineBase&);
  Time head_at_{};
  std::uint64_t head_seq_{0};  ///< valid while pending_ != 0
  std::size_t pending_{0};
};

/// A delay line whose entries carry a `T`.  The handler receives each
/// entry's value as it fires, readable until the line's next push.
template <class T>
class DelayLine final : public DelayLineBase {
 public:
  using Handler = std::function<void(const T&)>;

  DelayLine(Simulator& sim, Time delay, Handler handler)
      : DelayLineBase{sim, delay, &fire_head}, handler_{std::move(handler)} {}

  /// Schedules an entry built from `args` to fire the line's delay from
  /// now, and returns its value for the caller to finish filling in before
  /// it fires.
  template <class... Args>
  T& push(Args&&... args) {
    const auto [at, seq] = stamp();
    Entry& e = entries_.push(at, seq, std::forward<Args>(args)...);
    pushed(at, seq);
    return e.value;
  }

 private:
  struct Entry {
    template <class... Args>
    Entry(Time t, std::uint64_t s, Args&&... args)
        : at{t}, seq{s}, value(std::forward<Args>(args)...) {}
    Time at;
    std::uint64_t seq;
    T value;
  };

  static void fire_head(DelayLineBase& base) {
    auto& line = static_cast<DelayLine&>(base);
    const Entry& e = line.entries_.pop_front();
    if (line.entries_.empty()) {
      line.popped(Time{}, 0);
    } else {
      line.popped(line.entries_.front().at, line.entries_.front().seq);
    }
    line.handler_(e.value);
  }

  util::Fifo<Entry> entries_;
  Handler handler_;
};

}  // namespace xdrs::sim

#endif  // XDRS_SIM_DELAY_LINE_HPP
