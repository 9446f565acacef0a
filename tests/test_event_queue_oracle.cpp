// Differential test of the calendar event queue against the 4-ary heap it
// replaced (tests/reference_event_heap.hpp).  Both queues receive the same
// randomized operation stream, and after every operation they must agree
// on what fired (which event, at what time), on `next_time()` and on
// `size()`.  The streams mix delays from 0 ps to 10 ms, bursts of 128+
// events at one timestamp, cancels of near, far and stale ids, horizons
// that stop `fire_next`, pushes behind the last fired event, and callbacks
// that schedule and cancel from inside the queue.
//
// The second half drives a Simulator whose events go partly to delay lines
// (sim/delay_line.hpp) against the heap fed every delay-line entry as an
// ordinary event, pushed at the same point and so given the same seq.
#include <gtest/gtest.h>

#include <cmath>
#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "reference_event_heap.hpp"
#include "sim/delay_line.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace xdrs::sim {
namespace {

using testing::ReferenceEventHeap;

/// One queue under test and what its callbacks recorded.
template <class Q>
struct Side {
  Q q;
  std::vector<std::uint64_t> fired;  // labels in firing order
  std::vector<EventId> ids;          // by push index
  Time now = Time::zero();           // time of the last fired event
};

/// A deterministic child delay for a callback labelled `label`.
Time child_delay(std::uint64_t label) {
  const std::uint64_t h = label * 0x9e3779b97f4a7c15ULL;
  return Time::picoseconds(static_cast<std::int64_t>((h >> 20) % 5'000'000));
}

template <class Q>
void push(Side<Q>& s, Time at, std::uint64_t label) {
  s.ids.push_back(s.q.push(at, [&s, label] {
    s.fired.push_back(label);
    // Every fifth event schedules a child from inside its callback, at a
    // lead derived from its label, and every seventh cancels the event
    // pushed just before it; both sides do the same.
    if (label % 5 == 0) push(s, s.now + child_delay(label), label * 31 + 7);
    if (label % 7 == 0 && s.ids.size() >= 2) (void)s.q.cancel(s.ids[s.ids.size() - 2]);
  }));
}

template <class Q>
bool fire(Side<Q>& s, Time horizon, Time& at) {
  return s.q.fire_next(horizon, [&](Time t, auto&&... /*seq*/) {
    s.now = t;
    at = t;
  });
}

/// A lead from 0 ps to 10 ms, log-uniform so every scale is common.
Time lead(std::mt19937_64& rng) {
  if (rng() % 16 == 0) return Time::zero();
  const double exponent = std::uniform_real_distribution<double>{0.0, 10.0}(rng);  // 1 ps .. 10 ms
  return Time::picoseconds(static_cast<std::int64_t>(std::pow(10.0, exponent)));
}

struct Expect {
  Side<EventQueue>& a;
  Side<ReferenceEventHeap>& r;
  std::string where;

  void agree() const {
    ASSERT_EQ(a.q.size(), r.q.size()) << where;
    ASSERT_EQ(a.q.empty(), r.q.empty()) << where;
    ASSERT_EQ(a.fired, r.fired) << where;
    if (!r.q.empty()) {
      ASSERT_EQ(a.q.next_time(), r.q.next_time()) << where;
    }
  }
};

void run_stream(std::uint64_t seed, int steps) {
  std::mt19937_64 rng{seed};
  Side<EventQueue> a;
  Side<ReferenceEventHeap> r;
  std::uint64_t next_label = 1;
  const auto push_both = [&](Time at) {
    const std::uint64_t label = next_label++;
    push(a, at, label);
    push(r, at, label);
    ASSERT_EQ(a.ids.back().seq, r.ids.back().seq);
  };

  for (int step = 0; step < steps; ++step) {
    const Expect expect{a, r, "seed " + std::to_string(seed) + " step " + std::to_string(step)};
    const auto op = rng() % 100;
    if (op < 40) {
      push_both(r.now + lead(rng));
    } else if (op < 42) {
      // A burst at one timestamp: ties fire FIFO by seq.
      const Time at = r.now + lead(rng);
      const int n = 128 + static_cast<int>(rng() % 200);
      for (int k = 0; k < n; ++k) push_both(at);
    } else if (op < 45) {
      // Behind the last fired event (a raw queue allows it), or right at it.
      const Time back = Time::picoseconds(static_cast<std::int64_t>(rng() % 20'000'000));
      push_both(rng() % 2 == 0 ? r.now : r.now - back);
    } else if (op < 60) {
      // Any id ever issued (pending near or far, fired, already cancelled),
      // a never-issued seq, or a real seq paired with the wrong slot.
      if (r.ids.empty()) continue;
      const std::size_t k = rng() % r.ids.size();
      EventId ia = a.ids[k];
      EventId ir = r.ids[k];
      const auto kind = rng() % 8;
      if (kind == 0) {
        ia = ir = EventId{r.q.total_pushed() + 1 + rng() % 8, static_cast<std::uint32_t>(rng() % 64)};
      } else if (kind == 1) {
        ia.slot += 1;
        ir.slot += 1;
      }
      ASSERT_EQ(a.q.cancel(ia), r.q.cancel(ir)) << expect.where;
    } else if (op < 90) {
      // fire_next up to a horizon: often the head itself, sometimes short
      // of it (a stop), sometimes far past it.
      Time horizon = Time::max();
      if (!r.q.empty()) {
        const Time head = r.q.next_time();
        switch (rng() % 4) {
          case 0: horizon = head; break;
          case 1: horizon = head - Time::picoseconds(1 + static_cast<std::int64_t>(rng() % 100'000)); break;
          case 2: horizon = head + lead(rng); break;
          default: break;
        }
      }
      Time at_a = Time::max();
      Time at_r = Time::max();
      const bool fired_r = fire(r, horizon, at_r);
      ASSERT_EQ(fire(a, horizon, at_a), fired_r) << expect.where;
      ASSERT_EQ(at_a, at_r) << expect.where;
      if (!fired_r && !r.q.empty() && rng() % 2 == 0) {
        // A push between the horizon that stopped fire_next and the head.
        const Time at = std::max(r.now, horizon);
        push_both(at);
      }
    } else {
      // Drain a stretch.
      const int n = static_cast<int>(rng() % 64);
      for (int k = 0; k < n; ++k) {
        Time at_a = Time::max();
        Time at_r = Time::max();
        const bool fired_r = fire(r, Time::max(), at_r);
        ASSERT_EQ(fire(a, Time::max(), at_a), fired_r) << expect.where;
        ASSERT_EQ(at_a, at_r) << expect.where;
      }
    }
    expect.agree();
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Drain what is left: the same order to the end.
  Time at_a = Time::max();
  Time at_r = Time::max();
  while (fire(r, Time::max(), at_r)) {
    ASSERT_TRUE(fire(a, Time::max(), at_a));
    ASSERT_EQ(at_a, at_r);
  }
  EXPECT_FALSE(fire(a, Time::max(), at_a));
  EXPECT_EQ(a.fired, r.fired);
  EXPECT_TRUE(a.q.empty());
}

TEST(EventQueueOracle, RandomizedStreamsMatchTheHeap) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    run_stream(seed, 3000);
    if (HasFatalFailure()) return;
  }
}

// The simulator's pattern: events at the last fired time plus a short
// lead, horizons that stop the run between events, and pushes at the
// horizon after each stop.
TEST(EventQueueOracle, HorizonStopsThenPushesAtTheHorizon) {
  std::mt19937_64 rng{99};
  Side<EventQueue> a;
  Side<ReferenceEventHeap> r;
  std::uint64_t label = 1;
  for (int k = 0; k < 300; ++k) {
    const Time at = Time::nanoseconds(static_cast<std::int64_t>(rng() % 50'000));
    push(a, at, label);
    push(r, at, label);
    ++label;
  }
  Time horizon = Time::zero();
  for (int round = 0; round < 400; ++round) {
    horizon += Time::nanoseconds(1 + static_cast<std::int64_t>(rng() % 300));
    Time at_a = Time::max();
    Time at_r = Time::max();
    for (;;) {
      const bool fired_r = fire(r, horizon, at_r);
      ASSERT_EQ(fire(a, horizon, at_a), fired_r);
      if (!fired_r) break;
      ASSERT_EQ(at_a, at_r);
    }
    a.now = r.now = horizon;
    for (int k = 0; k < 3; ++k) {
      const Time at = horizon + Time::picoseconds(static_cast<std::int64_t>(rng() % 2'000'000));
      push(a, at, label);
      push(r, at, label);
      ++label;
    }
    ASSERT_EQ(a.fired, r.fired);
    ASSERT_EQ(a.q.size(), r.q.size());
    if (!r.q.empty()) {
      ASSERT_EQ(a.q.next_time(), r.q.next_time());
    }
  }
}

// ---- delay lines beside the calendar ---------------------------------------

/// Delays of the three lines: zero (entries tie with the running event),
/// one picosecond, and a link latency.
constexpr std::array<Time, 3> kLineDelay{Time::zero(), Time::picoseconds(1),
                                         Time::nanoseconds(500)};

/// What either side recorded, per firing.
struct Fired {
  std::vector<std::uint64_t> labels;
  std::vector<std::uint64_t> orders;  // the event's seq, as the side saw it
  std::vector<Time> times;
  bool operator==(const Fired&) const = default;
};

void PrintTo(const Fired& f, std::ostream* os) {
  for (std::size_t k = 0; k < f.labels.size(); ++k) {
    *os << "\n  label " << f.labels[k] << " order " << f.orders[k] << " at "
        << f.times[k].ps() << " ps";
  }
}

/// The simulator: calendar events and entries of three delay lines.  Every
/// callback stops the run, so run_until fires one event at a time.
struct SimSide {
  Simulator sim;
  std::vector<std::unique_ptr<DelayLine<std::uint64_t>>> lines;
  Fired fired;
  std::vector<EventId> ids;  // calendar events, by push index
};

/// The oracle: the same events, delay-line entries included, in one heap.
struct HeapSide {
  ReferenceEventHeap q;
  Fired fired;
  std::vector<EventId> ids;
  Time now = Time::zero();
};

void on_label(SimSide& s, std::uint64_t label, std::uint64_t order);
void on_label(HeapSide& s, std::uint64_t label, std::uint64_t order);

void schedule(SimSide& s, Time at, std::uint64_t label) {
  s.ids.push_back(
      s.sim.schedule_at(at, [&s, label] { on_label(s, label, s.sim.running_order()); }));
}
void schedule(HeapSide& s, Time at, std::uint64_t label) {
  const std::uint64_t order = s.q.total_pushed() + 1;
  s.ids.push_back(s.q.push(at, [&s, label, order] { on_label(s, label, order); }));
}
void line_push(SimSide& s, std::size_t k, std::uint64_t label) { s.lines[k]->push(label); }
void line_push(HeapSide& s, std::size_t k, std::uint64_t label, Time now) {
  const std::uint64_t order = s.q.total_pushed() + 1;
  (void)s.q.push(now + kLineDelay[k], [&s, label, order] { on_label(s, label, order); });
}
[[nodiscard]] Time now_of(const SimSide& s) { return s.sim.now(); }
[[nodiscard]] Time now_of(const HeapSide& s) { return s.now; }
void line_push_now(SimSide& s, std::size_t k, std::uint64_t label) { line_push(s, k, label); }
void line_push_now(HeapSide& s, std::size_t k, std::uint64_t label) {
  line_push(s, k, label, s.now);
}
bool cancel(SimSide& s, EventId id) { return s.sim.cancel(id); }
bool cancel(HeapSide& s, EventId id) { return s.q.cancel(id); }

/// One firing, the same on both sides: record it, then, by label, schedule
/// a calendar child, push a delay-line child (onto any line, its own
/// included) and cancel the calendar event pushed last but one.
template <class S>
void react(S& s, std::uint64_t label, std::uint64_t order) {
  s.fired.labels.push_back(label);
  s.fired.orders.push_back(order);
  s.fired.times.push_back(now_of(s));
  if (label % 5 == 0) schedule(s, now_of(s) + child_delay(label), label * 31 + 7);
  if (label % 11 == 0) line_push_now(s, label % kLineDelay.size(), label * 37 + 3);
  if (label % 7 == 0 && s.ids.size() >= 2) (void)cancel(s, s.ids[s.ids.size() - 2]);
}

void on_label(SimSide& s, std::uint64_t label, std::uint64_t order) {
  s.sim.stop();
  react(s, label, order);
}
void on_label(HeapSide& s, std::uint64_t label, std::uint64_t order) { react(s, label, order); }

void run_line_stream(std::uint64_t seed, int steps) {
  std::mt19937_64 rng{seed};
  SimSide a;
  HeapSide r;
  for (const Time d : kLineDelay) {
    a.lines.push_back(std::make_unique<DelayLine<std::uint64_t>>(
        a.sim, d,
        [&a](const std::uint64_t& label) { on_label(a, label, a.sim.running_order()); }));
  }
  std::uint64_t next_label = 1;
  const std::string where = "seed " + std::to_string(seed);
  const auto push_both = [&](Time at) {
    const std::uint64_t label = next_label++;
    ASSERT_EQ(a.sim.next_order(), r.q.total_pushed() + 1) << where;
    schedule(a, at, label);
    schedule(r, at, label);
    ASSERT_EQ(a.ids.back().seq, r.ids.back().seq) << where;
  };
  const auto line_both = [&](std::size_t k) {
    const std::uint64_t label = next_label++;
    ASSERT_EQ(a.sim.next_order(), r.q.total_pushed() + 1) << where;
    line_push(a, k, label);
    line_push(r, k, label, a.sim.now());
  };
  // One firing at most, up to `horizon`: the same event on both sides.
  const auto fire_both = [&](Time horizon) {
    // Never behind the clock, and never at the end of time with nothing
    // pending, where run_until would move the clock.
    horizon = std::max(horizon, a.sim.now());
    if (r.q.empty()) horizon = std::min(horizon, a.sim.now() + Time::nanoseconds(1));
    const std::size_t before = r.fired.labels.size();
    const bool fired_r = r.q.fire_next(horizon, [&](Time t) { r.now = t; });
    a.sim.run_until(horizon);
    ASSERT_EQ(a.fired.labels.size(), before + (fired_r ? 1 : 0)) << where;
  };

  for (int step = 0; step < steps; ++step) {
    const auto op = rng() % 100;
    if (op < 25) {
      push_both(a.sim.now() + lead(rng));
    } else if (op < 50) {
      line_both(rng() % kLineDelay.size());
    } else if (op < 53) {
      // A same-time burst: entries of one line interleaved with calendar
      // events stamped at the entries' time, so only seqs order them.
      const std::size_t k = rng() % kLineDelay.size();
      const int n = 64 + static_cast<int>(rng() % 128);
      for (int j = 0; j < n; ++j) {
        if (rng() % 2 == 0) {
          line_both(k);
        } else {
          push_both(a.sim.now() + kLineDelay[k]);
        }
      }
    } else if (op < 65) {
      // Any calendar id ever issued, or a never-issued seq.
      if (r.ids.empty()) continue;
      const std::size_t k = rng() % r.ids.size();
      EventId ia = a.ids[k];
      EventId ir = r.ids[k];
      if (rng() % 8 == 0) {
        ia = ir = EventId{r.q.total_pushed() + 1 + rng() % 8, static_cast<std::uint32_t>(rng() % 64)};
      }
      ASSERT_EQ(cancel(a, ia), cancel(r, ir)) << where << " step " << step;
    } else if (op < 90) {
      Time horizon = Time::max();
      if (!r.q.empty()) {
        const Time head = r.q.next_time();
        switch (rng() % 4) {
          case 0: horizon = head; break;
          case 1: horizon = head - Time::picoseconds(1 + static_cast<std::int64_t>(rng() % 100'000)); break;
          case 2: horizon = head + lead(rng); break;
          default: break;
        }
      }
      fire_both(horizon);
    } else {
      const int n = static_cast<int>(rng() % 64);
      for (int j = 0; j < n; ++j) fire_both(Time::max());
    }
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(a.sim.pending_events(), r.q.size()) << where << " step " << step;
    ASSERT_EQ(a.fired, r.fired) << where << " step " << step;
  }
  while (!r.q.empty()) {
    fire_both(Time::max());
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(a.fired, r.fired);
  EXPECT_EQ(a.sim.pending_events(), 0u);
  for (const auto& line : a.lines) EXPECT_TRUE(line->empty());
  EXPECT_EQ(a.sim.stats().events_executed, r.fired.labels.size());
  EXPECT_EQ(a.sim.stats().events_scheduled, r.q.total_pushed());
}

TEST(EventQueueOracle, DelayLinesInterleaveWithTheCalendarInSeqOrder) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    run_line_stream(seed, 3000);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace xdrs::sim
