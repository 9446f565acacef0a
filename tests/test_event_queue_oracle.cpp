// Differential test of the calendar event queue against the 4-ary heap it
// replaced (tests/reference_event_heap.hpp).  Both queues receive the same
// randomized operation stream, and after every operation they must agree
// on what fired (which event, at what time), on `next_time()` and on
// `size()`.  The streams mix delays from 0 ps to 10 ms, bursts of 128+
// events at one timestamp, cancels of near, far and stale ids, horizons
// that stop `fire_next`, pushes behind the last fired event, and callbacks
// that schedule and cancel from inside the queue.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "reference_event_heap.hpp"
#include "sim/event_queue.hpp"

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
  return s.q.fire_next(horizon, [&](Time t) {
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

}  // namespace
}  // namespace xdrs::sim
