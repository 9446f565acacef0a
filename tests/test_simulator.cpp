// Tests for the event queue and the discrete-event engine: ordering,
// determinism, cancellation, callback lifetimes, in-place firing and horizon
// semantics.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace xdrs::sim {
namespace {

using namespace xdrs::sim::literals;

/// Fires the earliest event regardless of its time; false when none is left.
bool fire(EventQueue& q) {
  return q.fire_next(Time::max(), [](Time) {});
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  (void)q.push(3_us, [&] { order.push_back(3); });
  (void)q.push(1_us, [&] { order.push_back(1); });
  (void)q.push(2_us, [&] { order.push_back(2); });
  while (fire(q)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimestampIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    (void)q.push(5_us, [&order, i] { order.push_back(i); });
  }
  while (fire(q)) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1_us, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{12345}));
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  const EventId id = q.push(1_us, [] {});
  ASSERT_TRUE(fire(q));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1_us, [] {});
  (void)q.push(2_us, [] {});
  EXPECT_EQ(q.size(), 2u);
  (void)q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  ASSERT_TRUE(fire(q));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.push(1_us, [] {});
  (void)q.push(7_us, [] {});
  (void)q.cancel(a);
  EXPECT_EQ(q.next_time(), 7_us);
}

TEST(EventQueue, FireOnEmptyReturnsFalse) {
  EventQueue q;
  bool hook_called = false;
  EXPECT_FALSE(q.fire_next(Time::max(), [&](Time) { hook_called = true; }));
  EXPECT_FALSE(hook_called);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

TEST(EventQueue, FireNextHonoursHorizon) {
  EventQueue q;
  bool fired = false;
  (void)q.push(5_us, [&] { fired = true; });
  EXPECT_FALSE(q.fire_next(4_us, [](Time) {}));
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.size(), 1u);
  Time seen{};
  EXPECT_TRUE(q.fire_next(5_us, [&](Time at) {
    seen = at;
    EXPECT_FALSE(fired);  // the hook runs before the callback
  }));
  EXPECT_TRUE(fired);
  EXPECT_EQ(seen, 5_us);
}

TEST(EventQueue, StaleIdNeverCancelsTheSlotsNextEvent) {
  EventQueue q;
  const EventId cancelled = q.push(1_us, [] {});
  ASSERT_TRUE(q.cancel(cancelled));
  bool fired = false;
  const EventId reuser = q.push(2_us, [&] { fired = true; });
  ASSERT_EQ(reuser.slot, cancelled.slot);  // the freed slot was reused
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_EQ(q.size(), 1u);
  ASSERT_TRUE(fire(q));
  EXPECT_TRUE(fired);

  // Same for an id whose event already fired.
  const EventId done = q.push(3_us, [] {});
  ASSERT_TRUE(fire(q));
  bool fired_again = false;
  const EventId next = q.push(4_us, [&] { fired_again = true; });
  ASSERT_EQ(next.slot, done.slot);
  EXPECT_FALSE(q.cancel(done));
  ASSERT_TRUE(fire(q));
  EXPECT_TRUE(fired_again);
}

// Randomized interleavings of push/cancel/fire checked against a reference
// model: the set of pending (time, seq) keys, whose first element is the next
// event to fire.  Times are drawn from a few values so ties are common.  Each
// callback records its seq, so the firing order is checked by id.
TEST(EventQueue, RandomizedInterleavingsMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng{seed};
    EventQueue q;
    std::set<std::pair<Time, std::uint64_t>> model;
    std::map<std::uint64_t, Time> pending_at;  // seq -> time, pending only
    std::vector<EventId> issued;
    std::vector<std::uint64_t> fired;  // seqs in firing order
    Time now = Time::zero();

    for (int step = 0; step < 600; ++step) {
      const auto op = rng() % 10;
      if (op < 5) {
        const Time at = now + Time::nanoseconds(static_cast<std::int64_t>(rng() % 4));
        const std::uint64_t expected_seq = q.total_pushed() + 1;
        const EventId id = q.push(at, [&fired, expected_seq] { fired.push_back(expected_seq); });
        ASSERT_EQ(id.seq, expected_seq);
        issued.push_back(id);
        model.emplace(at, id.seq);
        pending_at.emplace(id.seq, at);
      } else if (op < 8) {
        // Any id ever issued (pending, fired or already cancelled), a
        // never-issued one, or a real seq paired with another slot.
        EventId id{};
        const auto kind = rng() % 4;
        if (kind <= 1 && !issued.empty()) {
          id = issued[rng() % issued.size()];
        } else if (kind == 2) {
          id = EventId{q.total_pushed() + 1 + rng() % 8, static_cast<std::uint32_t>(rng() % 64)};
        } else if (!issued.empty()) {
          id = issued[rng() % issued.size()];
          id.slot += 1 + static_cast<std::uint32_t>(rng() % 3);
        }
        const auto it = pending_at.find(id.seq);
        const bool expect = it != pending_at.end() && issued[id.seq - 1] == id;
        ASSERT_EQ(q.cancel(id), expect) << "seed " << seed << " step " << step;
        if (expect) {
          model.erase({it->second, id.seq});
          pending_at.erase(it);
        }
      } else if (model.empty()) {
        ASSERT_FALSE(fire(q));
      } else {
        const auto [at, seq] = *model.begin();
        // A horizon just short of the head fires nothing.
        ASSERT_FALSE(q.fire_next(at - Time::picoseconds(1), [](Time) {}));
        Time fired_at = Time::max();
        const std::size_t fired_before = fired.size();
        ASSERT_TRUE(q.fire_next(at, [&](Time t) { fired_at = t; }));
        ASSERT_EQ(fired_at, at);
        ASSERT_EQ(fired.size(), fired_before + 1);
        ASSERT_EQ(fired.back(), seq);
        model.erase(model.begin());
        pending_at.erase(seq);
        now = at;
      }

      ASSERT_EQ(q.size(), model.size());
      ASSERT_EQ(q.empty(), model.empty());
      if (model.empty()) {
        EXPECT_THROW((void)q.next_time(), std::logic_error);
      } else {
        ASSERT_EQ(q.next_time(), model.begin()->first);
      }
    }
    // Drain: the rest fires in (time, seq) order.
    while (!model.empty()) {
      ASSERT_TRUE(fire(q));
      ASSERT_EQ(fired.back(), model.begin()->second);
      model.erase(model.begin());
      ASSERT_EQ(q.size(), model.size());
    }
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(fire(q));
  }
}

TEST(EventQueue, RunningCallbackCannotCancelItself) {
  EventQueue q;
  EventId self{};
  bool cancelled = true;
  self = q.push(1_us, [&] { cancelled = q.cancel(self); });
  ASSERT_TRUE(fire(q));
  EXPECT_FALSE(cancelled);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunningSlotIsNotReusedUntilItReturns) {
  EventQueue q;
  EventId self{};
  EventId inner{};
  self = q.push(1_us, [&] { inner = q.push(2_us, [] {}); });
  ASSERT_TRUE(fire(q));
  EXPECT_NE(inner.slot, self.slot);
  // Once it has returned, the slot is the first to be reused.
  const EventId next = q.push(3_us, [] {});
  EXPECT_EQ(next.slot, self.slot);
}

TEST(Callback, MoveLeavesSourceEmpty) {
  int calls = 0;
  Callback a{[&calls] { ++calls; }};
  Callback b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
}

// A captured shared_ptr's count must drop back to 1 once the queue lets go of
// the callback: after firing, after cancel and when a non-empty queue dies.
template <class MakeCallback>
void expect_capture_released(MakeCallback make) {
  const auto token = std::make_shared<int>(0);
  {
    EventQueue q;
    (void)q.push(1_us, make(token));
    EXPECT_EQ(token.use_count(), 2);
    ASSERT_TRUE(fire(q));
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1) << "after firing";
  }
  {
    EventQueue q;
    const EventId id = q.push(1_us, make(token));
    (void)q.push(2_us, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(token.use_count(), 1) << "after cancel";
  }
  {
    EventQueue q;
    (void)q.push(1_us, make(token));
    (void)q.push(2_us, make(token));
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1) << "after destroying a non-empty queue";
}

TEST(Callback, LargeCaptureIsReleased) {
  struct Large {
    std::shared_ptr<int> token;
    std::array<char, 2 * Callback::kInlineBytes> pad{};
    void operator()() const { ++*token; }
  };
  static_assert(sizeof(Large) > Callback::kInlineBytes);
  expect_capture_released([](const std::shared_ptr<int>& t) { return Large{t}; });
}

TEST(Callback, MoveOnlyCaptureIsReleased) {
  expect_capture_released([](const std::shared_ptr<int>& t) {
    return [t, owned = std::make_unique<int>(1)] { *t += *owned; };
  });
}

TEST(Callback, MutableCaptureKeepsItsState) {
  expect_capture_released([](const std::shared_ptr<int>& t) {
    return [t, calls = 0]() mutable { *t = ++calls; };
  });
  int seen = 0;
  Callback cb{[&seen, calls = 0]() mutable { seen = ++calls; }};
  cb();
  Callback moved{std::move(cb)};
  moved();
  EXPECT_EQ(seen, 2);
}

TEST(Simulator, PendingCapturesReleasedWithEngine) {
  const auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    sim.schedule(1_us, [token] { ++*token; });
    sim.schedule(2_us, [token] { ++*token; });
    sim.run_until(1_us);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<std::int64_t> stamps;
  sim.schedule(2_us, [&] { stamps.push_back(sim.now().ps()); });
  sim.schedule(1_us, [&] { stamps.push_back(sim.now().ps()); });
  sim.run();
  EXPECT_EQ(stamps, (std::vector<std::int64_t>{(1_us).ps(), (2_us).ps()}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_us, [&] {
    ++fired;
    sim.schedule(1_us, [&] {
      ++fired;
      sim.schedule(1_us, [&] { ++fired; });
    });
  });
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 3_us);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_us, [&] { ++fired; });
  sim.schedule(10_us, [&] { ++fired; });
  sim.run_until(5_us);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5_us);
  sim.run_until(10_us);  // the horizon event itself still executes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrains) {
  Simulator sim;
  sim.run_until(3_us);
  EXPECT_EQ(sim.now(), 3_us);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule(5_us, [&] {
    sim.schedule(1_us - 3_us, [&] { EXPECT_EQ(sim.now(), 5_us); });
  });
  sim.run();
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule(5_us, [&] {
    sim.schedule_at(1_us, [&] {
      fired = true;
      EXPECT_EQ(sim.now(), 5_us);
    });
  });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_us, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(2_us, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, RunUntilHonoursStopWithoutAdvancingClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_us, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(2_us, [&] { ++fired; });
  sim.run_until(5_us);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 1_us);
  sim.run_until(5_us);  // a new run clears the stop request
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 5_us);
}

TEST(Simulator, RunUntilSkipsCancelledHead) {
  Simulator sim;
  int fired = 0;
  const EventId head = sim.schedule(1_us, [&] { ++fired; });
  sim.schedule(10_us, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(head));
  sim.run_until(5_us);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 5_us);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.stats().events_executed, 1u);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(1_us, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.stats().events_cancelled, 1u);
}

TEST(Simulator, StatsCountExecutions) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(Time::microseconds(i + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.stats().events_scheduled, 5u);
  EXPECT_EQ(sim.stats().events_executed, 5u);
}

TEST(Simulator, DeterministicInterleaving) {
  // Two identically-seeded runs must produce identical event interleaving.
  const auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule(Time::nanoseconds(100 * (i % 7)), [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, CallbackCancellingItsOwnIdGetsFalse) {
  Simulator sim;
  EventId self{};
  bool cancelled = true;
  self = sim.schedule(1_us, [&] { cancelled = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(sim.stats().events_cancelled, 0u);
  EXPECT_EQ(sim.stats().events_executed, 1u);
}

TEST(Simulator, PendingEventsExcludesTheRunningCallback) {
  Simulator sim;
  std::vector<std::size_t> seen;
  sim.schedule(1_us, [&] {
    seen.push_back(sim.pending_events());
    sim.schedule(1_us, [&] { seen.push_back(sim.pending_events()); });
    seen.push_back(sim.pending_events());
  });
  sim.schedule(5_us, [&] { seen.push_back(sim.pending_events()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2, 1, 0}));
}

TEST(Simulator, ThrowingCallbackReleasesItsCapturesAndLeavesQueueUsable) {
  const auto token = std::make_shared<int>(0);
  Simulator sim;
  sim.schedule(1_us, [token] {
    ++*token;
    throw std::runtime_error{"callback failed"};
  });
  int later = 0;
  sim.schedule(2_us, [&later] { ++later; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.now(), 1_us);
  EXPECT_EQ(sim.pending_events(), 1u);

  // The queue still schedules, cancels and fires in order.
  const EventId dropped = sim.schedule(1_us, [&later] { later += 100; });
  sim.schedule(3_us, [&later] { later *= 10; });
  EXPECT_TRUE(sim.cancel(dropped));
  sim.run();
  EXPECT_EQ(later, 10);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.stats().events_executed, 3u);
}

TEST(Simulator, CallbackCanGrowTheSlabWhileItRuns) {
  // The running callback's slot must stay put while the events it schedules
  // add slab chunks: its captures are read after every schedule.
  Simulator sim;
  constexpr int kScheduled = 2000;  // several chunks' worth of slots
  std::array<std::uint64_t, 8> pattern{};
  for (std::size_t k = 0; k < pattern.size(); ++k) pattern[k] = 0x9e3779b97f4a7c15ULL * (k + 1);
  int fired = 0;
  bool intact = true;
  sim.schedule(1_us, [&sim, &fired, &intact, pattern] {
    for (int i = 0; i < kScheduled; ++i) {
      sim.schedule(Time::nanoseconds(i + 1), [&fired] { ++fired; });
      for (std::size_t k = 0; k < pattern.size(); ++k) {
        intact = intact && pattern[k] == 0x9e3779b97f4a7c15ULL * (k + 1);
      }
    }
    EXPECT_EQ(sim.pending_events(), static_cast<std::size_t>(kScheduled));
  });
  sim.run();
  EXPECT_TRUE(intact);
  EXPECT_EQ(fired, kScheduled);
  EXPECT_EQ(sim.stats().events_executed, static_cast<std::uint64_t>(kScheduled) + 1);
}

}  // namespace
}  // namespace xdrs::sim
