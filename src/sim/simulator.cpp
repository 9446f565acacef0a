#include "sim/simulator.hpp"

namespace xdrs::sim {

bool Simulator::cancel(EventId id) {
  const bool was_pending = queue_.cancel(id);
  if (was_pending) ++stats_.events_cancelled;
  return was_pending;
}

bool Simulator::step(Time horizon) {
  // The queue keeps its head live, so the peek below is a plain read and
  // the pop that follows never skips a cancelled entry first.
  if (stopping_ || queue_.empty() || queue_.next_time() > horizon) return false;
  auto popped = queue_.pop();
  now_ = popped.at;
  ++stats_.events_executed;
  popped.cb();
  return true;
}

void Simulator::run_until(Time horizon) {
  stopping_ = false;
  while (step(horizon)) {
  }
  // Advance the clock to the horizon even if the queue drained early, so a
  // subsequent run_until continues from a consistent epoch.
  if (!stopping_ && now_ < horizon) now_ = horizon;
}

void Simulator::run() {
  stopping_ = false;
  while (step(Time::max())) {
  }
}

}  // namespace xdrs::sim
