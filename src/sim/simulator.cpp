#include "sim/simulator.hpp"

namespace xdrs::sim {

bool Simulator::cancel(EventId id) {
  const bool was_pending = queue_.cancel(id);
  if (was_pending) ++stats_.events_cancelled;
  return was_pending;
}

bool Simulator::step(Time horizon) {
  if (stopping_) return false;
  return queue_.fire_next(horizon, [this](Time at) {
    now_ = at;
    ++stats_.events_executed;
  });
}

namespace {

/// Marks the simulator as inside a run until the loop returns or unwinds.
struct RunningScope {
  bool& running;
  const bool outer;
  explicit RunningScope(bool& r) : running{r}, outer{r} { running = true; }
  RunningScope(const RunningScope&) = delete;
  RunningScope& operator=(const RunningScope&) = delete;
  ~RunningScope() { running = outer; }
};

}  // namespace

void Simulator::run_until(Time horizon) {
  stopping_ = false;
  {
    const RunningScope scope{running_};
    while (step(horizon)) {
    }
  }
  // Advance the clock to the horizon even if the queue drained early, so a
  // subsequent run_until continues from a consistent epoch.
  if (!stopping_ && now_ < horizon) now_ = horizon;
}

void Simulator::run() {
  stopping_ = false;
  const RunningScope scope{running_};
  while (step(Time::max())) {
  }
}

}  // namespace xdrs::sim
