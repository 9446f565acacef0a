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
