#include "sim/simulator.hpp"

#include <algorithm>

#include "sim/delay_line.hpp"

namespace xdrs::sim {

namespace {

/// Whether key (at_a, seq_a) fires before key (at_b, seq_b).
[[nodiscard]] bool head_before(Time at_a, std::uint64_t seq_a, Time at_b,
                               std::uint64_t seq_b) noexcept {
  return at_a < at_b || (at_a == at_b && seq_a < seq_b);
}

}  // namespace

Simulator::~Simulator() {
  for (DelayLineBase* line : lines_) line->sim_ = nullptr;
}

bool Simulator::cancel(EventId id) {
  const bool was_pending = queue_.cancel(id);
  if (was_pending) ++stats_.events_cancelled;
  return was_pending;
}

std::size_t Simulator::pending_events() const noexcept {
  std::size_t n = queue_.size();
  for (const DelayLineBase* line : lines_) n += line->pending_;
  return n;
}

bool Simulator::step(Time horizon) {
  if (stopping_) return false;
  const auto on_fire = [this](Time at, std::uint64_t seq) {
    now_ = at;
    fired_seq_ = seq;
    ++stats_.events_executed;
  };
  DelayLineBase* const line = first_line_;
  if (line == nullptr || line->head_at_ > horizon) return queue_.fire_next(horizon, on_fire);
  if (queue_.fire_before(line->head_at_, line->head_seq_, on_fire)) return true;
  on_fire(line->head_at_, line->head_seq_);
  line->fire_(*line);
  return true;
}

void Simulator::attach(DelayLineBase& line) { lines_.push_back(&line); }

void Simulator::detach(DelayLineBase& line) noexcept {
  lines_.erase(std::find(lines_.begin(), lines_.end(), &line));
  if (first_line_ == &line) find_first_line();
}

void Simulator::line_armed(DelayLineBase& line) noexcept {
  if (first_line_ == nullptr ||
      head_before(line.head_at_, line.head_seq_, first_line_->head_at_, first_line_->head_seq_)) {
    first_line_ = &line;
  }
}

void Simulator::find_first_line() noexcept {
  first_line_ = nullptr;
  for (DelayLineBase* line : lines_) {
    if (line->pending_ != 0) line_armed(*line);
  }
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
