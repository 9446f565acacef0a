#include "sim/trace.hpp"

#include <algorithm>

namespace xdrs::sim {

const char* to_string(TraceCategory c) noexcept {
  switch (c) {
    case TraceCategory::kPacketArrival: return "packet_arrival";
    case TraceCategory::kEnqueue: return "enqueue";
    case TraceCategory::kRequest: return "request";
    case TraceCategory::kDemandUpdate: return "demand_update";
    case TraceCategory::kScheduleStart: return "schedule_start";
    case TraceCategory::kScheduleDone: return "schedule_done";
    case TraceCategory::kReconfigStart: return "reconfig_start";
    case TraceCategory::kReconfigDone: return "reconfig_done";
    case TraceCategory::kGrant: return "grant";
    case TraceCategory::kDequeue: return "dequeue";
    case TraceCategory::kDeliver: return "deliver";
    case TraceCategory::kDrop: return "drop";
  }
  return "unknown";
}

void TraceRecorder::set_capacity(std::size_t capacity) {
  capacity_ = capacity == 0 ? 0 : std::max<std::size_t>(capacity, 2);
  if (capacity_ != 0) events_.reserve(capacity_);
}

void TraceRecorder::evict() {
  // Evict the oldest half in one move; amortised O(1) per record and the
  // vector stays contiguous for events().
  const std::size_t keep = capacity_ / 2;
  dropped_ += events_.size() - keep;
  events_.erase(events_.begin(), events_.end() - static_cast<std::ptrdiff_t>(keep));
}

std::vector<TraceEvent> TraceRecorder::filter(TraceCategory category) const {
  std::vector<TraceEvent> out;
  std::copy_if(events_.begin(), events_.end(), std::back_inserter(out),
               [category](const TraceEvent& e) { return e.category == category; });
  return out;
}

std::size_t TraceRecorder::count(TraceCategory category) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [category](const TraceEvent& e) { return e.category == category; }));
}

}  // namespace xdrs::sim
