// Event tracing for pipeline analysis and transient detection.
//
// The paper argues a testbed "allows to detect and analyse transient effects
// that may not be visible under simulation environments"; the recorder below
// is our answer — every stage of the request/grant pipeline and every fabric
// reconfiguration can be stamped, then replayed by the transient and
// Figure 2 ordering tests.
#ifndef XDRS_SIM_TRACE_HPP
#define XDRS_SIM_TRACE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace xdrs::sim {

enum class TraceCategory : std::uint8_t {
  kPacketArrival,   ///< packet entered the processing logic
  kEnqueue,         ///< packet placed in a VOQ
  kRequest,         ///< scheduling request emitted towards scheduling logic
  kDemandUpdate,    ///< demand matrix refreshed
  kScheduleStart,   ///< scheduling algorithm started
  kScheduleDone,    ///< grant matrix computed
  kReconfigStart,   ///< OCS began retuning (dark period start)
  kReconfigDone,    ///< OCS circuits established
  kGrant,           ///< grant delivered to processing logic
  kDequeue,         ///< packet released from a VOQ
  kDeliver,         ///< packet reached its destination port
  kDrop,            ///< packet dropped (buffer overflow)
};

[[nodiscard]] const char* to_string(TraceCategory c) noexcept;

/// One timestamped trace record.  `a` and `b` carry category-dependent
/// integers (typically source / destination port).
struct TraceEvent {
  Time at;
  TraceCategory category{};
  std::uint64_t a{0};
  std::uint64_t b{0};
};

/// Append-only, in-memory recorder.  Disabled recorders are free:
/// `record` is a branch on a bool.
///
/// Unbounded by default (capacity 0), which short runs and the existing
/// tests rely on; long telemetry runs call set_capacity() so a multi-second
/// simulation cannot grow the trace without limit.  A bounded recorder keeps
/// the newest events, evicting the oldest half when full.  Every event not
/// kept is counted by dropped(), so exports can state their own
/// completeness.
class TraceRecorder {
 public:
  void enable() noexcept { enabled_ = true; }
  void disable() noexcept { enabled_ = false; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Bounds the recorder at `capacity` events (0 = unbounded).  Nonzero
  /// capacities are clamped to at least 2 so eviction always keeps one.
  /// Storage is reserved up front.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  void record(Time at, TraceCategory category, std::uint64_t a = 0, std::uint64_t b = 0) {
    if (!enabled_) return;
    ++offered_;
    if (capacity_ != 0 && events_.size() == capacity_) evict();
    events_.push_back(TraceEvent{at, category, a, b});
  }

  /// Events offered to record() while enabled, kept or not.
  [[nodiscard]] std::uint64_t offered() const noexcept { return offered_; }
  /// Events not retained because of the capacity bound.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept { return events_; }
  void clear() noexcept {
    events_.clear();
    offered_ = 0;
    dropped_ = 0;
  }

  /// All events of one category, in time order (records are appended in
  /// simulation order, so no sort is needed).
  [[nodiscard]] std::vector<TraceEvent> filter(TraceCategory category) const;

  /// Count of events of one category.
  [[nodiscard]] std::size_t count(TraceCategory category) const noexcept;

 private:
  void evict();

  std::vector<TraceEvent> events_;
  bool enabled_{false};
  std::size_t capacity_{0};
  std::uint64_t offered_{0};
  std::uint64_t dropped_{0};
};

}  // namespace xdrs::sim

#endif  // XDRS_SIM_TRACE_HPP
