#include "obs/trace_export.hpp"

#include <algorithm>
#include <optional>

#include "stats/serialize.hpp"

namespace xdrs::obs {

namespace {

using sim::TraceCategory;

void append_event(std::string& out, bool& first, const std::string& body) {
  if (!first) out += ",\n";
  first = false;
  out += "  {" + body + '}';
}

[[nodiscard]] std::string ts_us(double us) { return stats::format_double(us); }

/// Duration slice on the virtual-time track.
void append_sim_slice(std::string& out, bool& first, const char* name, double start_us,
                      double dur_us, std::uint64_t arg) {
  append_event(out, first,
               "\"name\":\"" + std::string{name} + "\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":" +
                   ts_us(start_us) + ",\"dur\":" + ts_us(dur_us) +
                   ",\"pid\":1,\"tid\":1,\"args\":{\"result\":" + std::to_string(arg) + '}');
}

/// Instant event on the virtual-time track.
void append_sim_instant(std::string& out, bool& first, const sim::TraceEvent& e) {
  append_event(out, first,
               "\"name\":\"" + std::string{sim::to_string(e.category)} +
                   "\",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + ts_us(e.at.us()) +
                   ",\"pid\":1,\"tid\":1,\"args\":{\"a\":" + std::to_string(e.a) +
                   ",\"b\":" + std::to_string(e.b) + '}');
}

}  // namespace

std::string chrome_trace_json(const sim::TraceRecorder& sim_trace, const Registry& registry,
                              const CounterTracks& counters) {
  std::string out{"{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n"};
  bool first = true;

  // Keep only usable counter tracks so the pid-3 process appears exactly
  // when it will carry events.
  CounterTracks tiers;
  for (const auto& [name, series] : counters) {
    if (series != nullptr && !series->samples().empty()) tiers.emplace_back(name, series);
  }

  // Track naming metadata.
  append_event(out, first,
               "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
               "\"virtual time (simulation)\"}");
  append_event(out, first,
               "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":"
               "\"host time (compute spans)\"}");
  if (!tiers.empty()) {
    append_event(out, first,
                 "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"args\":{\"name\":"
                 "\"tiers (queue depth, virtual time)\"}");
  }

  // ---- virtual-time track: recorder events in record order ----------------
  // Start/done pairs fold into duration slices, emitted when the done event
  // is reached (JSON event order is free; ts carries the chronology).
  std::optional<sim::TraceEvent> schedule_open;
  std::optional<sim::TraceEvent> reconfig_open;
  for (const sim::TraceEvent& e : sim_trace.events()) {
    switch (e.category) {
      case TraceCategory::kScheduleStart:
        schedule_open = e;
        break;
      case TraceCategory::kScheduleDone:
        if (schedule_open) {
          append_sim_slice(out, first, "schedule", schedule_open->at.us(),
                           (e.at - schedule_open->at).us(), e.a);
          schedule_open.reset();
        } else {
          append_sim_instant(out, first, e);
        }
        break;
      case TraceCategory::kReconfigStart:
        reconfig_open = e;
        break;
      case TraceCategory::kReconfigDone:
        if (reconfig_open) {
          append_sim_slice(out, first, "reconfig", reconfig_open->at.us(),
                           (e.at - reconfig_open->at).us(), e.a);
          reconfig_open.reset();
        } else {
          append_sim_instant(out, first, e);
        }
        break;
      default:
        append_sim_instant(out, first, e);
        break;
    }
  }
  // Unclosed pairs at the end of the run surface as instants, not silence.
  if (schedule_open) append_sim_instant(out, first, *schedule_open);
  if (reconfig_open) append_sim_instant(out, first, *reconfig_open);

  // ---- host-time track: span log, normalised to the earliest span ---------
  std::int64_t epoch_ns = 0;
  if (!registry.spans().empty()) {
    epoch_ns = std::min_element(registry.spans().begin(), registry.spans().end(),
                                [](const Span& a, const Span& b) {
                                  return a.start_ns < b.start_ns;
                                })
                   ->start_ns;
  }
  for (const Span& s : registry.spans()) {
    const Timer* t = registry.timer_by_id(s.timer_id);
    const std::string name = t != nullptr ? t->name() : ("timer#" + std::to_string(s.timer_id));
    append_event(out, first,
                 "\"name\":\"" + stats::json_escape(name) +
                     "\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":" +
                     ts_us(static_cast<double>(s.start_ns - epoch_ns) / 1e3) +
                     ",\"dur\":" + ts_us(static_cast<double>(s.dur_ns) / 1e3) +
                     ",\"pid\":2,\"tid\":1");
  }

  // ---- tier counter tracks: one Perfetto counter per named series ---------
  for (const auto& [name, series] : tiers) {
    for (const stats::TimeSeries::Sample& s : series->samples()) {
      append_event(out, first,
                   "\"name\":\"" + stats::json_escape(name) +
                       "\",\"cat\":\"tier\",\"ph\":\"C\",\"ts\":" + ts_us(s.at.us()) +
                       ",\"pid\":3,\"tid\":1,\"args\":{\"value\":" +
                       stats::format_double(s.value) + '}');
    }
  }

  out += "\n]\n}\n";
  return out;
}

}  // namespace xdrs::obs
