#include "core/report_io.hpp"

#include <limits>
#include <stdexcept>

#include "stats/serialize.hpp"

namespace xdrs::core {

namespace {

using stats::Field;
using stats::JsonValue;

std::string histogram_state_json(const stats::Histogram& h) {
  const stats::Histogram::State s = h.state();
  std::string out = "{\"count\":" + std::to_string(s.count) + ",\"sum\":" + std::to_string(s.sum) +
                    ",\"min\":" + std::to_string(s.min) + ",\"max\":" + std::to_string(s.max) +
                    ",\"slots\":[";
  for (std::size_t i = 0; i < s.slots.size(); ++i) {
    if (i != 0) out += ',';
    out += '[' + std::to_string(s.slots[i].first) + ',' + std::to_string(s.slots[i].second) + ']';
  }
  out += "]}";
  return out;
}

std::string summary_state_json(const stats::Summary& s) {
  const stats::Summary::State st = s.state();
  return "{\"n\":" + std::to_string(st.n) + ",\"mean\":" + stats::format_double(st.mean) +
         ",\"m2\":" + stats::format_double(st.m2) + ",\"min\":" + stats::format_double(st.min) +
         ",\"max\":" + stats::format_double(st.max) + '}';
}

stats::Histogram histogram_from_state(const JsonValue& v) {
  stats::Histogram::State s;
  s.count = v.at("count").as_u64();
  s.sum = v.at("sum").as_i64();
  s.min = v.at("min").as_i64();
  s.max = v.at("max").as_i64();
  for (const JsonValue& pair : v.at("slots").items()) {
    const auto& items = pair.items();
    if (items.size() != 2) {
      throw std::invalid_argument{"report state: histogram slot entry is not a [slot,count] pair"};
    }
    // Reject indices that do not fit an int BEFORE the cast: a corrupt
    // value like 2^32 would otherwise truncate into range and pass
    // from_state's own [0, kSlots) check, landing counts in the wrong
    // bucket silently instead of failing loudly.
    const std::int64_t slot = items[0].as_i64();
    if (slot < 0 || slot > std::numeric_limits<int>::max()) {
      throw std::invalid_argument{"report state: histogram slot index out of range"};
    }
    s.slots.emplace_back(static_cast<int>(slot), items[1].as_u64());
  }
  return stats::Histogram::from_state(s);
}

stats::Summary summary_from_state(const JsonValue& v) {
  stats::Summary::State s;
  s.n = v.at("n").as_u64();
  s.mean = v.at("mean").as_f64();
  s.m2 = v.at("m2").as_f64();
  s.min = v.at("min").as_f64();
  s.max = v.at("max").as_f64();
  return stats::Summary::from_state(s);
}

}  // namespace

std::string report_state_json(const RunReport& report) {
  // The artefact object with the three distribution-state members appended —
  // a strict superset of to_json(), so state files stay greppable with the
  // same keys the sweep artefacts use.
  std::string out = stats::to_json_object(report.fields());
  out.pop_back();  // drop the closing '}'
  out += ",\"latency_state\":" + histogram_state_json(report.latency);
  out += ",\"latency_sensitive_state\":" + histogram_state_json(report.latency_sensitive);
  out += ",\"jitter_state\":" + summary_state_json(report.jitter_us);
  out += ",\"fct_deadline_state\":" + histogram_state_json(report.fct_deadline);
  out += ",\"fct_other_state\":" + histogram_state_json(report.fct_other);
  out += ",\"fct_intra_rack_state\":" + histogram_state_json(report.fct_intra_rack);
  out += ",\"fct_cross_rack_state\":" + histogram_state_json(report.fct_cross_rack);
  out += '}';
  return out;
}

RunReport report_from_state(const JsonValue& state) {
  const std::uint64_t version = state.at("schema_version").as_u64();
  if (version != RunReport::kSchemaVersion) {
    throw std::invalid_argument{"report state: schema_version " + std::to_string(version) +
                                " != supported " + std::to_string(RunReport::kSchemaVersion)};
  }
  RunReport r;
  r.policy_stack = state.at("policy_stack").as_str();
  r.duration = sim::Time::picoseconds(state.at("duration_ps").as_i64());
  r.offered_packets = state.at("offered_packets").as_u64();
  r.offered_bytes = state.at("offered_bytes").as_i64();
  r.delivered_packets = state.at("delivered_packets").as_u64();
  r.delivered_bytes = state.at("delivered_bytes").as_i64();
  r.serviced_bytes = state.at("serviced_bytes").as_i64();
  r.ocs_bytes = state.at("ocs_bytes").as_i64();
  r.eps_bytes = state.at("eps_bytes").as_i64();
  r.class_bytes[0] = state.at("latency_sensitive_bytes").as_i64();
  r.class_bytes[1] = state.at("throughput_bytes").as_i64();
  r.class_bytes[2] = state.at("best_effort_bytes").as_i64();
  r.voq_drops = state.at("voq_drops").as_u64();
  r.eps_drops = state.at("eps_drops").as_u64();
  r.sync_losses = state.at("sync_losses").as_u64();
  r.reconfig_cuts = state.at("reconfig_cuts").as_u64();
  r.reconfigurations = state.at("reconfigurations").as_u64();
  r.dark_time = sim::Time::picoseconds(state.at("dark_time_ps").as_i64());
  r.ocs_duty_cycle = state.at("ocs_duty_cycle").as_f64();
  r.peak_switch_buffer_bytes = state.at("peak_switch_buffer_bytes").as_i64();
  r.peak_host_buffer_bytes = state.at("peak_host_buffer_bytes").as_i64();
  r.scheduler_decisions = state.at("scheduler_decisions").as_u64();
  r.mean_decision_latency = sim::Time::picoseconds(state.at("mean_decision_latency_ps").as_i64());
  r.deadline_flows_met = state.at("deadline_flows_met").as_u64();
  r.deadline_flows_missed = state.at("deadline_flows_missed").as_u64();
  r.goodput_before_deadline_bytes = state.at("goodput_before_deadline_bytes").as_i64();
  r.intra_rack_bytes = state.at("intra_rack_bytes").as_i64();
  r.cross_rack_bytes = state.at("cross_rack_bytes").as_i64();
  r.core_link_bytes = state.at("core_link_bytes").as_i64();
  r.core_drops = state.at("core_drops").as_u64();
  r.peak_core_queue_bytes = state.at("peak_core_queue_bytes").as_i64();
  r.core_utilization = state.at("core_utilization").as_f64();
  // Digest fields (delivery_ratio, latency_* quantiles, deadline_miss_ratio)
  // are derived; the distributions themselves come back from their state
  // objects.
  r.latency = histogram_from_state(state.at("latency_state"));
  r.latency_sensitive = histogram_from_state(state.at("latency_sensitive_state"));
  r.jitter_us = summary_from_state(state.at("jitter_state"));
  r.fct_deadline = histogram_from_state(state.at("fct_deadline_state"));
  r.fct_other = histogram_from_state(state.at("fct_other_state"));
  r.fct_intra_rack = histogram_from_state(state.at("fct_intra_rack_state"));
  r.fct_cross_rack = histogram_from_state(state.at("fct_cross_rack_state"));
  return r;
}

RunReport report_from_state_json(std::string_view json) {
  return report_from_state(stats::parse_json(json));
}

}  // namespace xdrs::core
