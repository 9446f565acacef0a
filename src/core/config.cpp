#include "core/config.hpp"

#include <algorithm>
#include <cstdio>

namespace xdrs::core {

void RunReport::merge(const RunReport& other) {
  // A merged report speaks for one stack only if every contributor agrees.
  if (policy_stack.empty()) {
    policy_stack = other.policy_stack;
  } else if (!other.policy_stack.empty() && other.policy_stack != policy_stack) {
    policy_stack = "mixed";
  }

  // Re-weight derived rates first, while both denominators are still intact.
  const double w = duration.sec();
  const double wo = other.duration.sec();
  ocs_duty_cycle =
      (w + wo) > 0.0 ? (ocs_duty_cycle * w + other.ocs_duty_cycle * wo) / (w + wo) : 0.0;
  // Core utilisation re-weights by duration exactly like the duty cycle:
  // both are time-averaged per-link rates.
  core_utilization =
      (w + wo) > 0.0 ? (core_utilization * w + other.core_utilization * wo) / (w + wo) : 0.0;
  const std::uint64_t decisions = scheduler_decisions + other.scheduler_decisions;
  if (decisions > 0) {
    const auto weighted =
        static_cast<__int128>(mean_decision_latency.ps()) * scheduler_decisions +
        static_cast<__int128>(other.mean_decision_latency.ps()) * other.scheduler_decisions;
    mean_decision_latency = sim::Time::picoseconds(
        static_cast<std::int64_t>(weighted / static_cast<__int128>(decisions)));
  }
  scheduler_decisions = decisions;

  duration += other.duration;
  offered_packets += other.offered_packets;
  offered_bytes += other.offered_bytes;
  delivered_packets += other.delivered_packets;
  delivered_bytes += other.delivered_bytes;
  serviced_bytes += other.serviced_bytes;
  ocs_bytes += other.ocs_bytes;
  eps_bytes += other.eps_bytes;
  for (std::size_t c = 0; c < class_bytes.size(); ++c) class_bytes[c] += other.class_bytes[c];

  voq_drops += other.voq_drops;
  eps_drops += other.eps_drops;
  sync_losses += other.sync_losses;
  reconfig_cuts += other.reconfig_cuts;
  reconfigurations += other.reconfigurations;
  dark_time += other.dark_time;

  peak_switch_buffer_bytes = std::max(peak_switch_buffer_bytes, other.peak_switch_buffer_bytes);
  peak_host_buffer_bytes = std::max(peak_host_buffer_bytes, other.peak_host_buffer_bytes);

  deadline_flows_met += other.deadline_flows_met;
  deadline_flows_missed += other.deadline_flows_missed;
  goodput_before_deadline_bytes += other.goodput_before_deadline_bytes;

  intra_rack_bytes += other.intra_rack_bytes;
  cross_rack_bytes += other.cross_rack_bytes;
  core_link_bytes += other.core_link_bytes;
  core_drops += other.core_drops;
  peak_core_queue_bytes = std::max(peak_core_queue_bytes, other.peak_core_queue_bytes);

  latency.merge(other.latency);
  latency_sensitive.merge(other.latency_sensitive);
  jitter_us.merge(other.jitter_us);
  fct_deadline.merge(other.fct_deadline);
  fct_other.merge(other.fct_other);
  fct_intra_rack.merge(other.fct_intra_rack);
  fct_cross_rack.merge(other.fct_cross_rack);
}

std::vector<stats::Field> RunReport::fields() const {
  using stats::Field;
  std::vector<Field> f;
  f.reserve(50);
  f.push_back(Field::u64("schema_version", kSchemaVersion));
  f.push_back(Field::str("policy_stack", policy_stack));
  f.push_back(Field::i64("duration_ps", duration.ps()));
  f.push_back(Field::u64("offered_packets", offered_packets));
  f.push_back(Field::i64("offered_bytes", offered_bytes));
  f.push_back(Field::u64("delivered_packets", delivered_packets));
  f.push_back(Field::i64("delivered_bytes", delivered_bytes));
  f.push_back(Field::i64("serviced_bytes", serviced_bytes));
  f.push_back(Field::i64("ocs_bytes", ocs_bytes));
  f.push_back(Field::i64("eps_bytes", eps_bytes));
  f.push_back(Field::i64("latency_sensitive_bytes", class_bytes[0]));
  f.push_back(Field::i64("throughput_bytes", class_bytes[1]));
  f.push_back(Field::i64("best_effort_bytes", class_bytes[2]));
  f.push_back(Field::u64("voq_drops", voq_drops));
  f.push_back(Field::u64("eps_drops", eps_drops));
  f.push_back(Field::u64("sync_losses", sync_losses));
  f.push_back(Field::u64("reconfig_cuts", reconfig_cuts));
  f.push_back(Field::u64("reconfigurations", reconfigurations));
  f.push_back(Field::i64("dark_time_ps", dark_time.ps()));
  f.push_back(Field::f64("ocs_duty_cycle", ocs_duty_cycle));
  f.push_back(Field::i64("peak_switch_buffer_bytes", peak_switch_buffer_bytes));
  f.push_back(Field::i64("peak_host_buffer_bytes", peak_host_buffer_bytes));
  f.push_back(Field::u64("scheduler_decisions", scheduler_decisions));
  f.push_back(Field::i64("mean_decision_latency_ps", mean_decision_latency.ps()));
  f.push_back(Field::f64("delivery_ratio", delivery_ratio()));
  f.push_back(Field::u64("latency_count", latency.count()));
  f.push_back(Field::f64("latency_mean_ps", latency.mean()));
  f.push_back(Field::i64("latency_p50_ps", latency.p50()));
  f.push_back(Field::i64("latency_p99_ps", latency.p99()));
  f.push_back(Field::i64("latency_max_ps", latency.max()));
  f.push_back(Field::u64("latency_sensitive_count", latency_sensitive.count()));
  f.push_back(Field::f64("latency_sensitive_mean_ps", latency_sensitive.mean()));
  f.push_back(Field::i64("latency_sensitive_p99_ps", latency_sensitive.p99()));
  f.push_back(Field::u64("jitter_flows", jitter_us.count()));
  f.push_back(Field::f64("jitter_mean_us", jitter_us.mean()));
  f.push_back(Field::f64("jitter_max_us", jitter_us.max()));
  f.push_back(Field::u64("deadline_flows_met", deadline_flows_met));
  f.push_back(Field::u64("deadline_flows_missed", deadline_flows_missed));
  f.push_back(Field::f64("deadline_miss_ratio", deadline_miss_ratio()));
  f.push_back(Field::i64("goodput_before_deadline_bytes", goodput_before_deadline_bytes));
  f.push_back(Field::u64("fct_deadline_count", fct_deadline.count()));
  f.push_back(Field::f64("fct_deadline_mean_ps", fct_deadline.mean()));
  f.push_back(Field::i64("fct_deadline_p50_ps", fct_deadline.p50()));
  f.push_back(Field::i64("fct_deadline_p99_ps", fct_deadline.p99()));
  f.push_back(Field::i64("fct_deadline_max_ps", fct_deadline.max()));
  f.push_back(Field::u64("fct_other_count", fct_other.count()));
  f.push_back(Field::f64("fct_other_mean_ps", fct_other.mean()));
  f.push_back(Field::i64("fct_other_p99_ps", fct_other.p99()));
  f.push_back(Field::i64("intra_rack_bytes", intra_rack_bytes));
  f.push_back(Field::i64("cross_rack_bytes", cross_rack_bytes));
  f.push_back(Field::u64("fct_intra_rack_count", fct_intra_rack.count()));
  f.push_back(Field::f64("fct_intra_rack_mean_ps", fct_intra_rack.mean()));
  f.push_back(Field::i64("fct_intra_rack_p99_ps", fct_intra_rack.p99()));
  f.push_back(Field::u64("fct_cross_rack_count", fct_cross_rack.count()));
  f.push_back(Field::f64("fct_cross_rack_mean_ps", fct_cross_rack.mean()));
  f.push_back(Field::i64("fct_cross_rack_p99_ps", fct_cross_rack.p99()));
  f.push_back(Field::i64("core_link_bytes", core_link_bytes));
  f.push_back(Field::u64("core_drops", core_drops));
  f.push_back(Field::i64("peak_core_queue_bytes", peak_core_queue_bytes));
  f.push_back(Field::f64("core_utilization", core_utilization));
  return f;
}

std::string RunReport::to_json() const { return stats::to_json_object(fields()); }

std::string RunReport::csv_header() { return stats::csv_header(RunReport{}.fields()); }

std::string RunReport::csv_row() const { return stats::csv_row(fields()); }

std::string RunReport::summary() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "delivered %lld/%lld bytes (%.1f%%), ocs %lld, eps %lld, drops voq=%llu eps=%llu "
                "sync=%llu cut=%llu, reconfigs=%llu, latency %s",
                static_cast<long long>(delivered_bytes), static_cast<long long>(offered_bytes),
                delivery_ratio() * 100.0, static_cast<long long>(ocs_bytes),
                static_cast<long long>(eps_bytes), static_cast<unsigned long long>(voq_drops),
                static_cast<unsigned long long>(eps_drops),
                static_cast<unsigned long long>(sync_losses),
                static_cast<unsigned long long>(reconfig_cuts),
                static_cast<unsigned long long>(reconfigurations),
                latency.summary_time().c_str());
  return buf;
}

}  // namespace xdrs::core
