#include "core/flow_tracker.hpp"

#include <algorithm>

namespace xdrs::core {

void FlowCompletionTracker::on_deliver(const net::Packet& p, sim::Time at) {
  if (p.flow_bytes <= 0) return;
  FlowState& st = flows_[net::FlowKey::of(p)];
  st.first_created = std::min(st.first_created, p.created_at);
  st.deadline = p.deadline;
  st.flow_bytes = p.flow_bytes;
  st.delivered += p.size_bytes;
  st.last_delivered = std::max(st.last_delivered, at);
  st.crossed_core = st.crossed_core || p.remote;
  if (!p.deadline.is_zero() && at <= p.deadline) st.bytes_before_deadline += p.size_bytes;
  if (st.completed_at.is_zero() && st.delivered >= st.flow_bytes) {
    st.completed_at = st.last_delivered;
  }
}

void FlowCompletionTracker::finalize(sim::Time measure_start, sim::Time end,
                                     RunReport& report) const {
  for (const auto& [key, st] : flows_) {
    // Flows that began before the window (warmup stragglers) are excluded,
    // mirroring the delivered-bytes accounting: their early packets were
    // never counted, so their byte totals could not be trusted anyway.
    if (st.first_created < measure_start) continue;
    const bool has_deadline = !st.deadline.is_zero();
    if (has_deadline) report.goodput_before_deadline_bytes += st.bytes_before_deadline;
    if (!st.completed_at.is_zero()) {
      const sim::Time fct = st.completed_at - st.first_created;
      (has_deadline ? report.fct_deadline : report.fct_other).record_time(fct);
      // Locality split: in a fat-tree the completion-time behaviour of
      // rack-local and core-crossing flows diverges, so they get their own
      // distributions (single-switch runs are all intra-rack).
      (st.crossed_core ? report.fct_cross_rack : report.fct_intra_rack).record_time(fct);
      if (has_deadline) {
        if (st.completed_at <= st.deadline) {
          ++report.deadline_flows_met;
        } else {
          ++report.deadline_flows_missed;
        }
      }
    } else if (has_deadline && st.deadline < end) {
      // Unfinished with the deadline already expired: a definite miss.
      // (Unfinished with deadline >= end is censored, not counted.)
      ++report.deadline_flows_missed;
    }
  }
}

}  // namespace xdrs::core
