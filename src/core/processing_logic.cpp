#include "core/processing_logic.hpp"

#include <algorithm>

namespace xdrs::core {

using sim::Time;
using sim::TraceCategory;

ProcessingLogic::ProcessingLogic(sim::Simulator& sim, const FrameworkConfig& cfg,
                                 net::Classifier& classifier,
                                 switching::OpticalCircuitSwitch& ocs,
                                 switching::ElectricalPacketSwitch& eps,
                                 control::SyncModel& sync, sim::TraceRecorder& trace)
    : sim_{sim},
      cfg_{cfg},
      classifier_{classifier},
      ocs_{ocs},
      eps_{eps},
      sync_{sync},
      trace_{trace},
      voqs_{cfg.ports, cfg.ports, cfg.voq_limits},
      inputs_(cfg.ports) {
  voqs_.set_status_callback(
      [this](net::PortId input, net::PortId output, queueing::VoqStatus status) {
        if (status != queueing::VoqStatus::kBecameNonEmpty) return;
        if (request_cb_) {
          control::SchedulingRequest req;
          req.src = input;
          req.dst = output;
          req.backlog_bytes = voqs_.bytes(input, output);
          req.issued_at = sim_.now();
          request_cb_(req);
        }
        trace_.record(sim_.now(), TraceCategory::kRequest, input, output);
      });
}

sim::Time ProcessingLogic::host_offset(net::PortId input) const {
  return cfg_.placement == BufferPlacement::kHost ? sync_.offset_of(input) : Time::zero();
}

void ProcessingLogic::ingest(const net::Packet& p) {
  ++stats_.ingested_packets;
  stats_.ingested_bytes += p.size_bytes;
  trace_.record(sim_.now(), TraceCategory::kPacketArrival, p.src, p.dst);

  // Classification: look-up rules may retarget the VOQ / service class.
  net::Packet pkt = p;
  const net::Verdict fallback{p.dst, p.tclass};
  const net::Verdict v = classifier_.classify(pkt, fallback);
  pkt.dst = v.out_port;
  pkt.tclass = v.tclass;

  if (cfg_.placement == BufferPlacement::kToRSwitch) {
    // Packets traverse the host uplink before reaching switch VOQs.
    sim_.schedule(cfg_.link_latency, [this, pkt]() mutable {
      if (cfg_.latency_sensitive_to_eps &&
          pkt.tclass == net::TrafficClass::kLatencySensitive) {
        // Mice / interactive traffic never waits for circuits: straight to
        // the packet switch (possible precisely because buffering and
        // forwarding happen inside the ToR in this placement).
        ++stats_.eps_bypass_packets;
        send_eps_paced(pkt.src, pkt);
        return;
      }
      enqueue(pkt);
    });
  } else {
    // Host-buffered: ALL traffic waits in host queues for a grant — "packets
    // stored in the host can be passed to the switch only at appropriate
    // times, upon a grant from the scheduler" (§2).
    enqueue(pkt);
  }
}

void ProcessingLogic::enqueue(const net::Packet& p) {
  const net::PortId input = p.src;
  if (voqs_.enqueue(input, p)) {
    trace_.record(sim_.now(), TraceCategory::kEnqueue, input, p.dst);
    if (arrival_cb_) arrival_cb_(input, p.dst, p.size_bytes, sim_.now());
    if (deadline_cb_ && !p.deadline.is_zero()) deadline_cb_(input, p.dst, p.deadline, sim_.now());
    // A sleeping OCS window may be waiting for exactly this backlog.
    pump_ocs(input);
    pump_eps(input);
  } else {
    trace_.record(sim_.now(), TraceCategory::kDrop, input, p.dst);
  }
}

void ProcessingLogic::handle_grants(const control::GrantSet& gs) {
  for (const control::Grant& g : gs.grants) {
    trace_.record(sim_.now(), TraceCategory::kGrant, g.src, g.dst);
    InputState& st = inputs_[g.src];
    if (g.via == control::FabricPath::kOcs) {
      // A new circuit grant supersedes the previous window for this input.
      st.ocs_grant = g;
      st.ocs_remaining = g.bytes;
      pump_ocs(g.src);
    } else {
      st.eps_grants.push_back(EpsGrant{g, g.bytes});
      pump_eps(g.src);
    }
  }
}

void ProcessingLogic::revoke_all_grants() {
  for (InputState& st : inputs_) {
    st.ocs_grant.reset();
    st.ocs_remaining = 0;
    st.eps_grants.clear();
  }
}

void ProcessingLogic::pump_ocs(net::PortId input) {
  InputState& st = inputs_[input];
  if (!st.ocs_grant.has_value()) return;
  const control::Grant& g = *st.ocs_grant;
  const Time offset = host_offset(input);
  const Time now = sim_.now();

  // The host acts when *its* clock reads the window times; physical time is
  // shifted by its offset.
  const Time window_open_physical = g.valid_from + offset;
  if (now < window_open_physical) {
    if (!st.ocs_pump_waiting) {
      st.ocs_pump_waiting = true;
      sim_.schedule_at(window_open_physical, [this, input] {
        inputs_[input].ocs_pump_waiting = false;
        pump_ocs(input);
      });
    }
    return;
  }

  if (st.ocs_remaining <= 0) {
    st.ocs_grant.reset();
    return;
  }
  const net::Packet* head = voqs_.peek(input, g.dst);
  if (head == nullptr) return;  // new arrivals will re-pump

  const Time tx = cfg_.link_rate.transmission_time(head->size_bytes + sim::kWireOverheadBytes);
  const Time perceived_now = now - offset;
  if (perceived_now + tx > g.valid_until) {
    // The host believes the window is over (possibly wrongly, under skew).
    st.ocs_grant.reset();
    return;
  }

  net::Packet p = *voqs_.dequeue(input, g.dst);
  if (departure_cb_) departure_cb_(input, g.dst, p.size_bytes, now);
  trace_.record(now, TraceCategory::kDequeue, input, g.dst);
  ++stats_.granted_ocs_packets;

  const auto delivered = ocs_.send(input, p);
  if (!delivered.has_value()) {
    // No live circuit: the host launched into darkness or a stale circuit
    // (clock skew, or configure/grant overlap ablation).
    ++stats_.sync_losses;
    trace_.record(now, TraceCategory::kDrop, input, g.dst);
    if (cfg_.eps_fallback_on_miss) {
      send_eps_paced(input, p);
    }
    // The host still believes the transmission took tx.
    sim_.schedule(tx, [this, input] { pump_ocs(input); });
    return;
  }
  st.ocs_remaining -= p.size_bytes;
  const Time next_free = ocs_.port_free_at(input);
  sim_.schedule_at(next_free, [this, input] { pump_ocs(input); });
}

void ProcessingLogic::pump_eps(net::PortId input) {
  InputState& st = inputs_[input];
  if (st.eps_pumping) return;

  // Retire exhausted / expired / empty-backlog grants.
  while (!st.eps_grants.empty()) {
    EpsGrant& eg = st.eps_grants.front();
    const Time offset = host_offset(input);
    const bool expired = (sim_.now() - offset) >= eg.grant.valid_until;
    if (eg.remaining <= 0 || expired || voqs_.empty(input, eg.grant.dst)) {
      st.eps_grants.pop_front();
      continue;
    }
    break;
  }
  if (st.eps_grants.empty()) return;

  EpsGrant& eg = st.eps_grants.front();
  net::Packet p = *voqs_.dequeue(input, eg.grant.dst);
  eg.remaining -= p.size_bytes;
  if (departure_cb_) departure_cb_(input, eg.grant.dst, p.size_bytes, sim_.now());
  trace_.record(sim_.now(), TraceCategory::kDequeue, input, eg.grant.dst);
  ++stats_.granted_eps_packets;

  st.eps_pumping = true;
  const Time tx = cfg_.eps_rate.transmission_time(p.size_bytes + sim::kWireOverheadBytes);
  const Time start = std::max(sim_.now(), st.eps_busy_until);
  st.eps_busy_until = start + tx;
  const Time link = cfg_.placement == BufferPlacement::kHost ? cfg_.link_latency : Time::zero();
  sim_.schedule_at(start + tx + link, [this, input, p] {
    eps_.send(p);
    inputs_[input].eps_pumping = false;
    pump_eps(input);
  });
}

void ProcessingLogic::send_eps_paced(net::PortId input, const net::Packet& p) {
  InputState& st = inputs_[input];
  const Time tx = cfg_.eps_rate.transmission_time(p.size_bytes + sim::kWireOverheadBytes);
  const Time start = std::max(sim_.now(), st.eps_busy_until);
  st.eps_busy_until = start + tx;
  sim_.schedule_at(start + tx, [this, p] { eps_.send(p); });
}

}  // namespace xdrs::core
