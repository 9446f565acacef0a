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
      inputs_(cfg.ports),
      ingress_{sim, cfg.link_latency, [this](const net::Packet& p) { arrive_at_tor(p); }} {
  // Unbounded: the VOQ bank, not the wire, is where an input buffers.
  const queueing::DrainQueue::Config wire{
      cfg.eps_rate, 0,
      cfg.placement == BufferPlacement::kHost ? cfg.link_latency : Time::zero()};
  eps_wires_.reserve(cfg.ports);
  for (net::PortId i = 0; i < cfg.ports; ++i) {
    eps_wires_.emplace_back(wire);
    eps_wires_.back().attach(
        sim, [this](const net::Packet& p) { eps_.send(p); }, [this, i] { pump_eps(i); });
  }
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

void ProcessingLogic::ingest(const net::Packet& p, const Rewrite* rewrite) {
  ++stats_.ingested_packets;
  stats_.ingested_bytes += p.size_bytes;
  const auto arrive = [&](net::Packet& q) -> net::Packet& {
    if (rewrite != nullptr) (*rewrite)(q);
    trace_.record(sim_.now(), TraceCategory::kPacketArrival, q.src, q.dst);
    return classify(q);
  };

  if (cfg_.placement == BufferPlacement::kToRSwitch) {
    // Packets traverse the host uplink before reaching switch VOQs.
    ingress_bytes_ += arrive(ingress_.push(p)).size_bytes;
  } else {
    // Host-buffered: ALL traffic waits in host queues for a grant — "packets
    // stored in the host can be passed to the switch only at appropriate
    // times, upon a grant from the scheduler" (§2).
    net::Packet pkt = p;
    enqueue(arrive(pkt));
  }
}

net::Packet& ProcessingLogic::classify(net::Packet& p) {
  // Look-up rules may retarget the VOQ / service class.
  const net::Verdict v = classifier_.classify(p, net::Verdict{p.dst, p.tclass});
  p.dst = v.out_port;
  p.tclass = v.tclass;
  return p;
}

void ProcessingLogic::arrive_at_tor(const net::Packet& p) {
  ingress_bytes_ -= p.size_bytes;
  if (p.tclass == net::TrafficClass::kLatencySensitive) {
    // Mice / interactive traffic never waits for circuits: straight to the
    // packet switch (possible precisely because buffering and forwarding
    // happen inside the ToR in this placement).
    ++stats_.eps_bypass_packets;
    eps_wires_[p.src].offer(p);
    return;
  }
  enqueue(p);
}

void ProcessingLogic::enqueue(const net::Packet& p) {
  const net::PortId input = p.src;
  if (voqs_.enqueue(input, p)) {
    trace_.record(sim_.now(), TraceCategory::kEnqueue, input, p.dst);
    if (arrival_cb_) arrival_cb_(input, p.dst, p.size_bytes, sim_.now());
    if (deadline_cb_ && !p.deadline.is_zero()) deadline_cb_(input, p.dst, p.deadline, sim_.now());
    // An open OCS window idles on an empty VOQ with no wake-up armed: this
    // packet can start service now.  In every other case the input's chain
    // is already waiting for its window or its wire.
    const InputState& st = inputs_[input];
    if (st.ocs_grant.has_value() && !st.ocs_wake.valid() && st.ocs_grant->dst == p.dst) {
      pump_ocs(input);
    }
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

  if (st.ocs_remaining <= 0) {
    st.ocs_grant.reset();
    cancel_ocs_wake(input);
    return;
  }
  // The host acts when *its* clock reads the window times; physical time is
  // shifted by its offset.  It launches only onto a free wire, so `now` is
  // the real start of every transmission below.
  const Time start = std::max({g.valid_from + offset, st.ocs_tx_until, ocs_.port_free_at(input)});
  if (now < start) {
    wake_ocs_at(input, start);
    return;
  }
  const net::Packet* head = voqs_.peek(input, g.dst);
  if (head == nullptr) {
    cancel_ocs_wake(input);  // idle: the next arrival for g.dst re-pumps
    return;
  }

  const Time tx = cfg_.link_rate.transmission_time(head->size_bytes + sim::kWireOverheadBytes);
  if (now - offset + tx > g.valid_until) {
    // The host believes the window is over (possibly wrongly, under skew).
    st.ocs_grant.reset();
    cancel_ocs_wake(input);
    return;
  }

  // `p` lives in the VOQ node just freed: nothing below enqueues into the
  // bank, so it holds until the OCS or the wire has copied it.
  const net::Packet& p = *voqs_.dequeue(input, g.dst);
  if (departure_cb_) departure_cb_(input, g.dst, p.size_bytes, now);
  trace_.record(now, TraceCategory::kDequeue, input, g.dst);
  ++stats_.granted_ocs_packets;
  st.ocs_tx_until = now + tx;

  if (ocs_.send(input, p).has_value()) {
    st.ocs_remaining -= p.size_bytes;
  } else {
    // No live circuit: the host launched into darkness or a stale circuit
    // (clock skew, or configure/grant overlap ablation).
    ++stats_.sync_losses;
    trace_.record(now, TraceCategory::kDrop, input, g.dst);
    if (cfg_.eps_fallback_on_miss) {
      eps_wires_[input].offer(p);
    } else {
      stats_.sync_lost_bytes += p.size_bytes;
    }
  }
  wake_ocs_at(input, st.ocs_tx_until);
}

void ProcessingLogic::wake_ocs_at(net::PortId input, Time at) {
  InputState& st = inputs_[input];
  if (st.ocs_wake.valid()) {
    if (st.ocs_wake_at == at) return;
    sim_.cancel(st.ocs_wake);
  }
  st.ocs_wake_at = at;
  st.ocs_wake = sim_.schedule_at(at, [this, input] {
    inputs_[input].ocs_wake = {};
    pump_ocs(input);
  });
}

void ProcessingLogic::cancel_ocs_wake(net::PortId input) {
  InputState& st = inputs_[input];
  if (!st.ocs_wake.valid()) return;
  sim_.cancel(st.ocs_wake);
  st.ocs_wake = {};
}

void ProcessingLogic::pump_eps(net::PortId input) {
  // A packet still serialising (granted, bypass or fallback) holds the wire.
  if (eps_wires_[input].queue_packets() > 0) return;
  InputState& st = inputs_[input];
  const Time now = sim_.now();

  // Retire exhausted / expired / empty-backlog grants.
  while (!st.eps_grants.empty()) {
    EpsGrant& eg = st.eps_grants.front();
    const bool expired = (now - host_offset(input)) >= eg.grant.valid_until;
    if (eg.remaining <= 0 || expired || voqs_.empty(input, eg.grant.dst)) {
      st.eps_grants.pop_front();
      continue;
    }
    break;
  }
  if (st.eps_grants.empty()) return;

  EpsGrant& eg = st.eps_grants.front();
  const net::Packet& p = *voqs_.dequeue(input, eg.grant.dst);  // held until offered
  eg.remaining -= p.size_bytes;
  if (departure_cb_) departure_cb_(input, eg.grant.dst, p.size_bytes, now);
  trace_.record(now, TraceCategory::kDequeue, input, eg.grant.dst);
  ++stats_.granted_eps_packets;
  eps_wires_[input].offer(p);
}

}  // namespace xdrs::core
