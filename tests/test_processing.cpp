// Tests for the processing logic: ingest/classify/enqueue, request
// generation, grant execution on both fabrics, bypass and skew behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/processing_logic.hpp"

namespace xdrs::core {
namespace {

using sim::Time;
using namespace xdrs::sim::literals;

struct Rig {
  explicit Rig(FrameworkConfig c) : cfg{c} {
    ocs = std::make_unique<switching::OpticalCircuitSwitch>(
        sim, switching::OcsConfig{cfg.ports, cfg.link_rate, cfg.ocs_reconfig,
                                  cfg.ocs_fabric_latency});
    eps = std::make_unique<switching::ElectricalPacketSwitch>(
        sim, switching::EpsConfig{cfg.ports, cfg.eps_rate, cfg.eps_latency,
                                  cfg.eps_buffer_bytes});
    sync = std::make_unique<control::SyncModel>(cfg.ports, cfg.sync);
    proc = std::make_unique<ProcessingLogic>(sim, cfg, classifier, *ocs, *eps, *sync, trace);
    ocs->set_deliver_callback(
        [this](const net::Packet& p, Time) { ocs_delivered.push_back(p); });
    eps->set_deliver_callback(
        [this](const net::Packet& p, net::PortId) { eps_delivered.push_back(p); });
  }

  FrameworkConfig cfg;
  sim::Simulator sim;
  sim::TraceRecorder trace;
  net::Classifier classifier;
  std::unique_ptr<switching::OpticalCircuitSwitch> ocs;
  std::unique_ptr<switching::ElectricalPacketSwitch> eps;
  std::unique_ptr<control::SyncModel> sync;
  std::unique_ptr<ProcessingLogic> proc;
  std::vector<net::Packet> ocs_delivered;
  std::vector<net::Packet> eps_delivered;
};

FrameworkConfig tor_config() {
  FrameworkConfig c;
  c.ports = 4;
  c.placement = BufferPlacement::kToRSwitch;
  c.link_latency = 500_ns;
  c.ocs_reconfig = 1_us;
  return c;
}

net::Packet pkt(net::PortId src, net::PortId dst, std::int64_t bytes,
                net::TrafficClass tc = net::TrafficClass::kBestEffort) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.size_bytes = bytes;
  p.tclass = tc;
  p.tuple.src_addr = src;
  p.tuple.dst_addr = dst;
  return p;
}

control::GrantSet ocs_grant(net::PortId src, net::PortId dst, std::int64_t bytes, Time from,
                            Time until) {
  control::GrantSet gs;
  control::Grant g;
  g.src = src;
  g.dst = dst;
  g.bytes = bytes;
  g.via = control::FabricPath::kOcs;
  g.valid_from = from;
  g.valid_until = until;
  gs.grants.push_back(g);
  return gs;
}

control::GrantSet eps_grant(net::PortId src, net::PortId dst, std::int64_t bytes, Time until) {
  control::GrantSet gs;
  control::Grant g;
  g.src = src;
  g.dst = dst;
  g.bytes = bytes;
  g.via = control::FabricPath::kEps;
  g.valid_until = until;
  gs.grants.push_back(g);
  return gs;
}

TEST(Processing, IngestEnqueuesAfterLinkLatencyInTorMode) {
  Rig rig{tor_config()};
  rig.proc->ingest(pkt(0, 1, 1500));
  EXPECT_EQ(rig.proc->voqs().total_packets(), 0);  // still on the wire
  rig.sim.run_until(600_ns);
  EXPECT_EQ(rig.proc->voqs().total_packets(), 1);
  EXPECT_EQ(rig.proc->voqs().bytes(0, 1), 1500);
}

TEST(Processing, IngressHopBytesCoverTheUplinkAndReturnToZero) {
  Rig rig{tor_config()};
  rig.proc->ingest(pkt(0, 1, 1500));
  rig.proc->ingest(pkt(1, 2, 500));
  rig.sim.run_until(100_ns);
  rig.proc->ingest(pkt(2, 3, 200, net::TrafficClass::kLatencySensitive));
  EXPECT_EQ(rig.proc->ingress_hop_bytes(), 2200);
  rig.sim.run_until(550_ns);  // the first two have reached the ToR
  EXPECT_EQ(rig.proc->ingress_hop_bytes(), 200);
  EXPECT_EQ(rig.proc->voqs().total_bytes(), 2000);
  rig.sim.run();
  EXPECT_EQ(rig.proc->ingress_hop_bytes(), 0);
  ASSERT_EQ(rig.eps_delivered.size(), 1u);
  EXPECT_EQ(rig.eps_delivered[0].size_bytes, 200);
}

TEST(Processing, HostModeEnqueuesImmediately) {
  FrameworkConfig c = tor_config();
  c.placement = BufferPlacement::kHost;
  Rig rig{c};
  rig.proc->ingest(pkt(0, 1, 1500));
  EXPECT_EQ(rig.proc->voqs().total_packets(), 1);
  EXPECT_EQ(rig.proc->ingress_hop_bytes(), 0);  // no uplink hop in this placement
}

TEST(Processing, EmitsRequestOnFirstEnqueue) {
  Rig rig{tor_config()};
  std::vector<control::SchedulingRequest> reqs;
  rig.proc->set_request_callback(
      [&](const control::SchedulingRequest& r) { reqs.push_back(r); });
  rig.proc->ingest(pkt(0, 1, 1500));
  rig.proc->ingest(pkt(0, 1, 1500));  // same VOQ: no second request
  rig.sim.run();
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].src, 0u);
  EXPECT_EQ(reqs[0].dst, 1u);
  EXPECT_EQ(reqs[0].backlog_bytes, 1500);
}

TEST(Processing, ArrivalCallbackFeedsEstimator) {
  Rig rig{tor_config()};
  std::int64_t seen = 0;
  rig.proc->set_arrival_callback(
      [&](net::PortId, net::PortId, std::int64_t b, Time) { seen += b; });
  rig.proc->ingest(pkt(0, 1, 1500));
  rig.proc->ingest(pkt(0, 2, 500));
  rig.sim.run();
  EXPECT_EQ(seen, 2000);
}

TEST(Processing, ClassifierRuleRedirectsVoq) {
  Rig rig{tor_config()};
  net::Rule r;
  r.dst_addr_value = 1;
  r.dst_addr_mask = 0xffffffff;
  r.verdict = net::Verdict{3, net::TrafficClass::kBestEffort};  // rewrite 1 -> 3
  rig.classifier.add_rule(r);
  rig.proc->ingest(pkt(0, 1, 1000));
  rig.sim.run();
  EXPECT_EQ(rig.proc->voqs().bytes(0, 3), 1000);
  EXPECT_EQ(rig.proc->voqs().bytes(0, 1), 0);
}

TEST(Processing, PacketsSharingATupleKeepTheirOwnClass) {
  // A composite scenario's incast and uniform halves emit the same
  // (src, dst, UDP, 0, 0) tuple in different classes.
  Rig rig{tor_config()};
  rig.proc->ingest(pkt(0, 2, 1000, net::TrafficClass::kThroughput));
  rig.proc->ingest(pkt(0, 2, 1000, net::TrafficClass::kBestEffort));
  rig.sim.run_until(1_us);
  rig.proc->handle_grants(eps_grant(0, 2, 10'000, rig.sim.now() + 1_ms));
  rig.sim.run();
  ASSERT_EQ(rig.eps_delivered.size(), 2u);
  EXPECT_EQ(rig.eps_delivered[0].tclass, net::TrafficClass::kThroughput);
  EXPECT_EQ(rig.eps_delivered[1].tclass, net::TrafficClass::kBestEffort);
}

TEST(Processing, LatencySensitiveBypassesVoqInTorMode) {
  Rig rig{tor_config()};
  rig.proc->ingest(pkt(0, 1, 200, net::TrafficClass::kLatencySensitive));
  rig.sim.run();
  EXPECT_EQ(rig.proc->voqs().total_packets(), 0);
  ASSERT_EQ(rig.eps_delivered.size(), 1u);
  EXPECT_EQ(rig.proc->stats().eps_bypass_packets, 1u);
}

TEST(Processing, LatencySensitiveWaitsForGrantInHostMode) {
  FrameworkConfig c = tor_config();
  c.placement = BufferPlacement::kHost;
  Rig rig{c};
  rig.proc->ingest(pkt(0, 1, 200, net::TrafficClass::kLatencySensitive));
  rig.sim.run();
  EXPECT_EQ(rig.proc->voqs().total_packets(), 1);  // grant-gated, not bypassed
  EXPECT_TRUE(rig.eps_delivered.empty());
}

TEST(Processing, OcsGrantDeliversOverCircuit) {
  Rig rig{tor_config()};
  rig.proc->ingest(pkt(0, 1, 1500));
  rig.sim.run_until(1_us);
  rig.ocs->reconfigure(schedulers::Matching::rotation(4, 1));
  rig.sim.run_until(3_us);  // circuit up

  rig.proc->handle_grants(ocs_grant(0, 1, 10'000, rig.sim.now(), rig.sim.now() + 100_us));
  rig.sim.run();
  ASSERT_EQ(rig.ocs_delivered.size(), 1u);
  EXPECT_EQ(rig.ocs_delivered[0].dst, 1u);
  EXPECT_EQ(rig.proc->voqs().total_packets(), 0);
  EXPECT_EQ(rig.proc->stats().granted_ocs_packets, 1u);
}

TEST(Processing, OcsGrantStopsAtByteBudget) {
  Rig rig{tor_config()};
  for (int i = 0; i < 5; ++i) rig.proc->ingest(pkt(0, 1, 1500));
  rig.sim.run_until(1_us);
  rig.ocs->reconfigure(schedulers::Matching::rotation(4, 1));
  rig.sim.run_until(3_us);

  // Budget covers only two packets.
  rig.proc->handle_grants(ocs_grant(0, 1, 3000, rig.sim.now(), rig.sim.now() + 1_ms));
  rig.sim.run();
  EXPECT_EQ(rig.ocs_delivered.size(), 2u);
  EXPECT_EQ(rig.proc->voqs().packets(0, 1), 3u);
}

TEST(Processing, OcsGrantStopsAtWindowEnd) {
  Rig rig{tor_config()};
  for (int i = 0; i < 100; ++i) rig.proc->ingest(pkt(0, 1, 1500));
  rig.sim.run_until(1_us);
  rig.ocs->reconfigure(schedulers::Matching::rotation(4, 1));
  rig.sim.run_until(3_us);

  // Window fits ~4 packets at 1216 ns each.
  const Time start = rig.sim.now();
  rig.proc->handle_grants(ocs_grant(0, 1, 1'000'000, start, start + 5'000_ns));
  rig.sim.run();
  EXPECT_GE(rig.ocs_delivered.size(), 3u);
  EXPECT_LE(rig.ocs_delivered.size(), 5u);
}

TEST(Processing, GrantBeforeWindowWaits) {
  Rig rig{tor_config()};
  rig.proc->ingest(pkt(0, 1, 1500));
  rig.sim.run_until(1_us);
  rig.ocs->reconfigure(schedulers::Matching::rotation(4, 1));
  rig.sim.run_until(3_us);

  const Time open = rig.sim.now() + 50_us;
  rig.proc->handle_grants(ocs_grant(0, 1, 10'000, open, open + 100_us));
  rig.sim.run_until(open - 1_us);
  EXPECT_TRUE(rig.ocs_delivered.empty());  // window not open yet
  rig.sim.run();
  EXPECT_EQ(rig.ocs_delivered.size(), 1u);
}

TEST(Processing, LaunchIntoDarknessCountsSyncLoss) {
  FrameworkConfig c = tor_config();
  c.eps_fallback_on_miss = false;
  Rig rig{c};
  rig.proc->ingest(pkt(0, 1, 1500));
  rig.sim.run_until(1_us);
  // No circuit configured at all; grant anyway (mimics overlap ablation).
  rig.proc->handle_grants(ocs_grant(0, 1, 10'000, rig.sim.now(), rig.sim.now() + 10_us));
  rig.sim.run();
  EXPECT_TRUE(rig.ocs_delivered.empty());
  EXPECT_EQ(rig.proc->stats().sync_losses, 1u);
  EXPECT_EQ(rig.proc->stats().sync_lost_bytes, 1500);
}

TEST(Processing, MissedWindowFallsBackToEpsWhenEnabled) {
  FrameworkConfig c = tor_config();
  c.eps_fallback_on_miss = true;
  Rig rig{c};
  rig.proc->ingest(pkt(0, 1, 1500));
  rig.sim.run_until(1_us);
  rig.proc->handle_grants(ocs_grant(0, 1, 10'000, rig.sim.now(), rig.sim.now() + 10_us));
  rig.sim.run();
  EXPECT_EQ(rig.proc->stats().sync_losses, 1u);
  ASSERT_EQ(rig.eps_delivered.size(), 1u);  // diverted, not lost
  EXPECT_EQ(rig.proc->stats().sync_lost_bytes, 0);
}

TEST(Processing, EpsGrantDrainsVoq) {
  Rig rig{tor_config()};
  for (int i = 0; i < 3; ++i) rig.proc->ingest(pkt(0, 2, 1000));
  rig.sim.run_until(1_us);
  rig.proc->handle_grants(eps_grant(0, 2, 10'000, rig.sim.now() + 1_ms));
  rig.sim.run();
  EXPECT_EQ(rig.eps_delivered.size(), 3u);
  EXPECT_EQ(rig.proc->stats().granted_eps_packets, 3u);
}

TEST(Processing, EpsGrantsQueuePerInput) {
  Rig rig{tor_config()};
  rig.proc->ingest(pkt(0, 1, 1000));
  rig.proc->ingest(pkt(0, 2, 1000));
  rig.sim.run_until(1_us);
  rig.proc->handle_grants(eps_grant(0, 1, 5'000, rig.sim.now() + 1_ms));
  rig.proc->handle_grants(eps_grant(0, 2, 5'000, rig.sim.now() + 1_ms));
  rig.sim.run();
  EXPECT_EQ(rig.eps_delivered.size(), 2u);
}

TEST(Processing, RevokeAllGrantsStopsService) {
  Rig rig{tor_config()};
  for (int i = 0; i < 10; ++i) rig.proc->ingest(pkt(0, 1, 1500));
  rig.sim.run_until(1_us);
  rig.proc->handle_grants(eps_grant(0, 1, 100'000, rig.sim.now() + 1_ms));
  rig.proc->revoke_all_grants();
  rig.sim.run();
  // At most the one packet already being serialised escapes.
  EXPECT_LE(rig.eps_delivered.size(), 1u);
}

TEST(Processing, HostSkewShiftsLaunchTime) {
  FrameworkConfig c = tor_config();
  c.placement = BufferPlacement::kHost;
  c.sync.max_skew = 5_us;
  c.sync.seed = 12345;
  Rig rig{c};

  rig.proc->ingest(pkt(0, 1, 1500));
  rig.ocs->reconfigure(schedulers::Matching::rotation(4, 1));
  rig.sim.run_until(2_us);

  const Time open = 10_us;
  rig.proc->handle_grants(ocs_grant(0, 1, 10'000, open, open + 500_us));
  rig.sim.run();
  const Time offset = rig.sync->offset_of(0);
  if (offset > Time::zero()) {
    // Host acts late; the packet still goes through (window is long).
    ASSERT_EQ(rig.ocs_delivered.size(), 1u);
  }
  // Whatever the sign of the offset, nothing is lost with a long window.
  EXPECT_EQ(rig.proc->stats().sync_losses + rig.ocs_delivered.size(), 1u);
}

TEST(Processing, SkewWithoutFallbackLosesTheBytesLaunchedIntoDarkness) {
  // Host-buffered with skewed clocks and no EPS fallback.  The input whose
  // clock runs earliest launches before its circuit is up, so its first
  // packets go into darkness; every byte is either delivered over the
  // circuit or counted as lost to sync.
  for (const bool fallback : {false, true}) {
    FrameworkConfig c = tor_config();
    c.placement = BufferPlacement::kHost;
    c.ocs_reconfig = 10_us;
    c.sync.max_skew = 5_us;
    c.sync.seed = 12345;
    c.eps_fallback_on_miss = fallback;
    Rig rig{c};
    net::PortId early = 0;
    for (net::PortId p = 1; p < c.ports; ++p) {
      if (rig.sync->offset_of(p) < rig.sync->offset_of(early)) early = p;
    }
    ASSERT_LT(rig.sync->offset_of(early), Time::zero());
    const net::PortId dst = (early + 1) % c.ports;  // rotation(4, 1)

    std::int64_t ingested = 0;
    for (const std::int64_t bytes : {1500, 700, 1200, 300}) {
      rig.proc->ingest(pkt(early, dst, bytes));
      ingested += bytes;
    }
    rig.sim.run_until(1_us);
    rig.ocs->reconfigure(schedulers::Matching::rotation(4, 1));  // up at 11 us
    const Time up = rig.sim.now() + c.ocs_reconfig;
    rig.proc->handle_grants(ocs_grant(early, dst, 100'000, up, up + 500_us));
    rig.sim.run();

    std::int64_t delivered = 0;
    for (const net::Packet& p : rig.ocs_delivered) delivered += p.size_bytes;
    for (const net::Packet& p : rig.eps_delivered) delivered += p.size_bytes;
    const ProcessingStats& st = rig.proc->stats();
    EXPECT_GT(st.sync_losses, 0u) << "fallback " << fallback;
    if (fallback) {
      EXPECT_EQ(st.sync_lost_bytes, 0);  // every missed packet took the EPS
      EXPECT_EQ(delivered, ingested);
    } else {
      EXPECT_GT(st.sync_lost_bytes, 0);
      EXPECT_TRUE(rig.eps_delivered.empty());
      EXPECT_EQ(delivered + st.sync_lost_bytes, ingested);
    }
  }
}

// ---- one OCS service chain per input ---------------------------------------
// A host may launch only when its OCS wire is free, inside its grant's
// window; each input keeps at most one pending OCS wake-up.

/// Host-buffered rig: `ingest` enqueues at once, so a burst lands in the
/// VOQ at one instant.
Rig host_rig_with_circuit(Time max_skew = Time::zero()) {
  FrameworkConfig c = tor_config();
  c.placement = BufferPlacement::kHost;
  c.sync.max_skew = max_skew;
  c.sync.seed = 12345;
  return Rig{c};
}

/// Records each OCS delivery's real start of transmission (delivery time
/// less serialisation and fabric propagation) in `starts`.
void record_ocs_starts(Rig& rig, std::vector<Time>& starts) {
  rig.ocs->set_deliver_callback([&rig, &starts](const net::Packet& p, Time) {
    const Time tx = rig.cfg.link_rate.transmission_time(p.size_bytes + sim::kWireOverheadBytes);
    starts.push_back(rig.sim.now() - rig.cfg.ocs_fabric_latency - tx);
    rig.ocs_delivered.push_back(p);
  });
}

TEST(ProcessingOcsChain, BurstDuringOpenWindowKeepsOneChain) {
  Rig rig = host_rig_with_circuit();
  rig.ocs->reconfigure(schedulers::Matching::rotation(4, 1));
  rig.sim.run_until(3_us);
  rig.proc->ingest(pkt(0, 1, 1500));
  rig.proc->handle_grants(ocs_grant(0, 1, 1'000'000, rig.sim.now(), rig.sim.now() + 1_ms));
  // The first packet is on the wire: its delivery and the input's one
  // wake-up are pending.
  const std::size_t base = rig.sim.pending_events();
  constexpr int kBurst = 20;
  for (int i = 0; i < kBurst; ++i) rig.proc->ingest(pkt(0, 1, 1500));
  // The wire is busy, so nothing may be dequeued and no chain may start.
  EXPECT_LE(rig.sim.pending_events(), base + 2);
  EXPECT_EQ(rig.proc->voqs().packets(0, 1), static_cast<std::size_t>(kBurst));
  // As the chain advances, input 0 never has more outstanding than its one
  // wake-up and two packets on the fabric (one serialising, one still
  // propagating through the 100 ns fabric).
  while (rig.sim.now() < 1_ms && rig.proc->voqs().packets(0, 1) > 0) {
    rig.sim.run_until(rig.sim.now() + 100_ns);
    EXPECT_LE(rig.sim.pending_events(), 3u);
  }
  rig.sim.run();
  EXPECT_EQ(rig.ocs_delivered.size(), static_cast<std::size_t>(kBurst + 1));
}

TEST(ProcessingOcsChain, EveryTransmissionFitsItsWindowInTheHostClock) {
  Rig rig = host_rig_with_circuit(5_us);
  const Time offset = rig.sync->offset_of(0);
  std::vector<Time> starts;
  record_ocs_starts(rig, starts);
  rig.ocs->reconfigure(schedulers::Matching::rotation(4, 1));
  rig.sim.run_until(3_us);

  // The window (in the host's clock) fits four 1216 ns transmissions.
  const Time open = 50_us;
  const Time until = open + 5'000_ns;
  rig.proc->ingest(pkt(0, 1, 1500));
  rig.proc->handle_grants(ocs_grant(0, 1, 1'000'000, open, until));
  rig.sim.run_until(open + offset + 100_ns);
  ASSERT_EQ(rig.proc->voqs().packets(0, 1), 0u);  // the first is on the wire
  for (int i = 0; i < 10; ++i) rig.proc->ingest(pkt(0, 1, 1500));
  rig.sim.run();

  const Time tx = rig.cfg.link_rate.transmission_time(1500 + sim::kWireOverheadBytes);
  ASSERT_EQ(starts.size(), 4u);
  for (const Time s : starts) {
    EXPECT_GE(s - offset, open);
    EXPECT_LE(s - offset + tx, until);
  }
  EXPECT_EQ(rig.proc->voqs().packets(0, 1), 7u);  // the rest wait for a grant
}

TEST(ProcessingOcsChain, DepartureFiresAtTheRealStartOfTransmission) {
  Rig rig = host_rig_with_circuit();
  std::vector<Time> starts;
  std::vector<Time> departures;
  record_ocs_starts(rig, starts);
  rig.proc->set_departure_callback(
      [&](net::PortId, net::PortId, std::int64_t, Time at) { departures.push_back(at); });
  rig.ocs->reconfigure(schedulers::Matching::rotation(4, 1));
  rig.sim.run_until(3_us);

  rig.proc->ingest(pkt(0, 1, 1500));
  rig.proc->handle_grants(ocs_grant(0, 1, 1'000'000, rig.sim.now(), rig.sim.now() + 1_ms));
  rig.sim.run_until(rig.sim.now() + 100_ns);
  for (int i = 0; i < 5; ++i) rig.proc->ingest(pkt(0, 1, 1500));
  rig.sim.run();

  ASSERT_EQ(starts.size(), 6u);
  EXPECT_EQ(departures, starts);
}

TEST(ProcessingOcsChain, SupersedingGrantIsServedFromItsOwnWindow) {
  Rig rig = host_rig_with_circuit();
  std::vector<Time> starts;
  record_ocs_starts(rig, starts);
  rig.ocs->reconfigure(schedulers::Matching::rotation(4, 1));
  rig.sim.run_until(3_us);

  rig.proc->ingest(pkt(0, 1, 1500));
  // The first grant leaves a wake-up pending at its 50 us window; the
  // second opens at 10 us and must not wait for it.
  rig.proc->handle_grants(ocs_grant(0, 1, 10'000, 50_us, 150_us));
  rig.proc->handle_grants(ocs_grant(0, 1, 10'000, 10_us, 150_us));
  EXPECT_EQ(rig.sim.pending_events(), 1u);  // moved, not duplicated
  rig.sim.run();
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], 10_us);
}

// ---- one EPS wire per input --------------------------------------------------
// Granted, bypass and miss-fallback packets share the input's EPS wire, and
// granted traffic leaves its VOQ only when that wire is empty.

TEST(ProcessingEpsWire, HostGrantedPacketsStartBackToBack) {
  // The wire is free again once the last bit is sent; the host link's
  // propagation runs behind it and must not idle the wire.
  FrameworkConfig c = tor_config();
  c.placement = BufferPlacement::kHost;
  Rig rig{c};
  std::vector<Time> departures;
  std::vector<Time> delivered_at;
  rig.proc->set_departure_callback(
      [&](net::PortId, net::PortId, std::int64_t, Time at) { departures.push_back(at); });
  rig.eps->set_deliver_callback(
      [&](const net::Packet&, net::PortId) { delivered_at.push_back(rig.sim.now()); });
  constexpr int kPackets = 4;
  for (int i = 0; i < kPackets; ++i) rig.proc->ingest(pkt(0, 2, 1500));
  rig.sim.run_until(1_us);
  rig.proc->handle_grants(eps_grant(0, 2, 100'000, rig.sim.now() + 1_ms));
  rig.sim.run();

  const Time tx = c.eps_rate.transmission_time(1500 + sim::kWireOverheadBytes);
  ASSERT_EQ(departures.size(), static_cast<std::size_t>(kPackets));
  ASSERT_EQ(delivered_at.size(), static_cast<std::size_t>(kPackets));
  EXPECT_EQ(departures[0], 1_us);
  for (std::size_t k = 1; k < departures.size(); ++k) {
    EXPECT_EQ(departures[k] - departures[k - 1], tx) << k;
    EXPECT_EQ(delivered_at[k] - delivered_at[k - 1], tx) << k;
  }
  // Host wire, host link, EPS port serialisation, EPS fabric.
  EXPECT_EQ(delivered_at[0], departures[0] + tx + c.link_latency + tx + c.eps_latency);
}

TEST(ProcessingEpsWire, GrantedDepartureWaitsForABypassPacketOnTheWire) {
  Rig rig{tor_config()};
  std::vector<Time> departures;
  rig.proc->set_departure_callback(
      [&](net::PortId, net::PortId, std::int64_t, Time at) { departures.push_back(at); });
  rig.proc->ingest(pkt(0, 2, 1500));  // into VOQ (0, 2) at 500 ns
  rig.sim.run_until(1_us);
  // A latency-sensitive packet bypasses the VOQs and takes the wire at 1.5 us.
  rig.proc->ingest(pkt(0, 1, 1500, net::TrafficClass::kLatencySensitive));
  rig.sim.run_until(1_us + tor_config().link_latency + 100_ns);
  rig.proc->handle_grants(eps_grant(0, 2, 10'000, rig.sim.now() + 1_ms));
  EXPECT_EQ(rig.proc->voqs().packets(0, 2), 1u);  // the wire is busy
  EXPECT_TRUE(departures.empty());
  rig.sim.run();

  const Time tx = rig.cfg.eps_rate.transmission_time(1500 + sim::kWireOverheadBytes);
  ASSERT_EQ(departures.size(), 1u);
  EXPECT_EQ(departures[0], 1_us + rig.cfg.link_latency + tx);
  ASSERT_EQ(rig.eps_delivered.size(), 2u);
  EXPECT_EQ(rig.eps_delivered[0].dst, 1u);
  EXPECT_EQ(rig.eps_delivered[1].dst, 2u);
}

TEST(Processing, StatsCountIngest) {
  Rig rig{tor_config()};
  rig.proc->ingest(pkt(0, 1, 1500));
  rig.proc->ingest(pkt(1, 2, 500));
  EXPECT_EQ(rig.proc->stats().ingested_packets, 2u);
  EXPECT_EQ(rig.proc->stats().ingested_bytes, 2000);
}

}  // namespace
}  // namespace xdrs::core
