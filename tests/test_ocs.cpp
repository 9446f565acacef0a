// Tests for the optical circuit switch model: dark periods, circuit
// connectivity, serialisation pacing and cut-by-reconfiguration semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/trace.hpp"
#include "switching/ocs.hpp"

namespace xdrs::switching {
namespace {

using sim::Time;
using namespace xdrs::sim::literals;

OcsConfig base_config() {
  OcsConfig c;
  c.ports = 4;
  c.port_rate = sim::DataRate::gbps(10);
  c.reconfig_time = 1_us;
  c.fabric_latency = 100_ns;
  return c;
}

net::Packet pkt(net::PortId src, net::PortId dst, std::int64_t bytes) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.size_bytes = bytes;
  return p;
}

TEST(Ocs, ValidatesConfig) {
  sim::Simulator sim;
  OcsConfig c = base_config();
  c.ports = 0;
  EXPECT_THROW(OpticalCircuitSwitch(sim, c), std::invalid_argument);
  c = base_config();
  c.port_rate = sim::DataRate{};
  EXPECT_THROW(OpticalCircuitSwitch(sim, c), std::invalid_argument);
}

TEST(Ocs, StartsWithNoCircuits) {
  sim::Simulator sim;
  OpticalCircuitSwitch ocs{sim, base_config()};
  EXPECT_FALSE(ocs.is_dark());
  for (net::PortId i = 0; i < 4; ++i) {
    for (net::PortId j = 0; j < 4; ++j) EXPECT_FALSE(ocs.circuit_up(i, j));
  }
}

TEST(Ocs, DarkDuringReconfiguration) {
  sim::Simulator sim;
  OpticalCircuitSwitch ocs{sim, base_config()};
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  EXPECT_TRUE(ocs.is_dark());
  EXPECT_FALSE(ocs.circuit_up(0, 1));  // configured but still dark
  sim.run_until(2_us);
  EXPECT_FALSE(ocs.is_dark());
  EXPECT_TRUE(ocs.circuit_up(0, 1));
  EXPECT_FALSE(ocs.circuit_up(0, 2));
}

TEST(Ocs, ConfiguredCallbackFiresAfterDarkTime) {
  sim::Simulator sim;
  OpticalCircuitSwitch ocs{sim, base_config()};
  std::vector<std::int64_t> stamps;
  ocs.set_configured_callback(
      [&](const schedulers::Matching&) { stamps.push_back(sim.now().ps()); });
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  sim.run();
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_EQ(stamps[0], (1_us).ps());
}

TEST(Ocs, SendRequiresCircuit) {
  sim::Simulator sim;
  OpticalCircuitSwitch ocs{sim, base_config()};
  EXPECT_FALSE(ocs.send(0, pkt(0, 1, 1500)).has_value());  // no circuit at all
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  EXPECT_FALSE(ocs.send(0, pkt(0, 1, 1500)).has_value());  // dark
  sim.run_until(1_us);
  EXPECT_TRUE(ocs.send(0, pkt(0, 1, 1500)).has_value());   // circuit up
  EXPECT_FALSE(ocs.send(0, pkt(0, 2, 1500)).has_value());  // wrong destination
}

TEST(Ocs, DeliveryTimingIncludesSerialisationAndLatency) {
  sim::Simulator sim;
  OpticalCircuitSwitch ocs{sim, base_config()};
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  sim.run_until(1_us);

  std::vector<std::int64_t> deliveries;
  ocs.set_deliver_callback(
      [&](const net::Packet&, Time) { deliveries.push_back(sim.now().ps()); });
  // 1500 + 20 B at 10 Gbps = 1216 ns serialisation + 100 ns fabric latency.
  const auto at = ocs.send(0, pkt(0, 1, 1500));
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(*at, sim.now() + Time::nanoseconds(1216) + 100_ns);
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], at->ps());
}

TEST(Ocs, BackToBackSendsAreSerialised) {
  sim::Simulator sim;
  OpticalCircuitSwitch ocs{sim, base_config()};
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  sim.run_until(1_us);
  const auto first = ocs.send(0, pkt(0, 1, 1500));
  const auto second = ocs.send(0, pkt(0, 1, 1500));
  ASSERT_TRUE(first && second);
  EXPECT_EQ(*second - *first, Time::nanoseconds(1216));
  EXPECT_GT(ocs.port_free_at(0), sim.now());
}

TEST(Ocs, ReconfigurationCutsInFlightPacket) {
  sim::Simulator sim;
  OpticalCircuitSwitch ocs{sim, base_config()};
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  sim.run_until(1_us);

  int delivered = 0;
  ocs.set_deliver_callback([&](const net::Packet&, Time) { ++delivered; });
  ASSERT_TRUE(ocs.send(0, pkt(0, 1, 1500)).has_value());
  // Retune while the packet is still serialising: it must be lost.
  ocs.reconfigure(schedulers::Matching::rotation(4, 2));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ocs.stats().packets_cut_by_reconfig, 1u);
}

TEST(Ocs, ReconfigurationCutsEveryPacketStillOnTheFabric) {
  // A long fabric leaves several packets of one input propagating at once;
  // none sent before the retune may arrive after it.
  sim::Simulator sim;
  OcsConfig c = base_config();
  c.fabric_latency = 5_us;
  OpticalCircuitSwitch ocs{sim, c};
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  sim.run_until(1_us);

  std::vector<Time> deliveries;
  ocs.set_deliver_callback(
      [&](const net::Packet&, Time) { deliveries.push_back(sim.now()); });
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ocs.send(0, pkt(0, 1, 1500)).has_value());
    sim.run_until(ocs.port_free_at(0));  // the wire is free again
  }
  const Time cut = sim.now();
  ocs.reconfigure(schedulers::Matching::rotation(4, 2));
  sim.run();
  for (const Time t : deliveries) EXPECT_LE(t, cut);
  EXPECT_EQ(deliveries.size() + ocs.stats().packets_cut_by_reconfig, 4u);
  EXPECT_EQ(ocs.stats().packets_cut_by_reconfig, 4u);  // 4 x 1216 ns < 5 us
}

TEST(Ocs, RetuneCutCountsTheBytesItCuts) {
  // Packets of three sizes, sent back to back on a 2 us fabric: the retune
  // lands after the first has arrived, so it cuts the other two, and the
  // cut bytes are exactly theirs.
  sim::Simulator sim;
  OcsConfig c = base_config();
  c.fabric_latency = 2_us;
  OpticalCircuitSwitch ocs{sim, c};
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  sim.run_until(1_us);

  std::int64_t delivered_bytes = 0;
  ocs.set_deliver_callback([&](const net::Packet& p, Time) { delivered_bytes += p.size_bytes; });
  std::int64_t sent_bytes = 0;
  for (const std::int64_t bytes : {1500, 400, 900}) {
    ASSERT_TRUE(ocs.send(0, pkt(0, 1, bytes)).has_value());
    sent_bytes += bytes;
    sim.run_until(ocs.port_free_at(0));
  }
  // The first packet (1,216 ns on the wire) arrives 3.216 us after its
  // launch at 1 us; the second and third are still in flight.
  sim.run_until(4'300_ns);
  ocs.reconfigure(schedulers::Matching::rotation(4, 2));
  sim.run();
  EXPECT_EQ(ocs.stats().packets_cut_by_reconfig, 2u);
  EXPECT_EQ(ocs.stats().bytes_cut_by_reconfig, 400 + 900);
  EXPECT_EQ(delivered_bytes, 1500);
  EXPECT_EQ(delivered_bytes + ocs.stats().bytes_cut_by_reconfig, sent_bytes);
}

TEST(Ocs, RetuneCutsExactlyTheSendsStillDueToDeliver) {
  // Six back-to-back sends on input 0 and two on input 2, with a 5 us
  // fabric.  The retune fires at input 0's second delivery time, before
  // that delivery (it was scheduled first): the first send has arrived, the
  // second is due at this instant and must still arrive, and every later
  // send, on either input, is cut.
  sim::Simulator sim;
  OcsConfig c = base_config();
  c.fabric_latency = 5_us;
  OpticalCircuitSwitch ocs{sim, c};
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  sim.run_until(1_us);

  const auto tx = [&c](std::int64_t bytes) {
    return c.port_rate.transmission_time(bytes + sim::kWireOverheadBytes);
  };
  const Time cut_at = sim.now() + tx(100) + tx(200) + c.fabric_latency;
  std::int64_t in_flight_at_cut = -1;
  sim.schedule_at(cut_at, [&] {
    ocs.reconfigure(schedulers::Matching::rotation(4, 2));
    in_flight_at_cut = ocs.in_flight_bytes();
  });

  std::vector<std::uint64_t> delivered;
  ocs.set_deliver_callback([&](const net::Packet& p, Time at) {
    EXPECT_EQ(at, sim.now());
    delivered.push_back(p.id);
  });
  std::int64_t sent_bytes = 0;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    net::Packet p = pkt(0, 1, 100 * static_cast<std::int64_t>(id));
    p.id = id;
    const auto at = ocs.send(0, p);
    ASSERT_TRUE(at.has_value());
    if (id == 2) {
      EXPECT_EQ(*at, cut_at);
    }
    sent_bytes += p.size_bytes;
  }
  for (std::uint64_t id = 7; id <= 8; ++id) {
    net::Packet p = pkt(2, 3, 1000);
    p.id = id;
    const auto at = ocs.send(2, p);
    ASSERT_TRUE(at.has_value());
    EXPECT_GT(*at, cut_at);
    sent_bytes += p.size_bytes;
  }
  EXPECT_EQ(ocs.in_flight_bytes(), sent_bytes);

  sim.run();
  EXPECT_EQ(ocs.stats().packets_cut_by_reconfig, 6u);  // 3-6 and 7-8
  EXPECT_EQ(in_flight_at_cut, 200);                     // packet 2, due now
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(ocs.stats().bytes_delivered, 300);
  EXPECT_EQ(ocs.in_flight_bytes(), 0);
}

TEST(Ocs, InFlightBytesReturnToZeroOnceDelivered) {
  sim::Simulator sim;
  OpticalCircuitSwitch ocs{sim, base_config()};
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  sim.run_until(1_us);
  std::vector<std::uint64_t> ids;
  ocs.set_deliver_callback([&](const net::Packet& p, Time) { ids.push_back(p.id); });
  for (net::PortId in = 0; in < 4; ++in) {
    for (std::uint64_t k = 0; k < 3; ++k) {
      net::Packet p = pkt(in, (in + 1) % 4, 64 + static_cast<std::int64_t>(k));
      p.id = in * 10 + k;
      ASSERT_TRUE(ocs.send(in, p).has_value());
    }
  }
  EXPECT_EQ(ocs.in_flight_bytes(), 4 * (64 + 65 + 66));
  sim.run();
  EXPECT_EQ(ocs.in_flight_bytes(), 0);
  ASSERT_EQ(ids.size(), 12u);
  // Each input's packets arrive in the order it sent them.
  for (net::PortId in = 0; in < 4; ++in) {
    std::vector<std::uint64_t> mine;
    for (const std::uint64_t id : ids) {
      if (id / 10 == in) mine.push_back(id);
    }
    EXPECT_EQ(mine, (std::vector<std::uint64_t>{in * 10, in * 10 + 1, in * 10 + 2}));
  }
}

// ---- deferred deliveries ---------------------------------------------------

/// A 4-port OCS with circuits i -> i+1 up at 1 us, deferring deliveries to
/// outputs 0-2 (output 3 stands for an uplink), and a log of deliveries.
struct DeferringOcs {
  explicit DeferringOcs(OcsConfig c = base_config()) : cfg{c}, ocs{sim, c} {
    ocs.defer_deliveries(3, &trace);
    ocs.set_deliver_callback([this](const net::Packet& p, Time at) {
      log.push_back({p.id, at, sim.now()});
    });
    ocs.reconfigure(schedulers::Matching::rotation(4, 1));
    sim.run_until(1_us);
  }

  /// Sends packet `id` of `bytes` from `in` to in + 1; returns its delivery time.
  Time send(net::PortId in, std::uint64_t id, std::int64_t bytes = 1500,
            net::TrafficClass tclass = net::TrafficClass::kThroughput) {
    net::Packet p = pkt(in, (in + 1) % 4, bytes);
    p.id = id;
    p.tclass = tclass;
    const auto at = ocs.send(in, p);
    EXPECT_TRUE(at.has_value());
    return at.value_or(Time::zero());
  }

  struct Delivery {
    std::uint64_t id;
    Time at;       ///< the delivery time handed over
    Time settled;  ///< the simulated time of the hand-over
  };

  OcsConfig cfg;
  sim::Simulator sim;
  sim::TraceRecorder trace;
  OpticalCircuitSwitch ocs;
  std::vector<Delivery> log;
};

TEST(OcsDeferred, HostBoundSendsScheduleNoEventButUplinkAndUrgentOnesDo) {
  DeferringOcs d;
  const std::size_t base = d.sim.pending_events();
  (void)d.send(0, 1);  // to output 1: deferred
  (void)d.send(1, 2);  // to output 2: deferred
  EXPECT_EQ(d.sim.pending_events(), base);
  (void)d.send(2, 3);  // to output 3, the first evented output
  EXPECT_EQ(d.sim.pending_events(), base + 1);
  (void)d.send(0, 4, 200, net::TrafficClass::kLatencySensitive);
  EXPECT_EQ(d.sim.pending_events(), base + 2);
  d.trace.enable();
  (void)d.send(1, 5);  // a host-bound send while tracing keeps its event
  EXPECT_EQ(d.sim.pending_events(), base + 3);
}

TEST(OcsDeferred, SettleAllDeliversExactlyTheSendsDueInSendOrderWithTheirOwnTimes) {
  DeferringOcs d;
  constexpr net::PortId kInputs[] = {0, 1, 3};  // to outputs 1, 2 and 0
  std::vector<std::pair<std::uint64_t, Time>> sent;  // (id, delivery time)
  for (std::uint64_t k = 0; k < 4; ++k) {
    for (const net::PortId in : kInputs) {
      const std::uint64_t id = 10 * in + k;
      sent.emplace_back(id, d.send(in, id, 100 + 300 * static_cast<std::int64_t>(in)));
    }
  }
  std::vector<Time> times;
  for (const auto& s : sent) times.push_back(s.second);
  std::sort(times.begin(), times.end());
  ASSERT_LT(times[3], times[4]);
  // A time strictly between deliveries, then one that equals a delivery.
  const Time between = times[3] + Time::picoseconds(1);
  const Time exact = times[7];
  for (const Time t : {between, exact}) {
    d.ocs.settle_all(t);
    std::vector<std::uint64_t> due;
    for (const auto& [id, at] : sent) {
      if (at <= t) due.push_back(id);
    }
    std::vector<std::uint64_t> got;
    for (const auto& e : d.log) got.push_back(e.id);
    std::sort(got.begin(), got.end());
    std::sort(due.begin(), due.end());
    EXPECT_EQ(got, due) << "settled to " << t.to_string();
  }
  d.ocs.settle_all(Time::max());
  ASSERT_EQ(d.log.size(), sent.size());
  for (const auto& e : d.log) {
    const auto it = std::find_if(sent.begin(), sent.end(),
                                 [&e](const auto& s) { return s.first == e.id; });
    EXPECT_EQ(e.at, it->second);   // its own delivery time ...
    EXPECT_EQ(e.settled, d.sim.now());  // ... handed over without the clock moving
  }
  // Each input's packets arrive in the order it sent them.
  for (const net::PortId in : kInputs) {
    std::vector<std::uint64_t> mine;
    for (const auto& e : d.log) {
      if (e.id / 10 == in) mine.push_back(e.id);
    }
    EXPECT_EQ(mine, (std::vector<std::uint64_t>{10 * in, 10 * in + 1, 10 * in + 2, 10 * in + 3}));
  }
  EXPECT_EQ(d.ocs.stats().packets_delivered, sent.size());
}

TEST(OcsDeferred, InFlightBytesReturnToZeroAfterSettling) {
  DeferringOcs d;
  std::int64_t bytes = 0;
  Time last = Time::zero();
  for (net::PortId in = 0; in < 4; ++in) {
    for (std::uint64_t k = 0; k < 3; ++k) {
      const std::int64_t b = 64 + static_cast<std::int64_t>(10 * in + k);
      last = std::max(last, d.send(in, 10 * in + k, b));
      bytes += b;
    }
  }
  EXPECT_EQ(d.ocs.in_flight_bytes(), bytes);
  d.sim.run();  // only input 2's sends, to output 3, have events
  EXPECT_EQ(d.ocs.in_flight_bytes(), bytes - (84 + 85 + 86));
  d.ocs.settle_all(last);
  EXPECT_EQ(d.ocs.in_flight_bytes(), 0);
  EXPECT_EQ(d.ocs.stats().bytes_delivered, bytes);
}

TEST(OcsDeferred, DeferredSendCutByARetuneIsNeverDeliveredAndCountsAsACut) {
  OcsConfig c = base_config();
  c.fabric_latency = 5_us;
  DeferringOcs d{c};
  std::vector<Time> due;
  for (std::uint64_t id = 1; id <= 4; ++id) due.push_back(d.send(0, id));
  // Retune once the first two have arrived: the first two settle, the
  // other two are cut.
  const Time cut_at = due[1];
  d.sim.schedule_at(cut_at, [&d] { d.ocs.reconfigure(schedulers::Matching::rotation(4, 2)); });
  d.sim.run();
  d.ocs.settle_all(Time::max());
  ASSERT_EQ(d.log.size(), 2u);
  EXPECT_EQ(d.log[0].id, 1u);
  EXPECT_EQ(d.log[1].id, 2u);
  EXPECT_EQ(d.log[1].at, cut_at);
  EXPECT_EQ(d.ocs.stats().packets_cut_by_reconfig, 2u);
  EXPECT_EQ(d.ocs.stats().packets_delivered, 2u);
  EXPECT_EQ(d.ocs.in_flight_bytes(), 0);
}

TEST(OcsDeferred, AnEventedDeliverySettlesTheDeferredSendsAheadOfIt) {
  DeferringOcs d;
  const Time first = d.send(0, 1);
  const Time urgent = d.send(0, 2, 200, net::TrafficClass::kLatencySensitive);
  d.sim.run();
  ASSERT_EQ(d.log.size(), 2u);
  EXPECT_EQ(d.log[0].id, 1u);
  EXPECT_EQ(d.log[0].at, first);
  EXPECT_EQ(d.log[0].settled, urgent);  // settled by packet 2's event
  EXPECT_EQ(d.log[1].id, 2u);
  EXPECT_EQ(d.log[1].at, urgent);
  EXPECT_EQ(d.log[1].settled, urgent);
}

TEST(OcsDeferred, SettleToNowSeesADeliveryAtNowOnlyIfItsEventWouldHaveFiredFirst) {
  // An event at time T scheduled before the send fires before the send's
  // would-be delivery event at T; one scheduled after the send fires after.
  DeferringOcs d;
  const Time at = d.sim.now() + d.cfg.port_rate.transmission_time(1500 + sim::kWireOverheadBytes) +
                  d.cfg.fabric_latency;
  std::size_t seen_before = 99;
  std::size_t seen_after = 99;
  d.sim.schedule_at(at, [&] {
    d.ocs.settle_to_now();
    seen_before = d.log.size();
  });
  EXPECT_EQ(d.send(0, 1), at);
  d.sim.schedule_at(at, [&] {
    d.ocs.settle_to_now();
    seen_after = d.log.size();
  });
  d.sim.run();
  EXPECT_EQ(seen_before, 0u);
  EXPECT_EQ(seen_after, 1u);
  // Outside a run every delivery due by now has happened.
  DeferringOcs e;
  const Time due = e.send(0, 1);
  e.sim.run_until(due);
  e.ocs.settle_to_now();
  EXPECT_EQ(e.log.size(), 1u);
}

TEST(Ocs, CompletedPacketIsNotCut) {
  sim::Simulator sim;
  OpticalCircuitSwitch ocs{sim, base_config()};
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  sim.run_until(1_us);

  int delivered = 0;
  ocs.set_deliver_callback([&](const net::Packet&, Time) { ++delivered; });
  ASSERT_TRUE(ocs.send(0, pkt(0, 1, 64)).has_value());
  sim.run_until(10_us);  // delivery completes
  ocs.reconfigure(schedulers::Matching::rotation(4, 2));
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(ocs.stats().packets_cut_by_reconfig, 0u);
}

TEST(Ocs, ReconfigureWhileDarkRestartsDarkPeriod) {
  sim::Simulator sim;
  OpticalCircuitSwitch ocs{sim, base_config()};
  int configured = 0;
  ocs.set_configured_callback([&](const schedulers::Matching&) { ++configured; });
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  sim.run_until(500_ns);  // halfway through the dark period
  ocs.reconfigure(schedulers::Matching::rotation(4, 2));
  sim.run_until(1200_ns);
  EXPECT_TRUE(ocs.is_dark());  // restarted: up at 1.5 us, not 1 us
  EXPECT_EQ(configured, 0);
  sim.run();
  EXPECT_EQ(configured, 1);
  EXPECT_TRUE(ocs.circuit_up(0, 2));
}

TEST(Ocs, StatsAccumulate) {
  sim::Simulator sim;
  OpticalCircuitSwitch ocs{sim, base_config()};
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  sim.run_until(1_us);
  (void)ocs.send(0, pkt(0, 1, 1000));
  sim.run();
  EXPECT_EQ(ocs.stats().reconfigurations, 1u);
  EXPECT_EQ(ocs.stats().dark_time_total, 1_us);
  EXPECT_EQ(ocs.stats().packets_delivered, 1u);
  EXPECT_EQ(ocs.stats().bytes_delivered, 1000);
  EXPECT_GT(ocs.stats().busy_time_total, Time::zero());
}

TEST(Ocs, ZeroReconfigTimeActsAsCrossbar) {
  sim::Simulator sim;
  OcsConfig c = base_config();
  c.reconfig_time = Time::zero();
  OpticalCircuitSwitch ocs{sim, c};
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  sim.run();  // zero-delay configured event
  EXPECT_FALSE(ocs.is_dark());
  EXPECT_TRUE(ocs.circuit_up(0, 1));
}

TEST(Ocs, DimensionMismatchThrows) {
  sim::Simulator sim;
  OpticalCircuitSwitch ocs{sim, base_config()};
  EXPECT_THROW(ocs.reconfigure(schedulers::Matching::rotation(5, 1)), std::invalid_argument);
  EXPECT_THROW((void)ocs.circuit_up(4, 0), std::out_of_range);
  EXPECT_THROW((void)ocs.port_free_at(9), std::out_of_range);
}

}  // namespace
}  // namespace xdrs::switching
