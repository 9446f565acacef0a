// Tests for the optical circuit switch model: dark periods, circuit
// connectivity, serialisation pacing and cut-by-reconfiguration semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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
      [&](const net::Packet&, net::PortId) { deliveries.push_back(sim.now().ps()); });
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
  ocs.set_deliver_callback([&](const net::Packet&, net::PortId) { ++delivered; });
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
      [&](const net::Packet&, net::PortId) { deliveries.push_back(sim.now()); });
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
  ocs.set_deliver_callback([&](const net::Packet& p, net::PortId out) {
    EXPECT_EQ(out, p.dst);
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
  ocs.set_deliver_callback([&](const net::Packet& p, net::PortId) { ids.push_back(p.id); });
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

TEST(Ocs, CompletedPacketIsNotCut) {
  sim::Simulator sim;
  OpticalCircuitSwitch ocs{sim, base_config()};
  ocs.reconfigure(schedulers::Matching::rotation(4, 1));
  sim.run_until(1_us);

  int delivered = 0;
  ocs.set_deliver_callback([&](const net::Packet&, net::PortId) { ++delivered; });
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
