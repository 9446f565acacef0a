// Tests for topo::DrainQueue, the rate-limited FIFO the fat-tree core tier
// is built from: the rate cap, the finite buffer, peak tracking, FIFO order
// and propagation latency pipelined behind serialisation.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "topo/drain_queue.hpp"

namespace xdrs::topo {
namespace {

using sim::DataRate;
using sim::Time;
using namespace xdrs::sim::literals;

constexpr std::int64_t kPacketBytes = 1500;

net::Packet packet(std::uint64_t id, std::int64_t bytes = kPacketBytes) {
  net::Packet p;
  p.id = id;
  p.size_bytes = bytes;
  return p;
}

/// Poisson arrivals of fixed-size packets offered into a queue from t = 0
/// until `until`, at `rate` on the wire (payload plus per-packet overhead,
/// the same bytes the queue serialises).
struct PoissonSource {
  sim::Simulator& sim;
  DrainQueue& queue;
  DataRate rate;
  Time until;
  sim::Rng rng;
  std::uint64_t offered{0};

  void arm() {
    const double mean_gap_ps = static_cast<double>(
        rate.transmission_time(kPacketBytes + sim::kWireOverheadBytes).ps());
    const auto gap = Time::picoseconds(static_cast<std::int64_t>(rng.exponential(mean_gap_ps)));
    sim.schedule(gap, [this] {
      if (sim.now() >= until) return;
      (void)queue.offer(packet(++offered));
      arm();
    });
  }
};

DrainQueue::Config config(DataRate rate, std::int64_t buffer_bytes, Time latency = Time::zero()) {
  DrainQueue::Config c;
  c.rate = rate;
  c.buffer_bytes = buffer_bytes;
  c.latency = latency;
  return c;
}

TEST(DrainQueue, RejectsMisuse) {
  EXPECT_THROW(DrainQueue{config(DataRate{}, 0)}, std::invalid_argument);
  DrainQueue q{config(DataRate::gbps(10), 0)};
  EXPECT_THROW((void)q.offer(packet(1)), std::logic_error);  // not attached
  sim::Simulator sim;
  EXPECT_THROW(q.attach(sim, {}), std::invalid_argument);
}

TEST(DrainQueue, OverloadIsCappedAtTheDrainRate) {
  // 36 Gbps offered onto a 10 Gbps drain: 3.6:1 overload.  The queue never
  // empties after the first arrival, so the wire runs at its rate and no
  // faster.
  sim::Simulator sim;
  DrainQueue q{config(DataRate::gbps(10), 1 << 20)};
  std::uint64_t delivered = 0;
  q.attach(sim, [&](const net::Packet&) {
    if (sim.now() <= 5_ms) ++delivered;  // exclude the tail flush
  });
  PoissonSource src{sim, q, DataRate::gbps(36), 5_ms, sim::Rng{5}};
  src.arm();
  sim.run();

  const double wire_bits =
      static_cast<double>(delivered) * (kPacketBytes + sim::kWireOverheadBytes) * 8.0;
  const double gbps = wire_bits / 0.005 / 1e9;
  EXPECT_LE(gbps, 10.0);
  EXPECT_GT(gbps, 9.9);
}

TEST(DrainQueue, FiniteBufferFillsToItsBoundAndDrops) {
  const std::int64_t buffer = 1 << 20;
  sim::Simulator sim;
  DrainQueue q{config(DataRate::gbps(10), buffer)};
  q.attach(sim, [](const net::Packet&) {});
  PoissonSource src{sim, q, DataRate::gbps(36), 5_ms, sim::Rng{5}};
  src.arm();
  sim.run();

  EXPECT_GT(q.peak_queue_bytes(), buffer - kPacketBytes);
  EXPECT_LE(q.peak_queue_bytes(), buffer);
  EXPECT_GT(q.drops(), 0u);
  // Every offered packet was either forwarded or dropped; nothing is left.
  EXPECT_EQ(q.queue_bytes(), 0);
  EXPECT_EQ(q.forwarded_packets() + q.drops(), src.offered);
  EXPECT_EQ(q.forwarded_bytes(), static_cast<std::int64_t>(q.forwarded_packets()) * kPacketBytes);
}

TEST(DrainQueue, MatchedRateKeepsTheQueueShallow) {
  // 20 Gbps of Poisson arrivals onto a 40 Gbps drain: the FIFO only absorbs
  // arrival coincidences.
  sim::Simulator sim;
  DrainQueue q{config(DataRate::gbps(40), 4 << 20)};
  q.attach(sim, [](const net::Packet&) {});
  PoissonSource src{sim, q, DataRate::gbps(20), 5_ms, sim::Rng{5}};
  src.arm();
  sim.run();

  EXPECT_GT(src.offered, 1000u);
  EXPECT_LT(q.peak_queue_bytes(), 64 * 1024);
  EXPECT_EQ(q.drops(), 0u);
  EXPECT_EQ(q.forwarded_packets(), src.offered);
}

TEST(DrainQueue, ResetPeakRestartsAtTheCurrentOccupancy) {
  sim::Simulator sim;
  DrainQueue q{config(DataRate::gbps(10), 0)};
  q.attach(sim, [](const net::Packet&) {});
  for (std::uint64_t i = 1; i <= 10; ++i) ASSERT_TRUE(q.offer(packet(i)));
  EXPECT_EQ(q.peak_queue_bytes(), 10 * kPacketBytes);

  // Three packets finish serialising; the peak still remembers all ten.
  const Time tx = DataRate::gbps(10).transmission_time(kPacketBytes + sim::kWireOverheadBytes);
  sim.run_until(tx * 3 + 1_ns);
  EXPECT_EQ(q.queue_bytes(), 7 * kPacketBytes);
  EXPECT_EQ(q.peak_queue_bytes(), 10 * kPacketBytes);

  q.reset_peak();
  EXPECT_EQ(q.peak_queue_bytes(), 7 * kPacketBytes);
  // Draining never raises it; a new high-water mark does.
  sim.run();
  EXPECT_EQ(q.peak_queue_bytes(), 7 * kPacketBytes);
  q.reset_peak();
  EXPECT_EQ(q.peak_queue_bytes(), 0);
  ASSERT_TRUE(q.offer(packet(11)));
  EXPECT_EQ(q.peak_queue_bytes(), kPacketBytes);
}

TEST(DrainQueue, DeliversInFifoOrder) {
  sim::Simulator sim;
  DrainQueue q{config(DataRate::gbps(10), 0)};
  std::vector<std::uint64_t> order;
  q.attach(sim, [&](const net::Packet& p) { order.push_back(p.id); });
  // Mixed sizes: a short packet behind a long one still waits its turn.
  const std::vector<std::int64_t> sizes{9000, 64, 1500, 64, 9000, 200};
  for (std::size_t i = 0; i < sizes.size(); ++i) ASSERT_TRUE(q.offer(packet(i + 1, sizes[i])));
  sim.schedule(1_us, [&] { (void)q.offer(packet(7, 64)); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(DrainQueue, LatencyIsAddedAfterSerialisationAndPipelined) {
  // The same burst through an inline queue (latency 0) and a 5 us one:
  // every packet arrives exactly 5 us later, not 5 us per packet, and the
  // inline queue delivers each packet the moment its last bit is sent.
  const auto delivery_times = [](Time latency) {
    sim::Simulator sim;
    DrainQueue q{config(DataRate::gbps(10), 0, latency)};
    std::vector<Time> at;
    q.attach(sim, [&](const net::Packet&) { at.push_back(sim.now()); });
    for (std::uint64_t i = 1; i <= 5; ++i) EXPECT_TRUE(q.offer(packet(i)));
    sim.run();
    return at;
  };
  const std::vector<Time> inline_at = delivery_times(Time::zero());
  const std::vector<Time> delayed_at = delivery_times(5_us);
  ASSERT_EQ(inline_at.size(), 5u);
  ASSERT_EQ(delayed_at.size(), 5u);
  const Time tx = DataRate::gbps(10).transmission_time(kPacketBytes + sim::kWireOverheadBytes);
  for (std::size_t i = 0; i < inline_at.size(); ++i) {
    EXPECT_EQ(inline_at[i], tx * static_cast<std::int64_t>(i + 1)) << i;
    EXPECT_EQ(delayed_at[i], inline_at[i] + 5_us) << i;
  }
}

}  // namespace
}  // namespace xdrs::topo
