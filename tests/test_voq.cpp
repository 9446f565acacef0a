// Tests for the VOQ bank: exact accounting, admission limits, status
// callbacks and peak tracking (the Figure 1 measurement).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <deque>
#include <string>
#include <tuple>
#include <vector>

#include "queueing/voq.hpp"
#include "sim/random.hpp"

namespace xdrs::queueing {
namespace {

net::Packet pkt(net::PortId src, net::PortId dst, std::int64_t bytes, std::uint64_t id = 0) {
  net::Packet p;
  p.id = id;
  p.src = src;
  p.dst = dst;
  p.size_bytes = bytes;
  return p;
}

TEST(VoqBank, ConstructionValidation) {
  EXPECT_THROW(VoqBank(0, 4), std::invalid_argument);
  EXPECT_THROW(VoqBank(4, 0), std::invalid_argument);
}

TEST(VoqBank, EnqueueDequeueFifo) {
  VoqBank b{2, 2};
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 100, 1)));
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 200, 2)));
  const net::Packet* first = b.dequeue(0, 1);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, 1u);
  const net::Packet* second = b.dequeue(0, 1);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->id, 2u);
  EXPECT_EQ(b.dequeue(0, 1), nullptr);
}

TEST(VoqBank, ByteAndPacketAccounting) {
  VoqBank b{2, 3};
  (void)b.enqueue(0, pkt(0, 1, 100));
  (void)b.enqueue(0, pkt(0, 2, 50));
  (void)b.enqueue(1, pkt(1, 0, 25));
  EXPECT_EQ(b.bytes(0, 1), 100);
  EXPECT_EQ(b.bytes(0, 2), 50);
  EXPECT_EQ(b.input_bytes(0), 150);
  EXPECT_EQ(b.input_bytes(1), 25);
  EXPECT_EQ(b.total_bytes(), 175);
  EXPECT_EQ(b.total_packets(), 3);
  (void)b.dequeue(0, 1);
  EXPECT_EQ(b.total_bytes(), 75);
  EXPECT_EQ(b.input_bytes(0), 50);
}

TEST(VoqBank, PeekDoesNotRemove) {
  VoqBank b{1, 2};
  (void)b.enqueue(0, pkt(0, 1, 100, 42));
  const net::Packet* head = b.peek(0, 1);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->id, 42u);
  EXPECT_EQ(b.packets(0, 1), 1u);
  EXPECT_EQ(b.peek(0, 0), nullptr);
}

TEST(VoqBank, PerVoqByteLimitDrops) {
  VoqLimits lim;
  lim.max_bytes_per_voq = 250;
  VoqBank b{1, 2, lim};
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 200)));
  EXPECT_FALSE(b.enqueue(0, pkt(0, 1, 100)));  // would exceed 250
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 50)));
  EXPECT_EQ(b.stats().dropped_packets, 1u);
  EXPECT_EQ(b.stats().dropped_bytes, 100);
}

TEST(VoqBank, PerVoqPacketLimitDrops) {
  VoqLimits lim;
  lim.max_packets_per_voq = 2;
  VoqBank b{1, 2, lim};
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 10)));
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 10)));
  EXPECT_FALSE(b.enqueue(0, pkt(0, 1, 10)));
  // A different VOQ of the same input is unaffected.
  EXPECT_TRUE(b.enqueue(0, pkt(0, 0, 10)));
}

TEST(VoqBank, SharedBufferLimitDrops) {
  VoqLimits lim;
  lim.shared_buffer_bytes = 300;
  VoqBank b{2, 2, lim};
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 200)));
  EXPECT_TRUE(b.enqueue(1, pkt(1, 0, 100)));
  EXPECT_FALSE(b.enqueue(0, pkt(0, 0, 1)));  // bank full
  (void)b.dequeue(1, 0);
  EXPECT_TRUE(b.enqueue(0, pkt(0, 0, 1)));
}

TEST(VoqBank, StatusCallbackOnTransitions) {
  VoqBank b{2, 2};
  std::vector<std::tuple<net::PortId, net::PortId, VoqStatus>> events;
  b.set_status_callback([&](net::PortId i, net::PortId j, VoqStatus s) {
    events.emplace_back(i, j, s);
  });
  (void)b.enqueue(0, pkt(0, 1, 10));  // empty -> non-empty
  (void)b.enqueue(0, pkt(0, 1, 10));  // no transition
  (void)b.dequeue(0, 1);              // no transition
  (void)b.dequeue(0, 1);              // non-empty -> empty
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(std::get<2>(events[0]), VoqStatus::kBecameNonEmpty);
  EXPECT_EQ(std::get<2>(events[1]), VoqStatus::kBecameEmpty);
}

TEST(VoqBank, DroppedPacketDoesNotFireCallback) {
  VoqLimits lim;
  lim.max_packets_per_voq = 1;
  VoqBank b{1, 2, lim};
  int calls = 0;
  b.set_status_callback([&](net::PortId, net::PortId, VoqStatus) { ++calls; });
  (void)b.enqueue(0, pkt(0, 1, 10));
  (void)b.enqueue(0, pkt(0, 1, 10));  // dropped
  EXPECT_EQ(calls, 1);
}

TEST(VoqBank, PeakTracking) {
  VoqBank b{2, 2};
  (void)b.enqueue(0, pkt(0, 1, 100));
  (void)b.enqueue(1, pkt(1, 0, 300));
  (void)b.dequeue(1, 0);
  EXPECT_EQ(b.stats().peak_total_bytes, 400);
  EXPECT_EQ(b.peak_input_bytes(0), 100);
  EXPECT_EQ(b.peak_input_bytes(1), 300);
  EXPECT_EQ(b.total_bytes(), 100);
}

TEST(VoqBank, ResetPeaksToCurrentOccupancy) {
  VoqBank b{1, 2};
  (void)b.enqueue(0, pkt(0, 1, 500));
  (void)b.dequeue(0, 1);
  (void)b.enqueue(0, pkt(0, 1, 50));
  b.reset_peaks();
  EXPECT_EQ(b.stats().peak_total_bytes, 50);
  EXPECT_EQ(b.peak_input_bytes(0), 50);
}

TEST(VoqBank, MaxVoqBytes) {
  VoqBank b{2, 2};
  (void)b.enqueue(0, pkt(0, 1, 100));
  (void)b.enqueue(1, pkt(1, 0, 250));
  EXPECT_EQ(b.max_voq_bytes(), 250);
}

TEST(VoqBank, OutOfRangeThrows) {
  VoqBank b{2, 2};
  EXPECT_THROW((void)b.enqueue(2, pkt(2, 0, 10)), std::out_of_range);
  EXPECT_THROW((void)b.enqueue(0, pkt(0, 2, 10)), std::out_of_range);
  EXPECT_THROW((void)b.dequeue(0, 5), std::out_of_range);
  EXPECT_THROW((void)b.bytes(5, 0), std::out_of_range);
  EXPECT_THROW((void)b.input_bytes(9), std::out_of_range);
}

TEST(VoqBank, EnqueueDequeueCounters) {
  VoqBank b{1, 2};
  (void)b.enqueue(0, pkt(0, 1, 10));
  (void)b.enqueue(0, pkt(0, 1, 10));
  (void)b.dequeue(0, 1);
  EXPECT_EQ(b.stats().enqueued_packets, 2u);
  EXPECT_EQ(b.stats().dequeued_packets, 1u);
}

TEST(VoqBank, EnqueueStampsNothingButStoresPacketVerbatim) {
  VoqBank b{1, 2};
  net::Packet p = pkt(0, 1, 64, 7);
  p.flow = 1234;
  (void)b.enqueue(0, p);
  const net::Packet* out = b.dequeue(0, 1);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->flow, 1234u);
  EXPECT_EQ(out->id, 7u);
  EXPECT_EQ(out->size_bytes, 64);
}

// Property sweep: random enqueue/dequeue interleavings conserve bytes.
class VoqConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VoqConservation, BytesConservedUnderRandomOps) {
  sim::Rng rng{GetParam()};
  VoqBank b{4, 4};
  std::int64_t in = 0, out = 0;
  for (int op = 0; op < 5000; ++op) {
    const auto i = static_cast<net::PortId>(rng.next_below(4));
    const auto j = static_cast<net::PortId>(rng.next_below(4));
    if (rng.bernoulli(0.6)) {
      const std::int64_t sz = rng.uniform_int(64, 1500);
      if (b.enqueue(i, pkt(i, j, sz))) in += sz;
    } else if (const net::Packet* p = b.dequeue(i, j)) {
      out += p->size_bytes;
    }
  }
  EXPECT_EQ(b.total_bytes(), in - out);
  std::int64_t residual = 0;
  for (net::PortId i = 0; i < 4; ++i) {
    for (net::PortId j = 0; j < 4; ++j) residual += b.bytes(i, j);
  }
  EXPECT_EQ(residual, in - out);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoqConservation, ::testing::Values(1, 2, 3, 4, 5));

// Property test against a reference model: one std::deque per VOQ plus the
// bank's accounting rules, driven by random enqueue/dequeue/peek/reset_peaks
// over a 16x16 bank.  Every step checks the returned packet, every
// occupancy accessor, the peaks, stats() and the exact sequence of status
// callbacks.  Periodic full drains make the bank reuse every node it has
// handed out.
struct VoqModel {
  static constexpr net::PortId kPorts = 16;

  explicit VoqModel(VoqLimits lim) : limits{lim}, fifo(kPorts * kPorts), input_peak(kPorts, 0) {}

  std::deque<net::Packet>& q(net::PortId i, net::PortId j) { return fifo[i * kPorts + j]; }
  std::int64_t bytes(net::PortId i, net::PortId j) {
    std::int64_t b = 0;
    for (const auto& p : q(i, j)) b += p.size_bytes;
    return b;
  }
  std::int64_t input_bytes(net::PortId i) {
    std::int64_t b = 0;
    for (net::PortId j = 0; j < kPorts; ++j) b += bytes(i, j);
    return b;
  }

  VoqLimits limits;
  std::vector<std::deque<net::Packet>> fifo;
  std::vector<std::int64_t> input_peak;
  std::int64_t total_bytes{0};
  std::int64_t total_packets{0};
  VoqBankStats stats;
  std::vector<std::tuple<net::PortId, net::PortId, VoqStatus>> expected_status;
};

void expect_bank_matches(const VoqBank& b, VoqModel& m, const std::string& where) {
  SCOPED_TRACE(where);
  std::int64_t max_voq = 0;
  for (net::PortId i = 0; i < VoqModel::kPorts; ++i) {
    for (net::PortId j = 0; j < VoqModel::kPorts; ++j) {
      const auto& fifo = m.q(i, j);
      const std::int64_t bytes = m.bytes(i, j);
      max_voq = std::max(max_voq, bytes);
      ASSERT_EQ(b.bytes(i, j), bytes) << i << "," << j;
      ASSERT_EQ(b.packets(i, j), fifo.size()) << i << "," << j;
      ASSERT_EQ(b.empty(i, j), fifo.empty()) << i << "," << j;
      const net::Packet* head = b.peek(i, j);
      ASSERT_EQ(head == nullptr, fifo.empty()) << i << "," << j;
      if (head != nullptr) {
        ASSERT_EQ(head->id, fifo.front().id) << i << "," << j;
      }
    }
    ASSERT_EQ(b.input_bytes(i), m.input_bytes(i)) << i;
    ASSERT_EQ(b.peak_input_bytes(i), m.input_peak[i]) << i;
  }
  ASSERT_EQ(b.max_voq_bytes(), max_voq);
  ASSERT_EQ(b.total_bytes(), m.total_bytes);
  ASSERT_EQ(b.total_packets(), m.total_packets);
  ASSERT_EQ(b.stats().enqueued_packets, m.stats.enqueued_packets);
  ASSERT_EQ(b.stats().dequeued_packets, m.stats.dequeued_packets);
  ASSERT_EQ(b.stats().dropped_packets, m.stats.dropped_packets);
  ASSERT_EQ(b.stats().dropped_bytes, m.stats.dropped_bytes);
  ASSERT_EQ(b.stats().peak_total_bytes, m.stats.peak_total_bytes);
}

class VoqModelCheck : public ::testing::TestWithParam<unsigned> {};

TEST_P(VoqModelCheck, MatchesDequeReference) {
  // Bit k of the parameter switches limit k on; each is tight enough to bind.
  const unsigned mask = GetParam();
  VoqLimits lim;
  if (mask & 1U) lim.max_bytes_per_voq = 4'000;
  if (mask & 2U) lim.max_packets_per_voq = 4;
  if (mask & 4U) lim.shared_buffer_bytes = 60'000;

  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    sim::Rng rng{seed * 97 + mask};
    VoqBank b{VoqModel::kPorts, VoqModel::kPorts, lim};
    VoqModel m{lim};
    std::vector<std::tuple<net::PortId, net::PortId, VoqStatus>> status;
    b.set_status_callback(
        [&status](net::PortId i, net::PortId j, VoqStatus s) { status.emplace_back(i, j, s); });
    std::uint64_t next_id = 1;

    const auto dequeue = [&](net::PortId i, net::PortId j) {
      auto& fifo = m.q(i, j);
      const net::Packet* got = b.dequeue(i, j);
      ASSERT_EQ(got != nullptr, !fifo.empty());
      if (got == nullptr) return;
      const net::Packet want = fifo.front();
      fifo.pop_front();
      ASSERT_EQ(got->id, want.id);
      ASSERT_EQ(got->flow, want.flow);
      ASSERT_EQ(got->src, want.src);
      ASSERT_EQ(got->dst, want.dst);
      ASSERT_EQ(got->size_bytes, want.size_bytes);
      m.total_bytes -= want.size_bytes;
      --m.total_packets;
      ++m.stats.dequeued_packets;
      if (fifo.empty()) m.expected_status.emplace_back(i, j, VoqStatus::kBecameEmpty);
    };

    for (int step = 0; step < 4'000; ++step) {
      const std::string where = "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const auto i = static_cast<net::PortId>(rng.next_below(VoqModel::kPorts));
      const auto j = static_cast<net::PortId>(rng.next_below(VoqModel::kPorts));
      const auto op = rng.next_below(100);
      if (step % 1'000 == 999) {
        // Full drain: the bank must come back empty and then reuse nodes.
        for (net::PortId a = 0; a < VoqModel::kPorts; ++a) {
          for (net::PortId c = 0; c < VoqModel::kPorts; ++c) {
            while (!m.q(a, c).empty()) {
              dequeue(a, c);
              if (HasFatalFailure()) return;
            }
          }
        }
        ASSERT_EQ(b.total_packets(), 0) << where;
      } else if (op < 55) {
        net::Packet p = pkt(i, j, rng.uniform_int(64, 1500), next_id++);
        p.flow = rng.next_u64();
        auto& fifo = m.q(i, j);
        const bool admit =
            !(lim.max_bytes_per_voq > 0 && m.bytes(i, j) + p.size_bytes > lim.max_bytes_per_voq) &&
            !(lim.max_packets_per_voq > 0 &&
              static_cast<std::int64_t>(fifo.size()) + 1 > lim.max_packets_per_voq) &&
            !(lim.shared_buffer_bytes > 0 &&
              m.total_bytes + p.size_bytes > lim.shared_buffer_bytes);
        ASSERT_EQ(b.enqueue(i, p), admit) << where;
        if (admit) {
          if (fifo.empty()) m.expected_status.emplace_back(i, j, VoqStatus::kBecameNonEmpty);
          fifo.push_back(p);
          m.total_bytes += p.size_bytes;
          ++m.total_packets;
          ++m.stats.enqueued_packets;
          m.stats.peak_total_bytes = std::max(m.stats.peak_total_bytes, m.total_bytes);
          m.input_peak[i] = std::max(m.input_peak[i], m.input_bytes(i));
        } else {
          ++m.stats.dropped_packets;
          m.stats.dropped_bytes += p.size_bytes;
        }
      } else if (op < 90) {
        dequeue(i, j);
        if (HasFatalFailure()) return;
      } else if (op < 98) {
        const net::Packet* head = b.peek(i, j);
        ASSERT_EQ(head == nullptr, m.q(i, j).empty()) << where;
        if (head != nullptr) {
          ASSERT_EQ(head->id, m.q(i, j).front().id) << where;
        }
      } else {
        b.reset_peaks();
        m.stats.peak_total_bytes = m.total_bytes;
        for (net::PortId a = 0; a < VoqModel::kPorts; ++a) m.input_peak[a] = m.input_bytes(a);
      }
      ASSERT_EQ(status, m.expected_status) << where;
      expect_bank_matches(b, m, where);
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LimitsOnOff, VoqModelCheck, ::testing::Range(0U, 8U));

TEST(VoqBank, PeekPointerSurvivesPoolGrowth) {
  // A head-of-line pointer must stay valid while other VOQs grow the node
  // pool by several chunks.
  VoqBank b{16, 16};
  net::Packet first = pkt(3, 5, 777, 1);
  first.flow = 42;
  ASSERT_TRUE(b.enqueue(3, first));
  const net::Packet* head = b.peek(3, 5);
  ASSERT_NE(head, nullptr);
  std::uint64_t id = 2;
  for (int k = 0; k < 3'000; ++k) {
    const auto i = static_cast<net::PortId>(k % 16);
    const auto j = static_cast<net::PortId>((k / 16) % 16);
    if (i == 3 && j == 5) continue;
    ASSERT_TRUE(b.enqueue(i, pkt(i, j, 64, id++)));
  }
  EXPECT_EQ(b.peek(3, 5), head);
  EXPECT_EQ(head->id, 1u);
  EXPECT_EQ(head->flow, 42u);
  EXPECT_EQ(head->size_bytes, 777);
  const net::Packet* out = b.dequeue(3, 5);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->id, 1u);
}

TEST(VoqBank, DequeueKeepsFifoOrderAcrossChunksOfInterleavedVoqs) {
  // 1,200 packets spread round-robin over six VOQs fill five 256-node
  // chunks, so every VOQ's list hops between chunks; each VOQ must still
  // hand its packets back in arrival order.
  constexpr net::PortId kVoqs = 6;
  constexpr std::uint64_t kPackets = 1'200;
  VoqBank b{kVoqs, kVoqs};
  for (std::uint64_t id = 0; id < kPackets; ++id) {
    const auto i = static_cast<net::PortId>(id % kVoqs);
    const auto j = static_cast<net::PortId>((id * 5) % kVoqs);
    ASSERT_TRUE(b.enqueue(i, pkt(i, j, 64 + static_cast<std::int64_t>(id), id)));
  }
  for (net::PortId i = 0; i < kVoqs; ++i) {
    const auto j = static_cast<net::PortId>((i * 5) % kVoqs);
    std::uint64_t want = i;
    while (const net::Packet* p = b.dequeue(i, j)) {
      ASSERT_EQ(p->id, want);
      ASSERT_EQ(p->size_bytes, 64 + static_cast<std::int64_t>(want));
      want += kVoqs;
    }
    EXPECT_EQ(want - kVoqs, i + kPackets - kVoqs);
  }
  EXPECT_EQ(b.total_packets(), 0);
}

TEST(VoqBank, DequeuedPacketHoldsUntilTheNextEnqueue) {
  VoqBank b{2, 2};
  net::Packet first = pkt(0, 1, 700, 1);
  first.flow = 99;
  ASSERT_TRUE(b.enqueue(0, first));
  ASSERT_TRUE(b.enqueue(0, pkt(0, 1, 64, 2)));
  ASSERT_TRUE(b.enqueue(1, pkt(1, 0, 128, 3)));

  const net::Packet* out = b.dequeue(0, 1);
  ASSERT_NE(out, nullptr);
  // Further dequeues, of the same VOQ and of another, leave it intact.
  ASSERT_NE(b.dequeue(0, 1), nullptr);
  ASSERT_NE(b.dequeue(1, 0), nullptr);
  EXPECT_EQ(b.dequeue(0, 1), nullptr);
  EXPECT_EQ(out->id, 1u);
  EXPECT_EQ(out->flow, 99u);
  EXPECT_EQ(out->size_bytes, 700);
  EXPECT_EQ(b.total_bytes(), 0);
}

}  // namespace
}  // namespace xdrs::queueing
