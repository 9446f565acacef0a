// Unit tests for sim::Time and sim::DataRate — the numeric foundation every
// other result rests on.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>

#include "sim/time.hpp"
#include "sim/units.hpp"

namespace xdrs::sim {
namespace {

using namespace xdrs::sim::literals;

TEST(Time, DefaultIsZero) {
  EXPECT_EQ(Time{}.ps(), 0);
  EXPECT_TRUE(Time{}.is_zero());
}

TEST(Time, FactoryConversions) {
  EXPECT_EQ(Time::nanoseconds(1).ps(), 1'000);
  EXPECT_EQ(Time::microseconds(1).ps(), 1'000'000);
  EXPECT_EQ(Time::milliseconds(1).ps(), 1'000'000'000);
  EXPECT_EQ(Time::seconds(1).ps(), 1'000'000'000'000);
}

TEST(Time, FractionalSeconds) {
  EXPECT_EQ(Time::seconds_f(0.5).ps(), 500'000'000'000);
  EXPECT_EQ(Time::seconds_f(1e-9).ps(), 1'000);
}

TEST(Time, Literals) {
  EXPECT_EQ((5_ns).ps(), 5'000);
  EXPECT_EQ((3_us).ps(), 3'000'000);
  EXPECT_EQ((2_ms).ps(), 2'000'000'000);
  EXPECT_EQ((1_s).ps(), 1'000'000'000'000);
}

TEST(Time, Arithmetic) {
  EXPECT_EQ(1_us + 500_ns, Time::nanoseconds(1500));
  EXPECT_EQ(1_us - 500_ns, 500_ns);
  EXPECT_EQ(3 * (10_ns), 30_ns);
  EXPECT_EQ((100_ns) / 4, 25_ns);
  EXPECT_EQ((1_us) / (250_ns), 4);
  EXPECT_EQ((1100_ns) % (250_ns), 100_ns);
}

TEST(Time, CompoundAssignment) {
  Time t = 1_us;
  t += 1_us;
  EXPECT_EQ(t, 2_us);
  t -= 500_ns;
  EXPECT_EQ(t, Time::nanoseconds(1500));
}

TEST(Time, Comparisons) {
  EXPECT_LT(1_ns, 1_us);
  EXPECT_GT(1_ms, 999_us);
  EXPECT_LE(1_ms, 1_ms);
  EXPECT_TRUE((1_us - 2_us).is_negative());
}

TEST(Time, FloatingAccessors) {
  EXPECT_DOUBLE_EQ((1500_ns).us(), 1.5);
  EXPECT_DOUBLE_EQ((2_ms).ms(), 2.0);
  EXPECT_DOUBLE_EQ((250_ms).sec(), 0.25);
  EXPECT_DOUBLE_EQ((1_ns).ns(), 1.0);
}

TEST(Time, Ratio) {
  EXPECT_DOUBLE_EQ((1_us).ratio(4_us), 0.25);
  EXPECT_DOUBLE_EQ((9_ms).ratio(10_ms), 0.9);
}

TEST(Time, ToStringSelectsUnit) {
  EXPECT_EQ((1_s).to_string(), "1s");
  EXPECT_EQ((2_ms).to_string(), "2ms");
  EXPECT_EQ((5_us).to_string(), "5us");
  EXPECT_EQ((7_ns).to_string(), "7ns");
  EXPECT_EQ(Time::picoseconds(3).to_string(), "3ps");
  EXPECT_EQ(Time::zero().to_string(), "0ps");
}

TEST(Time, MaxIsHuge) { EXPECT_GT(Time::max(), Time::seconds(1'000'000)); }

TEST(DataRate, Conversions) {
  EXPECT_EQ(DataRate::gbps(10).bits_per_sec(), 10'000'000'000LL);
  EXPECT_EQ(DataRate::mbps(100).bits_per_sec(), 100'000'000LL);
  EXPECT_EQ(DataRate::kbps(64).bits_per_sec(), 64'000LL);
  EXPECT_DOUBLE_EQ(DataRate::gbps(40).gbit_per_sec(), 40.0);
}

TEST(DataRate, TransmissionTimeExact) {
  // 1500 B at 10 Gbps = 1200 ns exactly.
  EXPECT_EQ(DataRate::gbps(10).transmission_time(1500), Time::nanoseconds(1200));
  // 64 B at 10 Gbps = 51.2 ns = 51200 ps.
  EXPECT_EQ(DataRate::gbps(10).transmission_time(64), Time::picoseconds(51'200));
}

TEST(DataRate, TransmissionTimeRoundsUp) {
  // 1 byte at 3 bps: 8/3 s = 2.666..s; must round up, never under-run.
  const Time t = DataRate::bps(3).transmission_time(1);
  EXPECT_GE(t.ps(), 2'666'666'666'666LL);
}

TEST(DataRate, ZeroRateNeverCompletes) {
  EXPECT_EQ(DataRate{}.transmission_time(100), Time::max());
}

/// The 128-bit formula transmission_time used for every count before its
/// 64-bit path, as the reference the fast path must reproduce.
std::int64_t reference_transmission_ps(std::int64_t bps, std::int64_t bytes) {
  if (bps <= 0) return Time::max().ps();
  const auto bits = static_cast<__int128>(bytes) * 8;
  return static_cast<std::int64_t>((bits * 1'000'000'000'000LL + bps - 1) / bps);
}

TEST(DataRate, TransmissionTimeMatchesTheWideFormulaOnEitherPath) {
  constexpr std::int64_t kBound = DataRate::kExactBytes64;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t rates[] = {1, 3, 7, 999'999'937, 10'000'000'000LL, 400'000'000'000LL,
                                kMax / 3, kMax - 1, kMax};
  const std::int64_t sizes[] = {0, 1, 64, 1500 + 24, kBound - 1, kBound, kBound + 1,
                                -1, -1500, kMax / 8, std::numeric_limits<std::int64_t>::min() / 16};
  for (const std::int64_t bps : rates) {
    for (const std::int64_t bytes : sizes) {
      EXPECT_EQ(DataRate::bps(bps).transmission_time(bytes).ps(),
                reference_transmission_ps(bps, bytes))
          << bps << " bps, " << bytes << " B";
    }
  }
  for (const std::int64_t bytes : sizes) {
    EXPECT_EQ(DataRate{}.transmission_time(bytes), Time::max());
    EXPECT_EQ(DataRate::bps(-5).transmission_time(bytes), Time::max());
  }

  std::mt19937_64 rng{20240601};
  for (int i = 0; i < 200'000; ++i) {
    // Rates log-uniform over 1 bps .. 2^63; sizes mostly inside the 64-bit
    // range, some just past it, some far past it or negative.
    const std::int64_t bps = static_cast<std::int64_t>(rng() >> (1 + rng() % 63)) | 1;
    std::int64_t bytes = 0;
    switch (rng() % 4) {
      case 0: bytes = static_cast<std::int64_t>(rng() % 9'001); break;
      case 1: bytes = static_cast<std::int64_t>(rng() % (kBound + 1)); break;
      case 2: bytes = kBound + 1 + static_cast<std::int64_t>(rng() % (kBound * 64)); break;
      default: bytes = static_cast<std::int64_t>(rng()) >> (4 + rng() % 60); break;
    }
    ASSERT_EQ(DataRate::bps(bps).transmission_time(bytes).ps(),
              reference_transmission_ps(bps, bytes))
        << bps << " bps, " << bytes << " B";
  }
}

TEST(DataRate, BytesInWindow) {
  // 10 Gbps for 1 us = 10,000 bits = 1250 bytes.
  EXPECT_EQ(DataRate::gbps(10).bytes_in(Time::microseconds(1)), 1250);
  EXPECT_EQ(DataRate::gbps(10).bytes_in(Time::zero()), 0);
}

TEST(DataRate, BytesInversesTransmission) {
  const DataRate r = DataRate::gbps(25);
  for (const std::int64_t bytes : {64LL, 256LL, 1500LL, 9000LL}) {
    const Time t = r.transmission_time(bytes);
    EXPECT_GE(r.bytes_in(t), bytes - 1);
    EXPECT_LE(r.bytes_in(t), bytes + 1);
  }
}

TEST(DataRate, Arithmetic) {
  EXPECT_EQ(DataRate::gbps(10) + DataRate::gbps(30), DataRate::gbps(40));
  EXPECT_EQ(DataRate::gbps(40) - DataRate::gbps(15), DataRate::gbps(25));
  EXPECT_EQ(DataRate::gbps(10) * 4, DataRate::gbps(40));
  EXPECT_EQ(DataRate::gbps(40) / 4, DataRate::gbps(10));
}

TEST(DataRate, ToString) {
  EXPECT_EQ(DataRate::gbps(10).to_string(), "10Gbps");
  EXPECT_EQ(DataRate::mbps(100).to_string(), "100Mbps");
}

TEST(FormatBytes, PicksBinaryUnits) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2 KiB");
  EXPECT_EQ(format_bytes(3.0 * 1024 * 1024), "3 MiB");
  EXPECT_EQ(format_bytes(1.5 * 1024 * 1024 * 1024), "1.5 GiB");
}

TEST(FrameConstants, EthernetBasics) {
  EXPECT_EQ(kMinFrameBytes, 64);
  EXPECT_EQ(kMaxFrameBytes, 1518);
  EXPECT_EQ(kWireOverheadBytes, 20);
}

}  // namespace
}  // namespace xdrs::sim
