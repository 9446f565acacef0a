// Link-rate and data-size quantities used throughout the framework.
//
// Rates are stored as bits per second and sizes as bytes; conversions to
// transmission times are exact (64-bit arithmetic for packet sizes, 128-bit
// intermediates otherwise) so that long simulations do not drift.
#ifndef XDRS_SIM_UNITS_HPP
#define XDRS_SIM_UNITS_HPP

#include <compare>
#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace xdrs::sim {

/// A link or port data rate in bits per second.
class DataRate {
 public:
  constexpr DataRate() noexcept = default;

  [[nodiscard]] static constexpr DataRate bps(std::int64_t v) noexcept { return DataRate{v}; }
  [[nodiscard]] static constexpr DataRate kbps(std::int64_t v) noexcept { return DataRate{v * 1'000}; }
  [[nodiscard]] static constexpr DataRate mbps(std::int64_t v) noexcept { return DataRate{v * 1'000'000}; }
  [[nodiscard]] static constexpr DataRate gbps(std::int64_t v) noexcept { return DataRate{v * 1'000'000'000}; }

  [[nodiscard]] constexpr std::int64_t bits_per_sec() const noexcept { return bps_; }
  [[nodiscard]] constexpr double gbit_per_sec() const noexcept { return static_cast<double>(bps_) / 1e9; }
  [[nodiscard]] constexpr bool is_zero() const noexcept { return bps_ == 0; }

  constexpr auto operator<=>(const DataRate&) const noexcept = default;

  friend constexpr DataRate operator+(DataRate a, DataRate b) noexcept { return DataRate{a.bps_ + b.bps_}; }
  friend constexpr DataRate operator-(DataRate a, DataRate b) noexcept { return DataRate{a.bps_ - b.bps_}; }
  friend constexpr DataRate operator*(DataRate a, std::int64_t k) noexcept { return DataRate{a.bps_ * k}; }
  friend constexpr DataRate operator/(DataRate a, std::int64_t k) noexcept { return DataRate{a.bps_ / k}; }

  /// Time to serialise `bytes` at this rate, rounded up to the next
  /// picosecond; Time::max() for a zero rate, which callers treat as
  /// "never".  Exact: packet-sized counts (0 to kExactBytes64) divide in
  /// 64 bits, where bytes * 8e12 cannot overflow; any other count divides
  /// its 128-bit product.
  [[nodiscard]] constexpr Time transmission_time(std::int64_t bytes) const noexcept {
    if (bps_ <= 0) return Time::max();
    if (bytes >= 0 && bytes <= kExactBytes64) {
      const std::uint64_t fs = static_cast<std::uint64_t>(bytes) * 8'000'000'000'000ULL;
      const auto bps = static_cast<std::uint64_t>(bps_);
      return Time::picoseconds(static_cast<std::int64_t>(fs / bps + (fs % bps != 0 ? 1 : 0)));
    }
    const auto bits = static_cast<__int128>(bytes) * 8;
    const __int128 ps = (bits * 1'000'000'000'000LL + bps_ - 1) / bps_;
    return Time::picoseconds(static_cast<std::int64_t>(ps));
  }

  /// Largest byte count transmission_time divides in 64 bits: 2 MiB, whose
  /// 8e12-fold product (1.68e19) still fits in std::uint64_t.
  static constexpr std::int64_t kExactBytes64 = std::int64_t{1} << 21;

  /// Bytes that can be carried in `t` at this rate (rounded down).
  [[nodiscard]] constexpr std::int64_t bytes_in(Time t) const noexcept {
    const __int128 bits = static_cast<__int128>(bps_) * t.ps() / 1'000'000'000'000LL;
    return static_cast<std::int64_t>(bits / 8);
  }

  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit DataRate(std::int64_t bps) noexcept : bps_{bps} {}
  std::int64_t bps_{0};
};

/// Ethernet frame-size constants used by the generators and fabrics.
inline constexpr std::int64_t kMinFrameBytes = 64;
inline constexpr std::int64_t kMaxFrameBytes = 1518;
/// Overhead on the wire per frame: preamble + SFD (8) and minimum IFG (12).
inline constexpr std::int64_t kWireOverheadBytes = 20;

/// Pretty-prints a byte count with an auto-selected binary unit ("1.2 MiB").
[[nodiscard]] std::string format_bytes(double bytes);

}  // namespace xdrs::sim

#endif  // XDRS_SIM_UNITS_HPP
