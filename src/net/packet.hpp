// Packet and flow model.
//
// Packets are metadata-only: the framework studies scheduling, so payload
// bytes would cost memory without influencing any result.  Sizes, headers
// and timestamps are modelled exactly.
#ifndef XDRS_NET_PACKET_HPP
#define XDRS_NET_PACKET_HPP

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace xdrs::net {

/// Switch-scope port index (host-facing input or output of the hybrid ToR).
using PortId = std::uint32_t;

/// Globally unique flow identifier assigned by generators.
using FlowId = std::uint64_t;

/// IP-protocol numbers the classifier understands.
enum class IpProto : std::uint8_t { kTcp = 6, kUdp = 17, kOther = 0 };

/// Service class attached by classification; determines default fabric
/// preference (latency-sensitive traffic avoids waiting for circuits).
enum class TrafficClass : std::uint8_t {
  kLatencySensitive,  ///< VOIP / gaming / RPC — EPS-preferred
  kThroughput,        ///< bulk transfers — OCS candidates
  kBestEffort,        ///< everything else
};

[[nodiscard]] const char* to_string(TrafficClass c) noexcept;

/// Classic 5-tuple used by the look-up rules.  Addresses are modelled as
/// 32-bit values (IPv4-like); the framework never routes on them beyond
/// classification, so this loses no generality.
struct FiveTuple {
  std::uint32_t src_addr{0};
  std::uint32_t dst_addr{0};
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
  IpProto proto{IpProto::kOther};

  constexpr auto operator<=>(const FiveTuple&) const noexcept = default;

  [[nodiscard]] std::string to_string() const;
};

/// A packet traversing the fabric.  Value type; freely copyable.
struct Packet {
  std::uint64_t id{0};
  FlowId flow{0};
  PortId src{0};           ///< ingress port at the hybrid switch
  PortId dst{0};           ///< egress port at the hybrid switch
  std::int64_t size_bytes{0};
  FiveTuple tuple{};
  TrafficClass tclass{TrafficClass::kBestEffort};
  /// Index of the emitting generator among its switch's generators
  /// (stamped at emission).  Flow ids are only unique per generator, so
  /// (src, generator, flow) names one flow; see FlowKey.
  std::uint32_t generator{0};
  sim::Time created_at{};  ///< stamped by the generator at the host
  /// Absolute simulation time by which the owning FLOW should finish.
  /// Zero means "no deadline"; every packet of a flow carries the same
  /// value, so the completion recorder and deadline-aware policies read it
  /// without a flow table lookup.
  sim::Time deadline{};
  /// Total bytes of the owning flow (0 = unknown).  Lets the completion
  /// recorder detect "flow done" from delivered bytes alone, without the
  /// generator having to signal completion out of band.
  std::int64_t flow_bytes{0};

  // ---- multi-rack routing (topo::FatTree) --------------------------------
  // All zero/false in single-switch (1-rack) runs.
  // A cross-rack packet travels source-ToR fabric -> core link -> dest-ToR
  // fabric; `dst` is rewritten per hop (uplink port, then final_dst) while
  // these fields carry the end-to-end route.
  std::uint32_t dst_rack{0};  ///< rack the packet terminates in
  PortId final_dst{0};        ///< host port within dst_rack (cross-rack only)
  bool remote{false};         ///< true iff the packet crosses the core tier
};
static_assert(sizeof(Packet) == 96, "the generator tag must stay in Packet's padding");

/// One flow's identity at its delivering switch.  Each generator numbers
/// its own flows, so the flow id alone repeats across the generators of a
/// host (and across hosts); the ingress port and generator tag complete it.
struct FlowKey {
  PortId src{0};
  std::uint32_t generator{0};
  FlowId flow{0};
  bool operator==(const FlowKey&) const noexcept = default;

  [[nodiscard]] static FlowKey of(const Packet& p) noexcept { return {p.src, p.generator, p.flow}; }
};

struct FlowKeyHash {
  [[nodiscard]] std::size_t operator()(const FlowKey& k) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = (h ^ k.flow) * 0x100000001b3ULL;
    h = (h ^ k.src) * 0x100000001b3ULL;
    h = (h ^ k.generator) * 0x100000001b3ULL;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace xdrs::net

#endif  // XDRS_NET_PACKET_HPP
