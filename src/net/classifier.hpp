// Configurable look-up rules of the processing logic (paper §3):
// "packets are classified into flows based on configurable look-up rules
//  and placed into their respective Virtual Output Queue".
//
// One stage models the FPGA datapath's TCAM: a priority-ordered wildcard
// rule table searched for every packet.  The first matching rule's verdict
// wins; with none, the caller's fallback does.  Nothing is remembered
// between packets, so a verdict can never go stale: two packets of one
// 5-tuple may carry different fallbacks, and an added or removed rule
// applies from the next packet on.  The verdict selects the destination
// port (hence the VOQ) and the traffic class used by hybrid fabric policy.
// Rules carry caller-assigned ids and per-rule match counters, which is
// what the SDN layer (control/sdn.hpp) builds on.
#ifndef XDRS_NET_CLASSIFIER_HPP
#define XDRS_NET_CLASSIFIER_HPP

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"

namespace xdrs::net {

/// Result of classification: which VOQ (output port) and class.
struct Verdict {
  PortId out_port{0};
  TrafficClass tclass{TrafficClass::kBestEffort};
  constexpr bool operator==(const Verdict&) const noexcept = default;
};

/// A wildcard match rule.  A field participates in matching only when its
/// mask is non-zero: `(packet_field & mask) == value`.  Lower `priority`
/// wins; insertion order breaks ties.
struct Rule {
  std::uint32_t src_addr_value{0};
  std::uint32_t src_addr_mask{0};
  std::uint32_t dst_addr_value{0};
  std::uint32_t dst_addr_mask{0};
  std::uint16_t src_port_value{0};
  std::uint16_t src_port_mask{0};
  std::uint16_t dst_port_value{0};
  std::uint16_t dst_port_mask{0};
  std::optional<IpProto> proto{};  ///< match any protocol when empty
  std::uint32_t priority{0};
  std::uint64_t id{0};  ///< caller-assigned; 0 = anonymous
  Verdict verdict{};

  [[nodiscard]] bool matches(const FiveTuple& t) const noexcept;
};

/// Classifier statistics for the datapath benches.
struct ClassifierStats {
  std::uint64_t lookups{0};  ///< == rule_hits + default_hits
  std::uint64_t rule_hits{0};
  std::uint64_t default_hits{0};
};

/// Per-rule match counters (flow-table statistics in SDN terms).
struct RuleCounters {
  std::uint64_t packets{0};
  std::int64_t bytes{0};
};

class Classifier {
 public:
  /// Installs a rule; rules are kept sorted by (priority, insertion order).
  void add_rule(const Rule& rule);

  /// Removes every rule whose id equals `id`; returns the count removed.
  std::size_t remove_rule(std::uint64_t id);

  /// Removes all rules.
  void clear_rules() noexcept;

  [[nodiscard]] std::size_t rule_count() const noexcept { return rules_.size(); }

  /// Classifies `p`: the first rule in (priority, insertion) order that
  /// matches its 5-tuple, else `fallback` (typically the packet's own
  /// destination port and class).
  Verdict classify(const Packet& p, const Verdict& fallback);

  [[nodiscard]] const ClassifierStats& stats() const noexcept { return stats_; }

  /// Match counters of rule `id` (zeroes if never hit / unknown).
  [[nodiscard]] RuleCounters rule_counters(std::uint64_t id) const;

 private:
  struct Indexed {
    Rule rule;
    std::uint64_t order;
  };

  std::vector<Indexed> rules_;  // sorted by (priority, order)
  std::unordered_map<std::uint64_t, RuleCounters> counters_;
  std::uint64_t next_order_{0};
  ClassifierStats stats_;
};

}  // namespace xdrs::net

#endif  // XDRS_NET_CLASSIFIER_HPP
