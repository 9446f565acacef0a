#include "net/classifier.hpp"

#include <algorithm>

namespace xdrs::net {

bool Rule::matches(const FiveTuple& t) const noexcept {
  if ((t.src_addr & src_addr_mask) != (src_addr_value & src_addr_mask)) return false;
  if ((t.dst_addr & dst_addr_mask) != (dst_addr_value & dst_addr_mask)) return false;
  if ((t.src_port & src_port_mask) != (src_port_value & src_port_mask)) return false;
  if ((t.dst_port & dst_port_mask) != (dst_port_value & dst_port_mask)) return false;
  if (proto.has_value() && t.proto != *proto) return false;
  return true;
}

void Classifier::add_rule(const Rule& rule) {
  const Indexed entry{rule, next_order_++};
  const auto pos = std::upper_bound(
      rules_.begin(), rules_.end(), entry, [](const Indexed& a, const Indexed& b) {
        if (a.rule.priority != b.rule.priority) return a.rule.priority < b.rule.priority;
        return a.order < b.order;
      });
  rules_.insert(pos, entry);
}

std::size_t Classifier::remove_rule(std::uint64_t id) {
  const auto before = rules_.size();
  std::erase_if(rules_, [id](const Indexed& e) { return e.rule.id == id; });
  return before - rules_.size();
}

void Classifier::clear_rules() noexcept { rules_.clear(); }

Verdict Classifier::classify(const Packet& p, const Verdict& fallback) {
  ++stats_.lookups;
  for (const Indexed& e : rules_) {
    if (!e.rule.matches(p.tuple)) continue;
    ++stats_.rule_hits;
    if (e.rule.id != 0) {
      RuleCounters& c = counters_[e.rule.id];
      ++c.packets;
      c.bytes += p.size_bytes;
    }
    return e.rule.verdict;
  }
  ++stats_.default_hits;
  return fallback;
}

RuleCounters Classifier::rule_counters(std::uint64_t id) const {
  const auto it = counters_.find(id);
  return it == counters_.end() ? RuleCounters{} : it->second;
}

}  // namespace xdrs::net
