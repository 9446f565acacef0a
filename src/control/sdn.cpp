#include "control/sdn.hpp"

#include <stdexcept>

namespace xdrs::control {

SdnController::SdnController(net::Classifier& classifier) : classifier_{classifier} {}

std::uint64_t SdnController::install(net::Rule rule) {
  rule.id = next_id_++;
  classifier_.add_rule(rule);
  flows_.emplace(rule.id, rule);
  return rule.id;
}

bool SdnController::remove(std::uint64_t flow_id) {
  const auto it = flows_.find(flow_id);
  if (it == flows_.end()) return false;
  classifier_.remove_rule(flow_id);
  flows_.erase(it);
  return true;
}

bool SdnController::modify(std::uint64_t flow_id, const net::Rule& updated) {
  const auto it = flows_.find(flow_id);
  if (it == flows_.end()) return false;
  net::Rule replacement = updated;
  replacement.id = flow_id;  // identity (and counters) survive modification
  classifier_.remove_rule(flow_id);
  classifier_.add_rule(replacement);
  it->second = replacement;
  return true;
}

std::vector<std::uint64_t> SdnController::flow_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(flows_.size());
  for (const auto& [id, rule] : flows_) ids.push_back(id);
  return ids;
}

net::RuleCounters SdnController::flow_stats(std::uint64_t flow_id) const {
  return classifier_.rule_counters(flow_id);
}

ElephantPinner::ElephantPinner(sim::Simulator& sim, SdnController& controller,
                               const queueing::VoqBank& voqs, Config cfg)
    : sim_{sim}, controller_{controller}, voqs_{voqs}, cfg_{cfg} {
  if (cfg.poll_period <= sim::Time::zero()) {
    throw std::invalid_argument{"ElephantPinner: poll period must be positive"};
  }
  if (cfg.unpin_threshold_bytes > cfg.pin_threshold_bytes) {
    throw std::invalid_argument{"ElephantPinner: unpin threshold above pin threshold"};
  }
  if (cfg.rack > 255) throw std::invalid_argument{"ElephantPinner: rack must fit one octet"};
}

void ElephantPinner::start(sim::Time horizon) {
  sim_.schedule(cfg_.poll_period, [this, horizon] { poll(horizon); });
}

void ElephantPinner::poll(sim::Time horizon) {
  for (net::PortId i = 0; i < voqs_.inputs(); ++i) {
    for (net::PortId j = 0; j < voqs_.outputs(); ++j) {
      const std::int64_t backlog = voqs_.bytes(i, j);
      const std::uint64_t k = key(i, j);
      const auto it = pinned_.find(k);
      if (it == pinned_.end()) {
        if (backlog >= cfg_.pin_threshold_bytes) {
          // Pin: exact-match on the generators' synthetic addressing
          // (10.<rack>/16 + port index), action = throughput class on the
          // same output port.
          const std::uint32_t net16 = 0x0a000000u | (cfg_.rack << 16);
          net::Rule r;
          r.src_addr_value = net16 | i;
          r.src_addr_mask = 0xffffffffu;
          r.dst_addr_value = net16 | j;
          r.dst_addr_mask = 0xffffffffu;
          r.priority = 10;
          r.verdict = net::Verdict{j, net::TrafficClass::kThroughput};
          pinned_.emplace(k, controller_.install(r));
          ++pin_events_;
        }
      } else if (backlog <= cfg_.unpin_threshold_bytes) {
        controller_.remove(it->second);
        pinned_.erase(it);
        ++unpin_events_;
      }
    }
  }
  if (sim_.now() + cfg_.poll_period < horizon) {
    sim_.schedule(cfg_.poll_period, [this, horizon] { poll(horizon); });
  }
}

}  // namespace xdrs::control
