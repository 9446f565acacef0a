// PolicyStack: the full pluggable-policy selection of one switch, as a
// copyable value of four spec strings — matcher, circuit scheduler, demand
// estimator and timing model.  It replaces the four individual framework
// setters: a framework is configured with one stack
//
//   framework.set_policies(core::PolicyStack::parse("islip:2/instantaneous/hardware"));
//
// and sweep artifacts (ScenarioSpec, RunReport) serialize the stack so every
// recorded point names exactly what scheduled it.
//
// Spec grammar: segments separated by '/'.  Each segment is either
//   * a bare policy spec ("islip:4", "ewma:0.2") — classified by asking the
//     PolicyRegistry which kind registered that name, or
//   * an explicit "kind=spec" pair ("matcher=islip:4") for names registered
//     under more than one kind.
// Omitted kinds keep their defaults (islip:2 / solstice / instantaneous /
// hardware), so "solstice:1.5" alone is a valid hybrid stack.
#ifndef XDRS_CORE_POLICY_STACK_HPP
#define XDRS_CORE_POLICY_STACK_HPP

#include <string>
#include <string_view>

namespace xdrs::core {

struct PolicyStack {
  std::string matcher{"islip:2"};
  std::string circuit{"solstice"};
  std::string estimator{"instantaneous"};
  std::string timing{"hardware"};

  /// Parses the '/'-separated grammar above.  Throws std::invalid_argument
  /// on unknown policy names, ambiguous bare segments, duplicate kinds and
  /// malformed "kind=spec" pairs.
  [[nodiscard]] static PolicyStack parse(std::string_view spec);

  /// Canonical "matcher/circuit/estimator/timing" rendering; parse() of the
  /// result reproduces the stack as long as every name stays registered.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool operator==(const PolicyStack& other) const = default;

  // Fluent mutators for grid construction.
  PolicyStack& with_matcher(std::string spec) {
    matcher = std::move(spec);
    return *this;
  }
  PolicyStack& with_circuit(std::string spec) {
    circuit = std::move(spec);
    return *this;
  }
  PolicyStack& with_estimator(std::string spec) {
    estimator = std::move(spec);
    return *this;
  }
  PolicyStack& with_timing(std::string spec) {
    timing = std::move(spec);
    return *this;
  }
};

}  // namespace xdrs::core

#endif  // XDRS_CORE_POLICY_STACK_HPP
