// The unified policy registry — one name-based construction surface for all
// four pluggable policy kinds of the scheduling logic (paper §3: "users
// implement novel design in the scheduling logic module"):
//
//   * matchers           "islip:4", "pim:2", "maxweight", ...
//   * circuit schedulers "solstice", "solstice:1.5", "cthrough", "tms:4", ...
//   * demand estimators  "instantaneous", "ewma:0.2", "windowed", ...
//   * timing models      "hardware", "hardware:500MHz", "software", "ideal", ...
//
// A spec string is "name[:arg]"; the argument's meaning belongs to the
// factory (iteration count, EWMA alpha, clock frequency, slot budget).
// Construction parameters that come from the switch rather than the spec
// (port count, seed, reconfiguration cost) travel in a PolicyContext.
//
// User code registers new algorithms without touching library source:
//
//   static const bool registered = [] {
//     PolicyRegistry::instance().register_matcher(
//         "mine", [](const PolicySpec&, const PolicyContext& ctx) {
//           return std::make_unique<MyMatcher>(ctx.ports);
//         });
//     return true;
//   }();
//
// after which "mine" works everywhere a spec string does: PolicyStack
// parsing, ScenarioSpec sweeps, the explorer CLI and the benches.
#ifndef XDRS_SCHEDULERS_POLICY_REGISTRY_HPP
#define XDRS_SCHEDULERS_POLICY_REGISTRY_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "control/timing.hpp"
#include "demand/estimator.hpp"
#include "schedulers/circuit_scheduler.hpp"
#include "schedulers/matcher.hpp"

namespace xdrs::schedulers {

enum class PolicyKind : std::uint8_t { kMatcher, kCircuit, kEstimator, kTiming };

[[nodiscard]] constexpr const char* to_string(PolicyKind k) noexcept {
  switch (k) {
    case PolicyKind::kMatcher: return "matcher";
    case PolicyKind::kCircuit: return "circuit";
    case PolicyKind::kEstimator: return "estimator";
    case PolicyKind::kTiming: return "timing";
  }
  return "?";
}

/// Switch-derived construction parameters, shared by every factory.
struct PolicyContext {
  std::uint32_t ports{8};
  std::uint64_t seed{1};
  /// Bytes a port could have carried during one OCS reconfiguration — the
  /// quantity amortising circuit schedulers charge per slot.
  std::int64_t reconfig_cost_bytes{0};
};

/// A parsed "name[:arg]" policy spec.
class PolicySpec {
 public:
  /// Splits at the first ':'.  "islip:4" -> {"islip", "4"}; "ilqf" ->
  /// {"ilqf", ""}.  A trailing ':' with no argument is rejected by the
  /// typed accessors below, not by parse.
  [[nodiscard]] static PolicySpec parse(std::string_view spec);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& arg() const noexcept { return arg_; }
  [[nodiscard]] bool has_arg() const noexcept { return has_arg_; }

  /// Argument as a positive integer (iteration counts, slot budgets).
  /// Throws std::invalid_argument on a missing-after-colon, malformed or
  /// zero argument; returns `fallback` when no ':' was present.
  [[nodiscard]] std::uint32_t uint_arg(std::uint32_t fallback) const;

  /// Argument as a double; same error contract as uint_arg.
  [[nodiscard]] double double_arg(double fallback) const;

  /// Argument as a clock frequency in MHz: "500", "500MHz" or "1.2GHz".
  [[nodiscard]] double mhz_arg(double fallback) const;

  /// The original spec string ("name:arg" or "name").
  [[nodiscard]] std::string str() const;

 private:
  std::string name_;
  std::string arg_;
  bool has_arg_{false};
};

class PolicyRegistry {
 public:
  using MatcherFactory =
      std::function<std::unique_ptr<MatchingAlgorithm>(const PolicySpec&, const PolicyContext&)>;
  using CircuitFactory =
      std::function<std::unique_ptr<CircuitScheduler>(const PolicySpec&, const PolicyContext&)>;
  using EstimatorFactory = std::function<std::unique_ptr<demand::DemandEstimator>(
      const PolicySpec&, const PolicyContext&)>;
  using TimingFactory = std::function<std::unique_ptr<control::SchedulerTimingModel>(
      const PolicySpec&, const PolicyContext&)>;

  /// The process-wide registry, with all built-in policies registered.
  [[nodiscard]] static PolicyRegistry& instance();

  // ---- registration --------------------------------------------------------
  // Each registers a factory under `name`; `example_specs` seeds
  // known_specs() (pass {} for aliases that should not show up there).
  // Throws std::invalid_argument if `name` is already taken for that kind.
  void register_matcher(const std::string& name, MatcherFactory f,
                        std::vector<std::string> example_specs = {});
  void register_circuit(const std::string& name, CircuitFactory f,
                        std::vector<std::string> example_specs = {});
  void register_estimator(const std::string& name, EstimatorFactory f,
                          std::vector<std::string> example_specs = {});
  void register_timing(const std::string& name, TimingFactory f,
                       std::vector<std::string> example_specs = {});

  // ---- construction --------------------------------------------------------
  // Throws std::invalid_argument on unknown names (message lists what is
  // registered) or malformed arguments.
  [[nodiscard]] std::unique_ptr<MatchingAlgorithm> make_matcher(
      std::string_view spec, const PolicyContext& ctx = {}) const;
  [[nodiscard]] std::unique_ptr<CircuitScheduler> make_circuit(
      std::string_view spec, const PolicyContext& ctx = {}) const;
  [[nodiscard]] std::unique_ptr<demand::DemandEstimator> make_estimator(
      std::string_view spec, const PolicyContext& ctx = {}) const;
  [[nodiscard]] std::unique_ptr<control::SchedulerTimingModel> make_timing(
      std::string_view spec, const PolicyContext& ctx = {}) const;

  // ---- introspection -------------------------------------------------------
  /// Representative constructible specs of one kind, sorted — the sweep set
  /// of the comparison benches and the round-trip tests.
  [[nodiscard]] std::vector<std::string> known_specs(PolicyKind kind) const;

  /// True when `name` (the part before any ':') is registered under `kind`.
  [[nodiscard]] bool knows(PolicyKind kind, std::string_view name) const;

  /// Every kind `name` is registered under — the classifier PolicyStack
  /// parsing uses to assign free-form segments.
  [[nodiscard]] std::vector<PolicyKind> kinds_of(std::string_view name) const;

 private:
  PolicyRegistry();  // registers the built-ins

  struct Entry {
    MatcherFactory matcher;
    CircuitFactory circuit;
    EstimatorFactory estimator;
    TimingFactory timing;
    std::vector<std::string> examples;
  };

  using Table = std::map<std::string, Entry, std::less<>>;

  [[nodiscard]] const Table& table(PolicyKind kind) const;
  [[nodiscard]] Table& table(PolicyKind kind);
  void register_entry(PolicyKind kind, const std::string& name, Entry entry);
  [[nodiscard]] const Entry& find(PolicyKind kind, const PolicySpec& spec) const;

  mutable std::mutex mutex_;
  Table matchers_, circuits_, estimators_, timings_;
};

}  // namespace xdrs::schedulers

#endif  // XDRS_SCHEDULERS_POLICY_REGISTRY_HPP
