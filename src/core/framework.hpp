// HybridSwitchFramework: the paper's proposed system (Figure 2), assembled.
//
//   hosts/generators --> ProcessingLogic --requests--> SchedulingLogic
//        ^                    | VOQs                        |
//        |                    |<-------- grants ------------|  (after
//        |                    v                             v   configuring)
//      deliveries <---- OCS circuits / EPS <---- SwitchingLogic
//
// The framework owns the fabrics and the three logic partitions, wires
// their callbacks and aggregates a RunReport.  It rides a simulator it does
// not own: topo::FatTree builds every framework (a single switch is a
// 1-rack tree) and is the one driver of a run.
// The scheduling algorithm, demand estimator, circuit scheduler and timing
// model are pluggable — the "users implement novel design in the scheduling
// logic module" of §3.
#ifndef XDRS_CORE_FRAMEWORK_HPP
#define XDRS_CORE_FRAMEWORK_HPP

#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "schedulers/policy_registry.hpp"

#include "core/config.hpp"
#include "core/flow_tracker.hpp"
#include "core/policy_stack.hpp"
#include "core/processing_logic.hpp"
#include "core/scheduling_logic.hpp"
#include "core/switching_logic.hpp"
#include "net/classifier.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "switching/eps.hpp"
#include "switching/ocs.hpp"
#include "traffic/generators.hpp"

namespace xdrs::core {

class HybridSwitchFramework {
 public:
  /// Rides `shared`, which must outlive the framework: every ToR switch of
  /// a topology shares one event chain, and the topology drives the run
  /// through start_run() / begin_measurement() / finalize_run().  Throws
  /// std::invalid_argument on fewer than 2 ports, or on a kSlotted slot too
  /// short to carry one MTU before its window closes.
  HybridSwitchFramework(sim::Simulator& shared, FrameworkConfig cfg);

  HybridSwitchFramework(const HybridSwitchFramework&) = delete;
  HybridSwitchFramework& operator=(const HybridSwitchFramework&) = delete;

  // ---- pluggable scheduling logic ----------------------------------------
  /// Installs the whole policy stack by spec, constructing every component
  /// through the PolicyRegistry with this switch's context (ports, seed,
  /// reconfiguration cost).  The matcher is built only for kSlotted and the
  /// circuit scheduler only for kHybridEpoch — the stack's other spec may
  /// then name anything.  Throws std::invalid_argument on unknown specs.
  ///
  /// Bespoke (unregistered) policy objects can still be installed through
  /// scheduling().set_matcher() and friends; registering them instead makes
  /// them sweepable by name.
  void set_policies(const PolicyStack& stack);

  /// set_policies overload for the spec-string grammar, e.g.
  /// `set_policies("islip:4/instantaneous/hardware:500MHz")`.
  void set_policies(std::string_view stack_spec) { set_policies(PolicyStack::parse(stack_spec)); }

  /// Installs the default stack (PolicyStack{}): iSLIP(2) for kSlotted or
  /// Solstice for kHybridEpoch, instantaneous estimator, hardware timing.
  void use_default_policies() { set_policies(PolicyStack{}); }

  /// The registry context this framework constructs policies with.
  [[nodiscard]] schedulers::PolicyContext policy_context() const;

  // ---- workload -----------------------------------------------------------
  /// Applied to every packet a generator emits, before it is injected: the
  /// fat-tree placement stage retargets a locality-chosen fraction of flows
  /// at the uplink ports here.  A pure function of the packet (no simulator
  /// state), so placement is deterministic by construction.
  using IngressTransform = ProcessingLogic::Rewrite;

  /// Takes ownership; the generator starts when the run does.  The
  /// optional transform rewrites this generator's packets at injection time
  /// (empty = inject as emitted, the single-switch path).
  void add_generator(std::unique_ptr<traffic::TrafficGenerator> g,
                     IngressTransform transform = {});

  /// Direct injection (integration tests / custom drivers).  A non-null
  /// `transform` rewrites the switch's copy of the packet, not `p`.
  void inject(const net::Packet& p, const IngressTransform* transform = nullptr);

  /// Transit injection for packets arriving from another tier (fat-tree
  /// core links): ingests without offered-traffic accounting — the packet
  /// was already offered at its source rack.
  void reinject(const net::Packet& p);

  // ---- multi-rack hooks ---------------------------------------------------
  /// Delivery hook for cross-rack forwarding: a fabric delivery at port
  /// >= `first_uplink` is handed to `hook` (the fat-tree core tier) instead
  /// of being recorded as a final delivery.  Unset in single-switch runs.
  using UplinkHook = std::function<void(const net::Packet&, control::FabricPath)>;
  void set_uplink_hook(net::PortId first_uplink, UplinkHook hook);

  // ---- phased execution (driven by topo::FatTree::run) -------------------
  // The topology drives the phases on its shared simulator: start_run() on
  // every switch, advance the clock to the warmup boundary,
  // begin_measurement() on every switch, advance to the horizon,
  // finalize_run() on every switch.
  /// Starts scheduling and the generators; events run until `warmup +
  /// duration` (the horizon).  One-shot: a framework instance runs once.
  void start_run(sim::Time duration, sim::Time warmup = sim::Time::zero());
  /// Snapshots baselines and opens the measured window.  Call with the
  /// simulator stopped just short of the warmup boundary (FatTree::run()
  /// stops 1 ps early so boundary-stamped injections fall inside the
  /// window).
  void begin_measurement();
  /// Assembles and returns the measured-window report.  Call after the
  /// simulator reached the horizon.
  RunReport finalize_run();
  /// The run horizon (warmup + duration); valid after start_run().
  [[nodiscard]] sim::Time horizon() const noexcept { return horizon_; }

  // ---- telemetry (driven by topo::FatTree, which owns the bundle) ----------
  /// One timeline-sampler tick's worth of switch state; urgent backlog
  /// looks `urgent_horizon` ahead.  Settles the OCS's deferred deliveries
  /// to now first (OpticalCircuitSwitch::settle_to_now), so the state is
  /// what it would be had each delivery run as its own event; otherwise
  /// read-only.
  [[nodiscard]] obs::TimelineSnapshot timeline_snapshot(sim::Time urgent_horizon);

  /// Attaches the scheduling/switching stage timers to `registry`.
  void attach_stage_timers(obs::Registry* registry);

  // ---- component access (tests, benches, examples) ------------------------
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] sim::TraceRecorder& trace() noexcept { return trace_; }
  [[nodiscard]] net::Classifier& classifier() noexcept { return classifier_; }
  [[nodiscard]] ProcessingLogic& processing() noexcept { return processing_; }
  [[nodiscard]] SchedulingLogic& scheduling() noexcept { return scheduling_; }
  [[nodiscard]] SwitchingLogic& switching() noexcept { return switching_; }
  [[nodiscard]] switching::OpticalCircuitSwitch& ocs() noexcept { return ocs_; }
  [[nodiscard]] switching::ElectricalPacketSwitch& eps() noexcept { return eps_; }
  [[nodiscard]] const FrameworkConfig& config() const noexcept { return cfg_; }

 private:
  void wire();
  /// A fabric delivery at time `at` (now, or earlier for an OCS delivery
  /// settled late).
  void on_deliver(const net::Packet& p, control::FabricPath via, sim::Time at);

  FrameworkConfig cfg_;
  sim::Simulator& sim_;
  sim::TraceRecorder trace_;
  net::Classifier classifier_;
  control::SyncModel sync_;
  switching::OpticalCircuitSwitch ocs_;
  switching::ElectricalPacketSwitch eps_;
  SwitchingLogic switching_;
  ProcessingLogic processing_;
  SchedulingLogic scheduling_;
  struct AttachedGenerator {
    std::unique_ptr<traffic::TrafficGenerator> g;
    IngressTransform transform;  ///< empty on the single-switch path
  };
  std::vector<AttachedGenerator> generators_;

  // Multi-rack forwarding (unset in single-switch runs).
  net::PortId first_uplink_{0};
  UplinkHook uplink_hook_;

  // Measurement state (active after warmup).
  bool measuring_{false};
  bool ran_{false};
  bool measurement_begun_{false};
  sim::Time duration_{};
  sim::Time horizon_{};
  sim::Time measure_start_{};
  RunReport report_;
  std::unordered_map<net::FlowKey, stats::Rfc3550Jitter, net::FlowKeyHash> flow_jitter_;
  FlowCompletionTracker completion_;

  // Snapshots taken at measurement start, to report deltas.
  struct Baseline {
    std::uint64_t voq_drops{0};
    std::uint64_t eps_drops{0};
    std::uint64_t sync_losses{0};
    std::uint64_t reconfig_cuts{0};
    std::uint64_t reconfigurations{0};
    sim::Time dark_time{};
    sim::Time ocs_busy{};
    std::uint64_t decisions{0};
    sim::Time decision_latency_total{};
  } base_;
};

/// Convenience: an OCS reconfiguration cost expressed in bytes at the
/// configured link rate — the quantity Solstice amortises against.
[[nodiscard]] std::int64_t reconfig_cost_bytes(const FrameworkConfig& cfg);

}  // namespace xdrs::core

#endif  // XDRS_CORE_FRAMEWORK_HPP
