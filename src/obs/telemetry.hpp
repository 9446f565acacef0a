// Per-run telemetry bundle: the metric registry plus the timeline sampler,
// owned by topo::FatTree and switched on with FatTree::enable_telemetry().
//
// The hard invariant (CI-gated): telemetry NEVER perturbs results.  It
// writes sidecar documents only — nothing here feeds RunReport::to_json()
// or ScenarioSpec::identity_json(), so artefacts are byte-identical with
// telemetry on and off, and cache keys are oblivious to it.
#ifndef XDRS_OBS_TELEMETRY_HPP
#define XDRS_OBS_TELEMETRY_HPP

#include <string>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "sim/time.hpp"

namespace xdrs::obs {

struct TelemetryConfig {
  /// Virtual-time distance between timeline samples.  zero = auto: the
  /// measured duration / 256, clamped to at least 1 us, derived at run().
  sim::Time sample_period{};
  /// Bound on every timeline series (stride decimation beyond it).
  std::size_t timeline_capacity{4096};
  /// Individual compute spans retained for Chrome-trace export (drop-newest
  /// past the bound).  0 = aggregate stage summaries only.
  std::size_t span_log_capacity{0};
};

/// The telemetry state of one run.
class RunTelemetry {
 public:
  explicit RunTelemetry(const TelemetryConfig& cfg)
      : config_{cfg}, timeline_{cfg.timeline_capacity} {
    registry_.enable();
    if (cfg.span_log_capacity > 0) registry_.reserve_span_log(cfg.span_log_capacity);
  }

  [[nodiscard]] Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const Registry& registry() const noexcept { return registry_; }
  [[nodiscard]] TimelineSampler& timeline() noexcept { return timeline_; }
  [[nodiscard]] const TimelineSampler& timeline() const noexcept { return timeline_; }
  [[nodiscard]] const TelemetryConfig& config() const noexcept { return config_; }

  /// The period the run actually sampled at (run() resolves auto-derivation
  /// and records it here for the sidecar).
  void set_resolved_period(sim::Time p) noexcept { resolved_period_ = p; }
  [[nodiscard]] sim::Time resolved_period() const noexcept { return resolved_period_; }

 private:
  TelemetryConfig config_;
  Registry registry_;
  TimelineSampler timeline_;
  sim::Time resolved_period_{};
};

/// The per-point telemetry sidecar document: identity header (point key,
/// spec hash, scenario), per-stage wall-clock summaries (count, total,
/// Welford mean/stddev, extrema, p50/p99 from the log-bucketed histogram),
/// counters, gauges, span-log accounting and the embedded timeline
/// document.  Sidecar-only by construction: callers write this next to —
/// never into — the result artefact.
[[nodiscard]] std::string telemetry_sidecar_json(const RunTelemetry& t, const std::string& key,
                                                 const std::string& spec_hash,
                                                 const std::string& scenario);

}  // namespace xdrs::obs

#endif  // XDRS_OBS_TELEMETRY_HPP
