#include "exp/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>

#include "traffic/deadline.hpp"
#include "traffic/empirical_cdf.hpp"
#include "traffic/trace_replay.hpp"

namespace xdrs::exp {

namespace {

/// Re-derives the workload fields that encode load/ports indirectly, so the
/// fluent mutators stay meaningful for every scenario kind: ON/OFF bursts
/// express load as a duty cycle (mean_off from mean_on), incast expresses
/// load x ports as the per-worker response size, trace replay derives its
/// time-scale factor from `load` at attach time (nothing stored here).
/// `load_changed` guards the ON/OFF case so hand-set mean_on/mean_off pairs
/// survive a ports change.  Derivation may clamp (duty into [0.05, 0.95],
/// response sizes up to one minimum frame); effective_workload_load()
/// reports the load that actually results, and fields()/identity_json()
/// record it, so clamping is visible in every artefact.
void rederive_workload(topo::WorkloadSpec& w, const core::FrameworkConfig& cfg,
                       bool load_changed) {
  using Kind = topo::WorkloadSpec::Kind;
  if (w.kind == Kind::kOnOffBursts && load_changed) {
    const double duty = std::clamp(w.load, 0.05, 0.95);
    w.mean_off = sim::Time::seconds_f(w.mean_on.sec() * (1.0 - duty) / duty);
  } else if (w.kind == Kind::kIncast) {
    const std::uint32_t workers = cfg.ports > 1 ? cfg.ports - 1 : 1;
    const std::int64_t window_bytes = cfg.link_rate.bytes_in(w.period);
    w.response_bytes = std::max<std::int64_t>(
        static_cast<std::int64_t>(w.load * static_cast<double>(window_bytes)) / workers,
        sim::kMinFrameBytes);
  }
}

}  // namespace

double effective_workload_load(const topo::WorkloadSpec& w,
                               const core::FrameworkConfig& cfg) noexcept {
  using Kind = topo::WorkloadSpec::Kind;
  switch (w.kind) {
    case Kind::kOnOffBursts: {
      const double on = w.mean_on.sec();
      const double off = w.mean_off.sec();
      return on + off > 0.0 ? on / (on + off) : 0.0;
    }
    case Kind::kIncast: {
      const std::uint32_t workers = cfg.ports > 1 ? cfg.ports - 1 : 1;
      const std::int64_t window_bytes = cfg.link_rate.bytes_in(w.period);
      if (window_bytes <= 0) return 0.0;
      return static_cast<double>(w.response_bytes) * static_cast<double>(workers) /
             static_cast<double>(window_bytes);
    }
    default:
      return w.load;
  }
}

// ------------------------------------------------------------ ScenarioSpec

ScenarioSpec& ScenarioSpec::with_ports(std::uint32_t ports) {
  config.ports = ports;
  for (auto& w : workloads) rederive_workload(w, config, /*load_changed=*/false);
  return *this;
}

ScenarioSpec& ScenarioSpec::with_load(double load) {
  // Shares are relative weights, normalised by their sum, so load() == load
  // afterwards for EVERY spec — composites whose shares sum to 1 split as
  // written, and a hand-assembled multi-workload spec that never touched
  // `share` (all-1.0 weights) splits evenly instead of silently offering
  // workloads.size() times the requested load.  Degenerate weights would
  // break that postcondition silently (a zeroed grid point still labelled
  // with its load), so they are an error instead.
  double total_share = 0.0;
  for (const auto& w : workloads) total_share += w.share;
  if (!workloads.empty() && (!std::isfinite(total_share) || total_share <= 0.0)) {
    throw std::invalid_argument{"ScenarioSpec::with_load: workload shares must be finite and "
                                "sum to a positive value"};
  }
  for (auto& w : workloads) {
    w.load = load * (w.share / total_share);
    rederive_workload(w, config, /*load_changed=*/true);
  }
  return *this;
}

ScenarioSpec& ScenarioSpec::with_policies(core::PolicyStack stack) {
  policies = std::move(stack);
  return *this;
}

ScenarioSpec& ScenarioSpec::with_matcher(std::string spec) {
  policies.matcher = std::move(spec);
  return *this;
}

ScenarioSpec& ScenarioSpec::with_circuit(std::string spec) {
  policies.circuit = std::move(spec);
  return *this;
}

ScenarioSpec& ScenarioSpec::with_timing(std::string model) {
  policies.timing = std::move(model);
  return *this;
}

ScenarioSpec& ScenarioSpec::with_estimator(std::string name) {
  policies.estimator = std::move(name);
  return *this;
}

ScenarioSpec& ScenarioSpec::with_seed(std::uint64_t seed) {
  config.seed = seed;
  std::uint64_t i = 0;
  for (auto& w : workloads) w.seed = seed + 100 * ++i;
  return *this;
}

ScenarioSpec& ScenarioSpec::with_window(sim::Time d, sim::Time w) {
  duration = d;
  warmup = w;
  return *this;
}

ScenarioSpec& ScenarioSpec::with_label(std::string l) {
  label = std::move(l);
  return *this;
}

ScenarioSpec& ScenarioSpec::with_racks(std::uint32_t racks) {
  if (racks == 0) throw std::invalid_argument{"ScenarioSpec::with_racks: racks must be >= 1"};
  topology.racks = racks;
  return *this;
}

ScenarioSpec& ScenarioSpec::with_oversubscription(double ratio) {
  if (!std::isfinite(ratio) || ratio <= 0.0) {
    throw std::invalid_argument{
        "ScenarioSpec::with_oversubscription: ratio must be finite and positive"};
  }
  topology.oversubscription = ratio;
  return *this;
}

ScenarioSpec& ScenarioSpec::with_locality(double locality) {
  if (!std::isfinite(locality) || locality < 0.0 || locality > 1.0) {
    throw std::invalid_argument{"ScenarioSpec::with_locality: locality must be in [0, 1]"};
  }
  for (auto& w : workloads) w.locality = locality;
  return *this;
}

double ScenarioSpec::locality() const noexcept {
  double total_share = 0.0;
  double weighted = 0.0;
  for (const auto& w : workloads) {
    total_share += w.share;
    weighted += w.share * w.locality;
  }
  return total_share > 0.0 ? weighted / total_share : 1.0;
}

double ScenarioSpec::load() const noexcept {
  double total = 0.0;
  for (const auto& w : workloads) total += w.load;
  return total;
}

double ScenarioSpec::effective_load() const noexcept {
  double total = 0.0;
  for (const auto& w : workloads) total += effective_workload_load(w, config);
  return total;
}

ScenarioSpec ScenarioSpec::composite(std::string scenario, const std::vector<ScenarioSpec>& parts,
                                     const std::vector<double>& shares) {
  if (parts.empty()) throw std::invalid_argument{"ScenarioSpec::composite: no parts"};
  if (shares.size() != parts.size()) {
    throw std::invalid_argument{"ScenarioSpec::composite: one share per part required"};
  }
  for (const double share : shares) {
    if (!std::isfinite(share) || share < 0.0) {
      throw std::invalid_argument{"ScenarioSpec::composite: shares must be finite and >= 0"};
    }
  }
  ScenarioSpec s = parts.front();  // anchor: config, policies, window, seed
  s.scenario = std::move(scenario);
  s.label.clear();
  s.workloads.clear();
  s.voip_pairs = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    // A zero-share part contributes overlays only (VOIP pairs below): its
    // workloads are dropped outright, because several kinds would still
    // emit traffic at load 0 (ON/OFF duty and incast responses are clamped
    // to a floor, trace replay rejects load 0 at materialize time).
    // Within a part, its workloads' own shares are normalised by their sum,
    // so the final weights mean "shares[i] of the total, split as the part
    // splits it" — and the very first with_load() reproduces exactly this
    // mix instead of silently reweighting it.
    double part_sum = 0.0;
    for (const auto& w : parts[i].workloads) part_sum += w.share;
    if (shares[i] != 0.0 && part_sum > 0.0) {
      for (topo::WorkloadSpec w : parts[i].workloads) {
        w.share = shares[i] * (w.share / part_sum);
        s.workloads.push_back(std::move(w));
      }
    }
    if (parts[i].voip_pairs > s.voip_pairs) {
      s.voip_pairs = parts[i].voip_pairs;
      s.voip_period = parts[i].voip_period;
      s.voip_packet_bytes = parts[i].voip_packet_bytes;
    }
  }
  // Re-spread workload seeds from the anchor seed (exactly with_seed()'s
  // scheme) so parts built from the same base seed never correlate, then
  // distribute the anchor's load across the merged mix — which also
  // re-derives every indirect load encoding.
  std::uint64_t i = 0;
  for (auto& w : s.workloads) w.seed = s.config.seed + 100 * ++i;
  if (!s.workloads.empty()) s.with_load(parts.front().load());
  return s;
}

std::string ScenarioSpec::key() const {
  // Every axis the built-in grids mutate must render distinctly: the
  // discipline (a mutator can flip slotted vs hybrid on one scenario), the
  // FULL policy stack (a grid axis can cross any of the four kinds) and
  // the load in shortest-round-trip form — format_double() loses no
  // precision, so loads differing in ANY bit get different keys, while 0.3
  // still prints "0.3" (test_presets asserts pairwise-distinct keys for
  // every preset).  Knobs outside these axes (window, share splits, trace
  // content) are deliberately not rendered — that is with_label()'s job,
  // and the cache identity is identity_json(), not this string.
  std::string k = scenario + '/' + to_string(config.discipline) + '/' + policies.to_string() +
                  "/p" + std::to_string(config.ports) + "/l" + stats::format_double(load()) +
                  "/s" + std::to_string(config.seed);
  // Topology axes render only for multi-rack points, so every pre-topology
  // key — and with it every committed artefact label — is unchanged.
  if (topology.multi_rack()) {
    k += "/r" + std::to_string(topology.racks) + "/o" +
         stats::format_double(topology.oversubscription) + "/loc" +
         stats::format_double(locality());
  }
  return k;
}

std::vector<stats::Field> ScenarioSpec::fields() const {
  using stats::Field;
  std::string names;
  for (const auto& w : workloads) {
    if (!names.empty()) names += '+';
    names += w.name();
  }
  std::vector<Field> f;
  f.reserve(15);
  f.push_back(Field::str("label", label.empty() ? key() : label));
  f.push_back(Field::str("scenario", scenario));
  f.push_back(Field::u64("ports", config.ports));
  f.push_back(Field::f64("load", load()));
  // The load the run actually offers: rederivation clamps at the edges
  // (ON/OFF duty, incast response floor), and artefacts must never claim a
  // load they did not run.
  f.push_back(Field::f64("effective_load", effective_load()));
  f.push_back(Field::str("discipline", to_string(config.discipline)));
  f.push_back(Field::str("matcher", policies.matcher));
  f.push_back(Field::str("circuit", policies.circuit));
  f.push_back(Field::str("estimator", policies.estimator));
  f.push_back(Field::str("timing", policies.timing));
  f.push_back(Field::str("workloads", names));
  f.push_back(Field::u64("seed", config.seed));
  f.push_back(Field::i64("spec_duration_ps", duration.ps()));
  f.push_back(Field::i64("warmup_ps", warmup.ps()));
  // Topology axes (appended, so pre-topology columns keep their positions;
  // single-switch points report the r1/o1/loc1 identity values).
  f.push_back(Field::u64("racks", topology.racks));
  f.push_back(Field::f64("oversubscription", topology.oversubscription));
  f.push_back(Field::f64("locality", locality()));
  return f;
}

std::string ScenarioSpec::identity_json() const {
  using stats::Field;
  std::vector<Field> f = fields();
  // Every behaviour-affecting FrameworkConfig knob fields() leaves out.  A
  // new config field MUST be added here, or specs differing only in it will
  // share cache entries; test_result_cache's axis-sensitivity test is the
  // reminder.
  f.push_back(Field::i64("link_rate_bps", config.link_rate.bits_per_sec()));
  f.push_back(Field::i64("eps_rate_bps", config.eps_rate.bits_per_sec()));
  f.push_back(Field::i64("link_latency_ps", config.link_latency.ps()));
  f.push_back(Field::i64("eps_latency_ps", config.eps_latency.ps()));
  f.push_back(Field::i64("ocs_fabric_latency_ps", config.ocs_fabric_latency.ps()));
  f.push_back(Field::i64("ocs_reconfig_ps", config.ocs_reconfig.ps()));
  f.push_back(Field::f64("ocs_failure_prob", config.ocs_failure_prob));
  f.push_back(Field::i64("eps_buffer_bytes", config.eps_buffer_bytes));
  f.push_back(Field::u64("eps_strict_priority", config.eps_strict_priority ? 1 : 0));
  f.push_back(Field::i64("voq_max_bytes", config.voq_limits.max_bytes_per_voq));
  f.push_back(Field::i64("voq_max_packets", config.voq_limits.max_packets_per_voq));
  f.push_back(Field::i64("voq_shared_bytes", config.voq_limits.shared_buffer_bytes));
  f.push_back(Field::str("placement", to_string(config.placement)));
  f.push_back(Field::i64("slot_time_ps", config.slot_time.ps()));
  f.push_back(Field::i64("epoch_ps", config.epoch.ps()));
  f.push_back(Field::i64("min_circuit_hold_ps", config.min_circuit_hold.ps()));
  f.push_back(Field::u64("eps_fallback_on_miss", config.eps_fallback_on_miss ? 1 : 0));
  f.push_back(Field::i64("sync_max_skew_ps", config.sync.max_skew.ps()));
  f.push_back(Field::i64("sync_jitter_ps", config.sync.jitter.ps()));
  f.push_back(Field::i64("sync_guard_band_ps", config.sync.guard_band.ps()));
  f.push_back(Field::u64("sync_seed", config.sync.seed));
  f.push_back(Field::u64("voip_pairs", voip_pairs));
  f.push_back(Field::i64("voip_period_ps", voip_period.ps()));
  f.push_back(Field::i64("voip_packet_bytes", voip_packet_bytes));
  // Topology knobs fields() leaves out; uplink count is derived but
  // recorded so a rounding change can never silently alias two specs.
  f.push_back(Field::i64("core_latency_ps", topology.core_latency.ps()));
  f.push_back(Field::i64("core_buffer_bytes", topology.core_buffer_bytes));
  f.push_back(Field::u64("uplink_ports",
                         topology.multi_rack() ? topology.uplinks(config.ports) : 0));

  std::string out = stats::to_json_object(f);
  out.pop_back();  // reopen to append the nested workload array
  out += ",\"workload_specs\":[";
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const topo::WorkloadSpec& w = workloads[i];
    if (i != 0) out += ',';
    std::vector<Field> wf{
        Field::u64("kind", static_cast<std::uint64_t>(w.kind)),
        Field::f64("load", w.load),
        Field::f64("effective_load", effective_workload_load(w, config)),
        Field::f64("share", w.share),
        Field::f64("skew", w.skew),
        Field::i64("mean_on_ps", w.mean_on.ps()),
        Field::i64("mean_off_ps", w.mean_off.ps()),
        Field::f64("elephant_fraction", w.elephant_fraction),
        Field::i64("period_ps", w.period.ps()),
        Field::i64("response_bytes", w.response_bytes),
        Field::f64("locality", w.locality),
        Field::u64("seed", w.seed),
    };
    if (w.kind == topo::WorkloadSpec::Kind::kTraceReplay) {
      // Content digest, never the path: editing the trace invalidates
      // cached results, renaming or relocating the file does not.
      wf.push_back(Field::str("trace_digest", traffic::trace_digest_hex(w.trace_path)));
    }
    if (w.kind == topo::WorkloadSpec::Kind::kEmpirical) {
      // Same content-not-path contract for empirical flow-size CDFs.
      wf.push_back(Field::str("cdf_digest", traffic::cdf_digest_hex(w.cdf_path)));
    }
    // Deadline model knobs: two specs differing only in their SLO model run
    // different packet streams (deadline stamps) and different completion
    // metrics, so the cache identity must separate them.
    wf.push_back(Field::str("deadline_kind", traffic::to_string(w.deadline.kind)));
    if (w.deadline.enabled()) {
      wf.push_back(Field::i64("deadline_fixed_ps", w.deadline.fixed.ps()));
      wf.push_back(Field::f64("deadline_slo_fraction", w.deadline.slo_fraction));
      wf.push_back(Field::i64("deadline_slack_ps", w.deadline.slack.ps()));
      if (w.deadline.kind == traffic::DeadlineSpec::Kind::kCdf) {
        // Content digest again: the deadline budget distribution is part of
        // what the point measured.
        wf.push_back(
            Field::str("deadline_cdf_digest", traffic::cdf_digest_hex(w.deadline.cdf_path)));
      }
    }
    out += stats::to_json_object(wf);
  }
  out += "]}";
  return out;
}

// ------------------------------------------------------------- materialize

std::unique_ptr<topo::FatTree> materialize(const ScenarioSpec& spec) {
  auto ft = std::make_unique<topo::FatTree>(spec.topology, spec.config);
  for (std::uint32_t r = 0; r < ft->racks(); ++r) {
    auto& fw = ft->rack(r);
    // The whole stack comes from the PolicyRegistry; scenario code needs no
    // by-name construction of its own, and user-registered policies are
    // immediately sweepable.
    fw.set_policies(spec.policies);
    for (const auto& w : spec.workloads) {
      // Offset the workload seed per rack so racks never emit correlated
      // streams; the placement transform hashes the BASE seed plus the rack
      // index itself, so host->rack assignment stays a pure function of the
      // spec.  (Per-port expansion multiplies the seed by 1000003, so +r
      // cannot collide across racks.)
      topo::WorkloadSpec wr = w;
      wr.seed = w.seed + r;
      topo::attach_workload(fw, wr, ft->placement_transform(r, w.locality, w.seed));
    }
    if (spec.voip_pairs > 0) {
      // Locality 1 keeps every stream in its rack; the transform only
      // rack-namespaces the tuple, like every other packet of rack r.
      topo::attach_voip(fw, spec.voip_pairs, spec.voip_period, spec.voip_packet_bytes,
                        spec.config.seed + 99 + r,
                        ft->placement_transform(r, 1.0, spec.config.seed));
    }
  }
  return ft;
}

core::RunReport run_scenario(const ScenarioSpec& spec) {
  return materialize(spec)->run(spec.duration, spec.warmup);
}

// ---------------------------------------------------------------- registry

namespace {

ScenarioSpec slotted_base(std::uint32_t ports, std::uint64_t seed) {
  ScenarioSpec s;
  s.config.ports = ports;
  s.config.discipline = core::SchedulingDiscipline::kSlotted;
  // ~10 MTUs per slot: decision + reconfiguration overhead stays small
  // against the slot, so the matcher — not slot quantisation — dominates.
  s.config.slot_time = sim::Time::nanoseconds(12'500);
  s.config.ocs_reconfig = sim::Time::nanoseconds(50);
  s.config.seed = seed;
  return s;
}

ScenarioSpec hybrid_base(std::uint32_t ports, std::uint64_t seed) {
  ScenarioSpec s;
  s.config.ports = ports;
  s.config.discipline = core::SchedulingDiscipline::kHybridEpoch;
  s.config.epoch = sim::Time::microseconds(100);
  s.config.ocs_reconfig = sim::Time::microseconds(1);
  s.config.min_circuit_hold = sim::Time::microseconds(10);
  s.config.seed = seed;
  return s;
}

topo::WorkloadSpec poisson(topo::WorkloadSpec::Kind kind, double load, double skew,
                           std::uint64_t seed) {
  topo::WorkloadSpec w;
  w.kind = kind;
  w.load = load;
  w.skew = skew;
  w.seed = seed;
  return w;
}

using Registry = std::map<std::string, ScenarioBuilder>;

Registry built_in_scenarios() {
  using Kind = topo::WorkloadSpec::Kind;
  Registry r;
  r["uniform"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    ScenarioSpec s = slotted_base(ports, seed);
    s.scenario = "uniform";
    s.workloads.push_back(poisson(Kind::kPoissonUniform, load, 0.0, seed + 100));
    return s;
  };
  r["hotspot"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    ScenarioSpec s = slotted_base(ports, seed);
    s.scenario = "hotspot";
    s.workloads.push_back(poisson(Kind::kPoissonHotspot, load, 0.5, seed + 100));
    return s;
  };
  r["zipf"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    ScenarioSpec s = slotted_base(ports, seed);
    s.scenario = "zipf";
    s.workloads.push_back(poisson(Kind::kPoissonZipf, load, 1.2, seed + 100));
    return s;
  };
  r["permutation"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    ScenarioSpec s = slotted_base(ports, seed);
    s.scenario = "permutation";
    s.workloads.push_back(poisson(Kind::kPermutation, load, 0.0, seed + 100));
    return s;
  };
  r["onoff"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    ScenarioSpec s = hybrid_base(ports, seed);
    s.scenario = "onoff";
    topo::WorkloadSpec w;
    w.kind = Kind::kOnOffBursts;
    w.load = load;  // line-rate bursts with duty cycle = load
    w.mean_on = sim::Time::microseconds(80);
    w.seed = seed + 100;
    rederive_workload(w, s.config, /*load_changed=*/true);
    s.workloads.push_back(w);
    return s;
  };
  r["flows"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    ScenarioSpec s = hybrid_base(ports, seed);
    s.scenario = "flows";
    s.workloads.push_back(poisson(Kind::kFlows, load, 0.0, seed + 100));
    return s;
  };
  r["shuffle"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    ScenarioSpec s = hybrid_base(ports, seed);
    s.scenario = "shuffle";
    topo::WorkloadSpec w = poisson(Kind::kShuffle, load, 0.0, seed + 100);
    w.elephant_fraction = 0.3;  // shuffle partitions skew long
    s.workloads.push_back(w);
    return s;
  };
  r["incast"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    ScenarioSpec s = hybrid_base(ports, seed);
    s.scenario = "incast";
    topo::WorkloadSpec w;
    w.kind = Kind::kIncast;
    w.load = load;  // response sizes make the aggregator downlink see `load`
    w.period = sim::Time::milliseconds(1);
    w.seed = seed + 100;
    rederive_workload(w, s.config, /*load_changed=*/true);
    s.workloads.push_back(w);
    return s;
  };
  r["voip"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    ScenarioSpec s = hybrid_base(ports, seed);
    s.scenario = "voip";
    s.workloads.push_back(poisson(Kind::kPoissonUniform, load, 0.0, seed + 100));
    s.voip_pairs = std::max(1u, ports / 2);
    return s;
  };
  r["trace"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    ScenarioSpec s = hybrid_base(ports, seed);
    s.scenario = "trace";
    topo::WorkloadSpec w;
    w.kind = Kind::kTraceReplay;
    w.trace_path = kDefaultTracePath;
    w.load = load;  // replay time-scales the trace to this aggregate load
    w.seed = seed + 100;
    s.workloads.push_back(w);
    return s;
  };
  // Empirical flow-size mixes: Poisson flow arrivals whose sizes follow
  // the published websearch (DCTCP) and datamining (VL2) CDFs — the
  // heavy-tailed distributions that decide whether size-aware policies
  // actually win.
  const auto empirical = [](const char* name, const char* cdf_path) {
    return [name, cdf_path](std::uint32_t ports, double load, std::uint64_t seed) {
      ScenarioSpec s = hybrid_base(ports, seed);
      s.scenario = name;
      topo::WorkloadSpec w;
      w.kind = Kind::kEmpirical;
      w.cdf_path = cdf_path;
      w.load = load;
      w.seed = seed + 100;
      s.workloads.push_back(w);
      return s;
    };
  };
  r["websearch"] = empirical("websearch", kWebsearchCdfPath);
  r["datamining"] = empirical("datamining", kDataminingCdfPath);
  // Deadline/SLO scenarios — the grids BENCH_sweep_deadline.json runs on.
  r["rpc_slo"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    // RPC fan-out with per-request SLOs riding on a deadline-blind uniform
    // background: every incast response flow must complete within a
    // size-proportional budget (service at >= 25% of line rate) plus 100 us
    // of scheduling slack, while the background competes for the fabric.
    ScenarioSpec fanout = make_scenario("incast", ports, load, seed);
    for (auto& w : fanout.workloads) {
      w.deadline.kind = traffic::DeadlineSpec::Kind::kSlo;
      w.deadline.slo_fraction = 0.25;
      w.deadline.slack = sim::Time::microseconds(100);
    }
    return ScenarioSpec::composite(
        "rpc_slo", {fanout, make_scenario("uniform", ports, load, seed)}, {0.5, 0.5});
  };
  r["websearch_dl"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    // Websearch flow sizes with completion deadlines drawn from the same
    // published CDF (budget = SLO-rate transmission time of a drawn byte
    // count + slack).  Slotted, so deadline/size-aware matchers (srpt_w)
    // can separate from deadline-blind ones on miss ratio.
    ScenarioSpec s = slotted_base(ports, seed);
    s.scenario = "websearch_dl";
    topo::WorkloadSpec w;
    w.kind = Kind::kEmpirical;
    w.cdf_path = kWebsearchCdfPath;
    w.load = load;
    w.deadline.kind = traffic::DeadlineSpec::Kind::kCdf;
    w.deadline.cdf_path = kWebsearchCdfPath;
    w.deadline.slo_fraction = 0.25;
    w.deadline.slack = sim::Time::microseconds(50);
    w.seed = seed + 100;
    s.workloads.push_back(w);
    return s;
  };
  // Composites: the bursty mixes the hybrid design is actually judged on —
  // heavy structured traffic riding on a background the EPS must keep
  // serving.  Shares split one load axis across the constituent workloads.
  r["incast+background"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    return ScenarioSpec::composite("incast+background",
                                   {make_scenario("incast", ports, load, seed),
                                    make_scenario("uniform", ports, load, seed)},
                                   {0.4, 0.6});
  };
  r["shuffle+voip"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    // The zero-share voip part contributes only its CBR overlay; its
    // background workload is dropped by composite().
    return ScenarioSpec::composite("shuffle+voip",
                                   {make_scenario("shuffle", ports, load, seed),
                                    make_scenario("voip", ports, load, seed)},
                                   {1.0, 0.0});
  };
  r["onoff+mice"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    ScenarioSpec mice = make_scenario("flows", ports, load, seed);
    for (auto& w : mice.workloads) w.elephant_fraction = 0.02;  // mice-dominated
    return ScenarioSpec::composite("onoff+mice",
                                   {make_scenario("onoff", ports, load, seed), mice},
                                   {0.5, 0.5});
  };
  r["websearch+incast"] = [](std::uint32_t ports, double load, std::uint64_t seed) {
    // The paper-style stress mix: a realistic websearch background with a
    // partition/aggregate fan-in riding on top of it.
    return ScenarioSpec::composite("websearch+incast",
                                   {make_scenario("websearch", ports, load, seed),
                                    make_scenario("incast", ports, load, seed)},
                                   {0.6, 0.4});
  };
  return r;
}

std::mutex g_registry_mutex;

Registry& registry() {
  static Registry r = built_in_scenarios();
  return r;
}

}  // namespace

void register_scenario(const std::string& name, ScenarioBuilder builder) {
  if (!builder) throw std::invalid_argument{"register_scenario: null builder"};
  const std::lock_guard<std::mutex> lock{g_registry_mutex};
  const auto [it, inserted] = registry().emplace(name, std::move(builder));
  if (!inserted) {
    throw std::invalid_argument{"register_scenario: '" + name + "' already registered"};
  }
}

ScenarioSpec make_scenario(const std::string& name, std::uint32_t ports, double load,
                           std::uint64_t seed) {
  ScenarioBuilder builder;
  {
    const std::lock_guard<std::mutex> lock{g_registry_mutex};
    const auto it = registry().find(name);
    if (it == registry().end()) {
      std::string known;
      for (const auto& [n, b] : registry()) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      throw std::invalid_argument{"make_scenario: unknown scenario '" + name +
                                  "' (known: " + known + ")"};
    }
    builder = it->second;
  }
  ScenarioSpec s = builder(ports, load, seed);
  if (s.scenario.empty()) s.scenario = name;
  return s;
}

std::vector<std::string> known_scenarios() {
  const std::lock_guard<std::mutex> lock{g_registry_mutex};
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [n, b] : registry()) names.push_back(n);
  return names;  // std::map iterates sorted
}

}  // namespace xdrs::exp
