#include "schedulers/policy_registry.hpp"

#include <charconv>
#include <stdexcept>

#include "schedulers/baselines.hpp"
#include "schedulers/bvn.hpp"
#include "schedulers/greedy.hpp"
#include "schedulers/hopcroft_karp.hpp"
#include "schedulers/hungarian.hpp"
#include "schedulers/rga.hpp"
#include "schedulers/rotor.hpp"
#include "demand/edf.hpp"
#include "schedulers/serena.hpp"
#include "schedulers/solstice.hpp"
#include "schedulers/srpt.hpp"
#include "schedulers/wavefront.hpp"

namespace xdrs::schedulers {

// ----------------------------------------------------------------- PolicySpec

PolicySpec PolicySpec::parse(std::string_view spec) {
  PolicySpec p;
  const auto colon = spec.find(':');
  if (colon == std::string_view::npos) {
    p.name_ = std::string{spec};
  } else {
    p.name_ = std::string{spec.substr(0, colon)};
    p.arg_ = std::string{spec.substr(colon + 1)};
    p.has_arg_ = true;
  }
  return p;
}

std::uint32_t PolicySpec::uint_arg(std::uint32_t fallback) const {
  if (!has_arg_) return fallback;
  std::uint32_t v = 0;
  const char* end = arg_.data() + arg_.size();
  const auto [ptr, ec] = std::from_chars(arg_.data(), end, v);
  if (ec != std::errc{} || ptr != end || v == 0) {
    throw std::invalid_argument{"policy spec '" + str() + "': bad integer argument"};
  }
  return v;
}

double PolicySpec::double_arg(double fallback) const {
  if (!has_arg_) return fallback;
  double v = 0.0;
  const char* end = arg_.data() + arg_.size();
  const auto [ptr, ec] = std::from_chars(arg_.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument{"policy spec '" + str() + "': bad numeric argument"};
  }
  return v;
}

double PolicySpec::mhz_arg(double fallback) const {
  if (!has_arg_) return fallback;
  std::string_view s{arg_};
  double scale = 1.0;
  if (s.size() > 3 && (s.ends_with("MHz") || s.ends_with("mhz"))) {
    s.remove_suffix(3);
  } else if (s.size() > 3 && (s.ends_with("GHz") || s.ends_with("ghz"))) {
    s.remove_suffix(3);
    scale = 1000.0;
  }
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size() || v <= 0.0) {
    throw std::invalid_argument{"policy spec '" + str() +
                                "': bad frequency (want e.g. '500MHz' or '1.2GHz')"};
  }
  return v * scale;
}

std::string PolicySpec::str() const { return has_arg_ ? name_ + ":" + arg_ : name_; }

// ------------------------------------------------------------- PolicyRegistry

PolicyRegistry& PolicyRegistry::instance() {
  static PolicyRegistry r;
  return r;
}

const PolicyRegistry::Table& PolicyRegistry::table(PolicyKind kind) const {
  switch (kind) {
    case PolicyKind::kMatcher: return matchers_;
    case PolicyKind::kCircuit: return circuits_;
    case PolicyKind::kEstimator: return estimators_;
    case PolicyKind::kTiming: return timings_;
  }
  throw std::logic_error{"PolicyRegistry: bad kind"};
}

PolicyRegistry::Table& PolicyRegistry::table(PolicyKind kind) {
  return const_cast<Table&>(static_cast<const PolicyRegistry*>(this)->table(kind));
}

void PolicyRegistry::register_entry(PolicyKind kind, const std::string& name, Entry entry) {
  if (name.empty() || name.find(':') != std::string::npos || name.find('/') != std::string::npos) {
    throw std::invalid_argument{"PolicyRegistry: policy name '" + name +
                                "' must be non-empty and contain no ':' or '/'"};
  }
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto [it, inserted] = table(kind).emplace(name, std::move(entry));
  if (!inserted) {
    throw std::invalid_argument{"PolicyRegistry: " + std::string{to_string(kind)} + " '" + name +
                                "' already registered"};
  }
}

void PolicyRegistry::register_matcher(const std::string& name, MatcherFactory f,
                                      std::vector<std::string> example_specs) {
  Entry e;
  e.matcher = std::move(f);
  e.examples = std::move(example_specs);
  register_entry(PolicyKind::kMatcher, name, std::move(e));
}

void PolicyRegistry::register_circuit(const std::string& name, CircuitFactory f,
                                      std::vector<std::string> example_specs) {
  Entry e;
  e.circuit = std::move(f);
  e.examples = std::move(example_specs);
  register_entry(PolicyKind::kCircuit, name, std::move(e));
}

void PolicyRegistry::register_estimator(const std::string& name, EstimatorFactory f,
                                        std::vector<std::string> example_specs) {
  Entry e;
  e.estimator = std::move(f);
  e.examples = std::move(example_specs);
  register_entry(PolicyKind::kEstimator, name, std::move(e));
}

void PolicyRegistry::register_timing(const std::string& name, TimingFactory f,
                                     std::vector<std::string> example_specs) {
  Entry e;
  e.timing = std::move(f);
  e.examples = std::move(example_specs);
  register_entry(PolicyKind::kTiming, name, std::move(e));
}

const PolicyRegistry::Entry& PolicyRegistry::find(PolicyKind kind, const PolicySpec& spec) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  const Table& t = table(kind);
  const auto it = t.find(spec.name());
  if (it == t.end()) {
    std::string known;
    for (const auto& [n, e] : t) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument{"PolicyRegistry: unknown " + std::string{to_string(kind)} + " '" +
                                spec.str() + "' (known: " + known + ")"};
  }
  return it->second;
}

std::unique_ptr<MatchingAlgorithm> PolicyRegistry::make_matcher(std::string_view spec,
                                                                const PolicyContext& ctx) const {
  const PolicySpec p = PolicySpec::parse(spec);
  return find(PolicyKind::kMatcher, p).matcher(p, ctx);
}

std::unique_ptr<CircuitScheduler> PolicyRegistry::make_circuit(std::string_view spec,
                                                               const PolicyContext& ctx) const {
  const PolicySpec p = PolicySpec::parse(spec);
  return find(PolicyKind::kCircuit, p).circuit(p, ctx);
}

std::unique_ptr<demand::DemandEstimator> PolicyRegistry::make_estimator(
    std::string_view spec, const PolicyContext& ctx) const {
  const PolicySpec p = PolicySpec::parse(spec);
  return find(PolicyKind::kEstimator, p).estimator(p, ctx);
}

std::unique_ptr<control::SchedulerTimingModel> PolicyRegistry::make_timing(
    std::string_view spec, const PolicyContext& ctx) const {
  const PolicySpec p = PolicySpec::parse(spec);
  return find(PolicyKind::kTiming, p).timing(p, ctx);
}

std::vector<std::string> PolicyRegistry::known_specs(PolicyKind kind) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::vector<std::string> specs;
  for (const auto& [name, entry] : table(kind)) {
    specs.insert(specs.end(), entry.examples.begin(), entry.examples.end());
  }
  return specs;  // map order keeps this deterministic and near-sorted
}

bool PolicyRegistry::knows(PolicyKind kind, std::string_view name) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  const Table& t = table(kind);
  return t.find(name) != t.end();
}

std::vector<PolicyKind> PolicyRegistry::kinds_of(std::string_view name) const {
  std::vector<PolicyKind> kinds;
  for (const PolicyKind k : {PolicyKind::kMatcher, PolicyKind::kCircuit, PolicyKind::kEstimator,
                             PolicyKind::kTiming}) {
    if (knows(k, name)) kinds.push_back(k);
  }
  return kinds;
}

// ------------------------------------------------------------------ built-ins

PolicyRegistry::PolicyRegistry() {
  // ---- matchers: the RGA family takes an iteration count ------------------
  register_matcher(
      "rrm",
      [](const PolicySpec& s, const PolicyContext& c) -> std::unique_ptr<MatchingAlgorithm> {
        return std::make_unique<RrmMatcher>(c.ports, s.uint_arg(1));
      },
      {"rrm:1"});
  register_matcher(
      "islip",
      [](const PolicySpec& s, const PolicyContext& c) -> std::unique_ptr<MatchingAlgorithm> {
        return std::make_unique<IslipMatcher>(c.ports, s.uint_arg(1));
      },
      {"islip:1", "islip:4"});
  register_matcher(
      "pim",
      [](const PolicySpec& s, const PolicyContext& c) -> std::unique_ptr<MatchingAlgorithm> {
        return std::make_unique<PimMatcher>(c.ports, s.uint_arg(1), c.seed);
      },
      {"pim:1", "pim:4"});
  register_matcher(
      "ilqf",
      [](const PolicySpec&, const PolicyContext&) -> std::unique_ptr<MatchingAlgorithm> {
        return std::make_unique<GreedyMaxWeightMatcher>();
      },
      {"ilqf"});
  register_matcher(
      "maxweight",
      [](const PolicySpec&, const PolicyContext&) -> std::unique_ptr<MatchingAlgorithm> {
        return std::make_unique<HungarianMatcher>();
      },
      {"maxweight"});
  register_matcher(
      "maxsize",
      [](const PolicySpec&, const PolicyContext&) -> std::unique_ptr<MatchingAlgorithm> {
        return std::make_unique<MaxSizeMatcher>();
      },
      {"maxsize"});
  register_matcher(
      "rotor",
      [](const PolicySpec&, const PolicyContext& c) -> std::unique_ptr<MatchingAlgorithm> {
        return std::make_unique<RotorMatcher>(c.ports);
      },
      {"rotor"});
  register_matcher(
      "wavefront",
      [](const PolicySpec&, const PolicyContext& c) -> std::unique_ptr<MatchingAlgorithm> {
        return std::make_unique<WavefrontMatcher>(c.ports);
      },
      {"wavefront"});
  register_matcher(
      "serena",
      [](const PolicySpec&, const PolicyContext& c) -> std::unique_ptr<MatchingAlgorithm> {
        return std::make_unique<SerenaMatcher>(c.ports, c.seed);
      },
      {"serena"});
  register_matcher(
      "srpt_w",
      [](const PolicySpec& s, const PolicyContext&) -> std::unique_ptr<MatchingAlgorithm> {
        // Optional argument: urgency steepness gamma ("srpt_w:2.0").
        const double gamma = s.double_arg(1.0);
        if (gamma <= 0.0) {
          throw std::invalid_argument{"policy spec '" + s.str() + "': gamma must be positive"};
        }
        return std::make_unique<SrptWeightedMatcher>(gamma);
      },
      {"srpt_w:2"});

  // ---- circuit schedulers -------------------------------------------------
  register_circuit(
      "solstice",
      [](const PolicySpec& s, const PolicyContext& c) -> std::unique_ptr<CircuitScheduler> {
        SolsticeConfig sc;
        sc.reconfig_cost_bytes = c.reconfig_cost_bytes;
        sc.max_slots = c.ports;
        // Optional argument: minimum amortisation factor ("solstice:1.5");
        // an explicit 0 disables the threshold, no argument keeps the
        // library default.
        if (s.has_arg()) {
          const double amort = s.double_arg(0.0);
          if (amort < 0.0) {
            throw std::invalid_argument{"policy spec '" + s.str() +
                                        "': amortisation factor must be >= 0"};
          }
          sc.min_amortisation = amort;
        }
        return std::make_unique<SolsticeScheduler>(sc);
      },
      {"solstice"});
  register_circuit(
      "cthrough",
      [](const PolicySpec&, const PolicyContext&) -> std::unique_ptr<CircuitScheduler> {
        return std::make_unique<CThroughScheduler>();
      },
      {"cthrough"});
  register_circuit(
      "tms",
      [](const PolicySpec& s, const PolicyContext&) -> std::unique_ptr<CircuitScheduler> {
        return std::make_unique<TmsScheduler>(s.uint_arg(4));
      },
      {"tms:4"});
  register_circuit(
      "bvn",
      [](const PolicySpec& s, const PolicyContext& c) -> std::unique_ptr<CircuitScheduler> {
        return std::make_unique<BvnScheduler>(s.uint_arg(c.ports));
      },
      {"bvn:4"});

  // ---- demand estimators --------------------------------------------------
  register_estimator(
      "instantaneous",
      [](const PolicySpec&, const PolicyContext& c) -> std::unique_ptr<demand::DemandEstimator> {
        return std::make_unique<demand::InstantaneousEstimator>(c.ports, c.ports);
      },
      {"instantaneous"});
  register_estimator(
      "ewma",
      [](const PolicySpec& s, const PolicyContext& c) -> std::unique_ptr<demand::DemandEstimator> {
        const double alpha = s.double_arg(0.25);
        if (alpha <= 0.0 || alpha > 1.0) {
          throw std::invalid_argument{"policy spec '" + s.str() +
                                      "': EWMA alpha must be in (0, 1]"};
        }
        return std::make_unique<demand::EwmaEstimator>(c.ports, c.ports, alpha);
      },
      {"ewma:0.25"});
  register_estimator(
      "edf",
      [](const PolicySpec& s, const PolicyContext& c) -> std::unique_ptr<demand::DemandEstimator> {
        // Optional argument: urgency boost ("edf:4"); default 4 weights a
        // queue due within one epoch at 5x its raw backlog.
        const double boost = s.double_arg(4.0);
        if (boost <= 0.0) {
          throw std::invalid_argument{"policy spec '" + s.str() + "': boost must be positive"};
        }
        return std::make_unique<demand::EdfEstimator>(c.ports, c.ports, boost);
      },
      {"edf"});
  register_estimator(
      "windowed",
      [](const PolicySpec& s, const PolicyContext& c) -> std::unique_ptr<demand::DemandEstimator> {
        // Optional argument: bucket width in microseconds ("windowed:25").
        const double bucket_us = s.double_arg(25.0);
        if (bucket_us <= 0.0) {
          throw std::invalid_argument{"policy spec '" + s.str() +
                                      "': bucket width must be positive"};
        }
        return std::make_unique<demand::WindowedRateEstimator>(
            c.ports, c.ports, sim::Time::nanoseconds(static_cast<std::int64_t>(bucket_us * 1e3)),
            4);
      },
      {"windowed"});

  // ---- timing models ------------------------------------------------------
  const auto hardware_factory =
      [](const PolicySpec& s,
         const PolicyContext&) -> std::unique_ptr<control::SchedulerTimingModel> {
    control::HardwareTimingConfig cfg;
    // Optional argument: pipeline clock ("hardware:500MHz"); default is the
    // 156.25 MHz NetFPGA-SUME datapath clock baked into the config.
    const double mhz = s.mhz_arg(0.0);
    if (mhz > 0.0) {
      cfg.clock_period = sim::Time::picoseconds(static_cast<std::int64_t>(1e6 / mhz));
    }
    return std::make_unique<control::HardwareSchedulerTimingModel>(cfg);
  };
  register_timing("hardware", hardware_factory, {"hardware", "hardware:500MHz"});
  register_timing("hw", hardware_factory);  // alias; perfbench's timing grid still spells it
  const auto software_factory =
      [](const PolicySpec&,
         const PolicyContext&) -> std::unique_ptr<control::SchedulerTimingModel> {
    return std::make_unique<control::SoftwareSchedulerTimingModel>();
  };
  register_timing("software", software_factory, {"software"});
  register_timing(
      "distributed",
      [](const PolicySpec&,
         const PolicyContext&) -> std::unique_ptr<control::SchedulerTimingModel> {
        return std::make_unique<control::DistributedSchedulerTimingModel>();
      },
      {"distributed"});
  register_timing(
      "ideal",
      [](const PolicySpec&,
         const PolicyContext&) -> std::unique_ptr<control::SchedulerTimingModel> {
        return std::make_unique<control::IdealTimingModel>();
      },
      {"ideal"});
}

}  // namespace xdrs::schedulers
