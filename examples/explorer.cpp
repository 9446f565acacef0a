// explorer — command-line experiment runner for the framework.
//
//   $ ./examples/explorer --ports=16 --scheduler=islip:4 --discipline=slotted
//         --load=0.7 --pattern=uniform --duration-ms=20
//   $ ./examples/explorer --discipline=hybrid --circuit=solstice
//         --pattern=onoff --reconfig-us=10 --placement=host
//
// Every knob of the public API is reachable from flags, so parameter sweeps
// can be scripted without writing C++ — the "rapid prototyping and
// evaluation" loop of the paper, as a tool.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>

#include "core/framework.hpp"
#include "topo/fat_tree.hpp"
#include "topo/testbed.hpp"

namespace {

using namespace xdrs;
using sim::Time;

struct Options {
  std::uint32_t ports{8};
  std::string scheduler{"islip:2"};   // slotted matcher spec
  std::string circuit{"solstice"};    // hybrid circuit scheduler
  std::string discipline{"hybrid"};   // hybrid | slotted
  std::string placement{"tor"};       // tor | host
  std::string timing{"hardware"};     // hardware | software | distributed
  std::string pattern{"uniform"};     // uniform|hotspot|zipf|permutation|onoff|flows|shuffle|incast
  double load{0.5};
  double skew{0.5};
  std::int64_t reconfig_us{1};
  std::int64_t epoch_us{100};
  std::int64_t slot_ns{12'500};
  std::int64_t duration_ms{10};
  std::int64_t warmup_ms{2};
  std::uint64_t seed{7};
  bool voip{false};
  bool help{false};
};

void usage() {
  std::puts(
      "explorer — run one hybrid-switch scheduling experiment\n"
      "  --ports=N           switch size (default 8)\n"
      "  --discipline=D      hybrid | slotted (default hybrid)\n"
      "  --scheduler=S       slotted matcher spec: rrm[:i] islip[:i] pim[:i] ilqf\n"
      "                      maxweight maxsize rotor wavefront serena\n"
      "  --circuit=C         hybrid planner spec: solstice[:amort] | cthrough |\n"
      "                      tms[:k] | bvn[:slots]\n"
      "  --placement=P       tor | host (Figure 1 regimes)\n"
      "  --timing=T          timing spec: hardware | hardware:500MHz | software |\n"
      "                      distributed | ideal\n"
      "  --pattern=W         uniform|hotspot|zipf|permutation|onoff|flows|shuffle|incast\n"
      "  --load=F            per-port offered load in [0,1]\n"
      "  --skew=F            hotspot fraction / zipf exponent\n"
      "  --reconfig-us=N     OCS dark time\n"
      "  --epoch-us=N        hybrid replanning period\n"
      "  --slot-ns=N         slotted slot length\n"
      "  --duration-ms=N     measured simulated time\n"
      "  --warmup-ms=N       unmeasured warm-up\n"
      "  --voip              add latency-sensitive CBR streams\n"
      "  --seed=N            workload seed\n");
}

bool parse(int argc, char** argv, Options& opt) {
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--help" || key == "-h") {
      opt.help = true;
    } else if (key == "--ports") {
      opt.ports = static_cast<std::uint32_t>(std::stoul(val));
    } else if (key == "--scheduler") {
      opt.scheduler = val;
    } else if (key == "--circuit") {
      opt.circuit = val;
    } else if (key == "--discipline") {
      opt.discipline = val;
    } else if (key == "--placement") {
      opt.placement = val;
    } else if (key == "--timing") {
      opt.timing = val;
    } else if (key == "--pattern") {
      opt.pattern = val;
    } else if (key == "--load") {
      opt.load = std::stod(val);
    } else if (key == "--skew") {
      opt.skew = std::stod(val);
    } else if (key == "--reconfig-us") {
      opt.reconfig_us = std::stoll(val);
    } else if (key == "--epoch-us") {
      opt.epoch_us = std::stoll(val);
    } else if (key == "--slot-ns") {
      opt.slot_ns = std::stoll(val);
    } else if (key == "--duration-ms") {
      opt.duration_ms = std::stoll(val);
    } else if (key == "--warmup-ms") {
      opt.warmup_ms = std::stoll(val);
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--voip") {
      opt.voip = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", key.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  if (opt.help) {
    usage();
    return 0;
  }

  core::FrameworkConfig cfg;
  cfg.ports = opt.ports;
  cfg.ocs_reconfig = Time::microseconds(opt.reconfig_us);
  cfg.epoch = Time::microseconds(opt.epoch_us);
  cfg.slot_time = Time::nanoseconds(opt.slot_ns);
  cfg.min_circuit_hold = Time::microseconds(std::max<std::int64_t>(opt.epoch_us / 10, 1));
  cfg.discipline = opt.discipline == "slotted" ? core::SchedulingDiscipline::kSlotted
                                               : core::SchedulingDiscipline::kHybridEpoch;
  cfg.placement = opt.placement == "host" ? core::BufferPlacement::kHost
                                          : core::BufferPlacement::kToRSwitch;
  cfg.seed = opt.seed;

  // Every flag is a PolicyRegistry spec, so user-registered algorithms work
  // here without touching the explorer.
  core::PolicyStack stack;
  stack.matcher = opt.scheduler;
  stack.circuit = opt.circuit;
  stack.timing = opt.timing;
  // A bad config (say, a slot too short for one MTU) or spec is a usage
  // error, not a crash.
  std::optional<topo::FatTree> ft;
  try {
    ft.emplace(topo::TopologySpec{}, cfg);
    ft->rack(0).set_policies(stack);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  core::HybridSwitchFramework& fw = ft->rack(0);

  const std::map<std::string, topo::WorkloadSpec::Kind> kinds{
      {"uniform", topo::WorkloadSpec::Kind::kPoissonUniform},
      {"hotspot", topo::WorkloadSpec::Kind::kPoissonHotspot},
      {"zipf", topo::WorkloadSpec::Kind::kPoissonZipf},
      {"permutation", topo::WorkloadSpec::Kind::kPermutation},
      {"onoff", topo::WorkloadSpec::Kind::kOnOffBursts},
      {"flows", topo::WorkloadSpec::Kind::kFlows},
      {"shuffle", topo::WorkloadSpec::Kind::kShuffle},
      {"incast", topo::WorkloadSpec::Kind::kIncast},
  };
  const auto kind = kinds.find(opt.pattern);
  if (kind == kinds.end()) {
    std::fprintf(stderr, "unknown pattern: %s\n", opt.pattern.c_str());
    return 2;
  }
  topo::WorkloadSpec spec;
  spec.kind = kind->second;
  spec.load = opt.load;
  spec.skew = opt.skew;
  spec.seed = opt.seed;
  topo::attach_workload(fw, spec);
  if (opt.voip) topo::attach_voip(fw, std::min(opt.ports / 2, 8u), Time::microseconds(20), 200);

  const core::RunReport r =
      ft->run(Time::milliseconds(opt.duration_ms), Time::milliseconds(opt.warmup_ms));

  std::printf("config     : %u ports, %s, %s, %s timing, pattern=%s load=%.2f\n", cfg.ports,
              to_string(cfg.discipline), to_string(cfg.placement), opt.timing.c_str(),
              opt.pattern.c_str(), opt.load);
  std::printf("report     : %s\n", r.summary().c_str());
  std::printf("throughput : %.3f of capacity (service %.3f)\n",
              r.throughput_fraction(cfg.link_rate, cfg.ports),
              r.service_fraction(cfg.link_rate, cfg.ports));
  std::printf("latency    : p50=%s p99=%s\n", r.latency.quantile_time(0.5).to_string().c_str(),
              r.latency.quantile_time(0.99).to_string().c_str());
  if (r.latency_sensitive.count() > 0) {
    std::printf("voip       : p99=%s jitter=%.2fus\n",
                r.latency_sensitive.quantile_time(0.99).to_string().c_str(),
                r.jitter_us.mean());
  }
  std::printf("buffering  : switch peak=%s worst host=%s\n",
              sim::format_bytes(static_cast<double>(r.peak_switch_buffer_bytes)).c_str(),
              sim::format_bytes(static_cast<double>(r.peak_host_buffer_bytes)).c_str());
  std::printf("ocs        : duty=%.3f reconfigs=%llu dark=%s\n", r.ocs_duty_cycle,
              static_cast<unsigned long long>(r.reconfigurations),
              r.dark_time.to_string().c_str());
  return 0;
}
