// Profiling target: one hot scenario, repeated for a wall-clock budget.
//
// This bench pins one scenario and re-runs it with fresh seeds on a single
// thread until the requested budget is spent, so an external sampling
// profiler attached to it (build with -DCMAKE_BUILD_TYPE=Profile for
// -O2 -g -fno-omit-frame-pointer) sees the simulator rather than set-up.
//
// For a per-layer breakdown without a profiler, use the benchmark's traced
// run, which times each layer with in-process steady clocks:
//
//   $ python3 perfbench/run.py --workload p128_slotted --seed 1 --seconds 40 --trace 1
//
// On the 128-port slotted workload the matcher is no longer a hot spot
// (about 4 us per decision, a few ms per point).  Wall time goes to the
// per-event path: the event engine, traffic generation, VOQ queueing and
// the framework glue between them (perfbench's core.unaccounted_share).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/scenario.hpp"
#include "util/parse.hpp"

namespace {

using namespace xdrs;
using namespace xdrs::sim::literals;

struct Options {
  std::string scenario{"uniform"};
  std::string matcher{"islip:4"};  // RGA inner loop; "maxweight" = Hungarian
  std::uint32_t ports{32};
  double load{0.9};
  double seconds{10.0};
};

// Whole-token, in-range parses (util::parse_number): "--ports=32x" or
// "--load=0.9oops" are errors, not silently truncated numbers, and so is a
// ports value past uint32 range.
bool parse(int argc, char** argv, Options& opt) try {
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--scenario") {
      opt.scenario = val;
    } else if (key == "--matcher") {
      opt.matcher = val;
    } else if (key == "--ports" || key == "--load" || key == "--seconds") {
      const bool ok = key == "--ports" ? util::parse_number(val, opt.ports)
                      : key == "--load" ? util::parse_number(val, opt.load)
                                        : util::parse_number(val, opt.seconds);
      if (!ok) {
        std::fprintf(stderr, "bench_profile_hotloop: bad %s value '%s'\n", key.c_str(),
                     val.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_profile_hotloop [--scenario=NAME] [--matcher=SPEC] [--ports=N] "
                   "[--load=F] [--seconds=S]\n");
      return false;
    }
  }
  return true;
} catch (const std::exception&) {
  std::fprintf(stderr, "bench_profile_hotloop: bad flag value\n");
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return 2;

  exp::ScenarioSpec spec;
  try {
    spec = exp::make_scenario(opt.scenario, opt.ports, opt.load, /*seed=*/7)
               .with_matcher(opt.matcher)
               .with_window(2_ms, 200_us);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_profile_hotloop: %s\n", e.what());
    return 2;
  }

  std::printf("hot loop: %s for %.1fs wall clock (single thread, fresh seed per iteration)\n",
              spec.key().c_str(), opt.seconds);

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  std::uint64_t iterations = 0;
  std::uint64_t decisions = 0;
  std::int64_t delivered = 0;
  while (elapsed() < opt.seconds) {
    spec.with_seed(7 + iterations);  // decorrelate iterations, keep the workload shape
    const core::RunReport report = exp::run_scenario(spec);
    decisions += report.scheduler_decisions;
    delivered += report.delivered_bytes;
    ++iterations;
  }

  const double wall = elapsed();
  std::printf("%llu iterations in %.2fs — %.2f sims/s, %.0f scheduler decisions/s "
              "(%.1f MB delivered)\n",
              static_cast<unsigned long long>(iterations), wall,
              static_cast<double>(iterations) / wall, static_cast<double>(decisions) / wall,
              static_cast<double>(delivered) / 1e6);
  std::printf(
      "Build with -DCMAKE_BUILD_TYPE=Profile to attribute samples with a sampling profiler;\n"
      "for per-layer times use `python3 perfbench/run.py --workload p128_slotted --trace 1`.\n");
  return 0;
}
