// The benchmark's workloads, defined here and nowhere else.
//
// Every grid is built from exp::make_scenario() plus explicit with_*()
// mutators and explicit policy lists, so that resizing a preset window or
// registering a new policy elsewhere in the repository cannot change what
// the benchmark measures.
#ifndef XDRS_PERFBENCH_WORKLOADS_HPP
#define XDRS_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace perfbench {

/// How a workload's timed passes use the result cache.
enum class CacheMode {
  kNone,  ///< no cache: every pass simulates every point
  kCold,  ///< every pass runs against a fresh, empty cache directory
  kWarm,  ///< every pass reads a cache that set-up filled
};

struct Workload {
  CacheMode cache{CacheMode::kNone};
  std::vector<xdrs::exp::ScenarioSpec> grid;
  /// Files set-up parses before the first pass (the grid's CDF inputs).
  std::vector<std::string> cdf_paths;
};

/// Builds the named workload for `seed`.  `quick` shrinks windows and the
/// sweep grid for the self-test; the shapes (ports, racks, policies) stay.
/// Throws std::invalid_argument on unknown names.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed, bool quick);

/// Simulated seconds one point advances (warm-up + measured window).
[[nodiscard]] double simulated_seconds(const xdrs::exp::ScenarioSpec& spec);

}  // namespace perfbench

#endif  // XDRS_PERFBENCH_WORKLOADS_HPP
