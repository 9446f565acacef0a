// Named sweep grids.
//
// A preset is a deterministic function from a name to a grid of
// ScenarioSpecs, so that a recorded artefact (`sweepctl run --preset NAME`)
// can be reproduced, sharded across processes/hosts and merged back —
// every participant reconstructs the identical grid from the name alone.
// Built-ins:
//
//   small        the 64-point ports x load x matcher grid behind
//                BENCH_sweep.json (laptop-fast)
//   full         the paper-scale 64-port x 10G grid behind
//                BENCH_sweep_full.json
//   policy-cross the full PolicyRegistry::known_specs() cross-product
//                (matcher x circuit x estimator x timing) on one hybrid
//                scenario — the registry-driven comparison sweep
//   composite    the bursty mixed workloads (incast+background,
//                shuffle+voip, onoff+mice) across loads and circuit
//                schedulers
//   trace        replay of the bundled example flow trace
//                (exp::kDefaultTracePath; run from the repo root) across
//                loads and circuit schedulers
//   empirical    the empirical flow-size mixes (websearch, datamining,
//                websearch+incast; bundled CDFs under examples/, run from
//                the repo root) across loads and circuit schedulers —
//                behind BENCH_sweep_empirical.json
#ifndef XDRS_EXP_PRESETS_HPP
#define XDRS_EXP_PRESETS_HPP

#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace xdrs::exp {

/// All preset names, sorted.
[[nodiscard]] std::vector<std::string> known_presets();

/// Builds the named grid.  Throws std::invalid_argument on unknown names
/// (the message lists what is known).
[[nodiscard]] std::vector<ScenarioSpec> make_preset(const std::string& name);

}  // namespace xdrs::exp

#endif  // XDRS_EXP_PRESETS_HPP
