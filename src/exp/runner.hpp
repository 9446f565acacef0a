// The parallel sweep engine.
//
// The simulator is single-threaded by design (determinism beats parallel
// speed for a scheduling study); experiments scale instead by parallelising
// across parameter points.  ExperimentRunner takes a grid of ScenarioSpecs,
// materialises an independent topo::FatTree per point on a pool of
// worker threads, and collects the RunReports *in grid order* — so for a
// fixed grid and seeds, every emitted byte is identical whether the sweep
// ran on 1 thread or 64, and regardless of completion order.
//
// Three orthogonal scale-out mechanisms ride on that determinism:
//   * A WorkSource (exp/work_source.hpp) decides which points this process
//     runs: StaticShardSource slices the grid by index (point i belongs to
//     shard i % count), LeaseWorkSource (exp/lease.hpp) lets any number of
//     worker processes claim points dynamically through lease files in a
//     shared directory, stealing from workers that die.
//   * Per-worker results serialize with to_shard_json() and
//     SweepResult::merge_shards() reassembles the full grid-order result,
//     byte-identical to a single-process run however points were claimed.
//   * A ResultCache (exp/cache.hpp) skips points whose reports are already
//     on disk, making iteration on one axis cheap — and backfilling merges
//     when an elastic worker died after computing (cache write) but before
//     publishing its shard file.
#ifndef XDRS_EXP_RUNNER_HPP
#define XDRS_EXP_RUNNER_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/work_source.hpp"

namespace xdrs::exp {

class ResultCache;

/// Everything that shapes one sweep's execution — threads, work source,
/// cache, telemetry — in one validated value.
struct ExecutionPlan {
  /// Worker threads; 0 = one per hardware thread.
  unsigned threads{0};
  /// Which points this process runs and in what order: a static shard
  /// (default: the whole grid) or a lease directory for elastic workers.
  WorkSourceSpec source{};
  /// Optional result cache: points whose reports are cached are not
  /// simulated (cache->stats() says how many), fresh reports are stored
  /// best-effort (a failing cache directory never aborts the sweep).
  ResultCache* cache{nullptr};
  /// When nonempty, every point this process actually simulates runs with
  /// telemetry enabled and writes a `<spec_hash_hex>.telemetry.json`
  /// sidecar (obs::telemetry_sidecar_json) into this directory, created on
  /// demand.  Cache hits write no sidecar — their compute never happened
  /// here.  Sidecars ride BESIDE the result artefacts: reports, cache
  /// entries and shard files are byte-identical with this set or not
  /// (CI-gated), and writes are best-effort like cache stores.
  std::string telemetry_dir;
  /// Optional progress callback, invoked after each completed point with
  /// (completed, total-claimable, point).  Called from worker threads under
  /// a lock; completion order is nondeterministic, so route it to
  /// stderr/logging, never into result artefacts.
  std::function<void(std::size_t, std::size_t, const ScenarioSpec&)> progress;

  /// The single source of truth for execution-plan validation: returns
  /// `source`, or throws std::invalid_argument naming the bad field
  /// (source.shard.count of 0, source.shard.index out of range, empty
  /// lease_dir, non-positive lease_ttl_s).
  [[nodiscard]] WorkSourceSpec resolved_source() const;
};

/// One grid point: the spec that was run and what came back.
struct PointResult {
  ScenarioSpec spec;
  core::RunReport report;
  /// Index of this point in the full grid; to_shard_json() records it so
  /// merges reassemble grid order no matter which worker claimed what.
  std::size_t index{0};
  /// Wall-clock microseconds this point took in this process (simulation,
  /// or the cache round-trip that replaced it — cached points read as ~0).
  /// Recorded in shard files so merges and `sweepctl status` can report
  /// straggler shards; deliberately NOT part of to_json()/to_csv(), which
  /// must stay byte-identical across thread counts and machines.
  std::int64_t wall_us{0};
  /// True when the report came from the ResultCache instead of a fresh
  /// simulation in this process.  Shard files carry it so `sweepctl status`
  /// can split cache round-trips from real compute when attributing shard
  /// wall time; like wall_us it never enters to_json()/to_csv().
  bool cached{false};
};

/// Results of one sweep: the points this run computed, in grid order.  For
/// an unsharded static run that is the whole grid; for a sharded or
/// lease-claimed run it is the subsequence this worker won (each point
/// carries its grid index).
class SweepResult {
 public:
  std::vector<PointResult> points;
  std::size_t grid_size{0};  ///< full grid size (== points.size() iff complete)
  /// Claim/steal accounting from the run's work source (all-zero for
  /// merged results, which nobody claimed).
  WorkSourceStats source_stats{};

  /// Totals: every held point's report folded into one.
  [[nodiscard]] core::RunReport merged() const;

  /// Deterministic artefact emits.  Columns/keys are the specs' identity
  /// fields followed by the reports' fields; rows are in grid order.
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;  ///< {"points":[...],"merged":{...}}

  // ---- sharded-sweep reassembly -------------------------------------------

  /// Exact-state shard file: every held point's grid index, spec hash and
  /// full report state.  merge_shards() consumes these.
  [[nodiscard]] std::string to_shard_json() const;

  /// Reassembles shard payloads (to_shard_json() outputs) produced from the
  /// same `grid` into one complete result — equal, byte for byte through
  /// to_json()/to_csv(), to what a single-process run of `grid` returns.
  /// Throws std::invalid_argument on schema/grid mismatches, points not in
  /// `grid` (stale shard files), duplicate or missing points.
  [[nodiscard]] static SweepResult merge_shards(const std::vector<ScenarioSpec>& grid,
                                                const std::vector<std::string>& shard_jsons);

  /// Same, but points no shard file covers are filled from `fill_cache`
  /// before the missing-point check — the recovery path for elastic sweeps
  /// where a worker died after computing points (cache stores happen first)
  /// but before publishing its shard file.  Filled points read as cached
  /// with unmeasured wall time; byte-identity of to_json()/to_csv() holds
  /// because cache entries round-trip exact report state.
  [[nodiscard]] static SweepResult merge_shards(const std::vector<ScenarioSpec>& grid,
                                                const std::vector<std::string>& shard_jsons,
                                                ResultCache* fill_cache);
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExecutionPlan plan = {}) : plan_{std::move(plan)} {}

  /// Runs every point of `grid` the plan's work source hands this process.
  /// Exceptions thrown by a point (unknown policy names, config errors) are
  /// rethrown on the calling thread after the pool drains; the claims of
  /// unfinished points are released first.  Throws std::invalid_argument on
  /// malformed plans (ExecutionPlan::resolved_source) and
  /// std::runtime_error when a lease directory cannot be created.
  [[nodiscard]] SweepResult run(const std::vector<ScenarioSpec>& grid) const;

 private:
  ExecutionPlan plan_;
};

// ------------------------------------------------------- grid construction

/// A grid axis: each mutator stamps one axis value onto a spec copy.
using Mutator = std::function<void(ScenarioSpec&)>;

/// Cartesian expansion: every spec in `in` times every mutator in `axis`.
[[nodiscard]] std::vector<ScenarioSpec> expand(const std::vector<ScenarioSpec>& in,
                                               const std::vector<Mutator>& axis);

/// Convenience axes for the common sweep dimensions.
[[nodiscard]] std::vector<Mutator> axis_ports(const std::vector<std::uint32_t>& values);
[[nodiscard]] std::vector<Mutator> axis_load(const std::vector<double>& values);
[[nodiscard]] std::vector<Mutator> axis_matcher(const std::vector<std::string>& specs);
[[nodiscard]] std::vector<Mutator> axis_circuit(const std::vector<std::string>& specs);
[[nodiscard]] std::vector<Mutator> axis_estimator(const std::vector<std::string>& specs);
[[nodiscard]] std::vector<Mutator> axis_timing(const std::vector<std::string>& models);
[[nodiscard]] std::vector<Mutator> axis_oversubscription(const std::vector<double>& values);
[[nodiscard]] std::vector<Mutator> axis_locality(const std::vector<double>& values);

}  // namespace xdrs::exp

#endif  // XDRS_EXP_RUNNER_HPP
