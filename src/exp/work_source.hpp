// Pluggable distribution of sweep points to workers.
//
// ExperimentRunner used to hard-code static shard-by-index assignment
// (point i belongs to shard i % count), which lets one slow shard gate a
// whole sweep — `sweepctl status` measures exactly that imbalance.  The
// assignment decision now lives behind WorkSource: the runner's worker
// threads ask next_point() for grid indices until the source runs dry and
// report complete(i) when a point's results are in; the source decides
// which worker gets what, and when.
//
//   StaticShardSource   reproduces the ShardOptions-modulo loop bit for
//                       bit: same indices, same hand-out order.
//   LeaseWorkSource     (exp/lease.hpp) dynamic work stealing: any number
//                       of worker processes atomically claim points via
//                       lease files in a shared directory, with
//                       heartbeat-stamped leases so points whose worker
//                       died are requeued after a TTL.
//
// WorkSourceSpec is the value-type description of a source (a static
// slice, or a lease directory and TTL) that ExecutionPlan carries and the
// runner turns into a live source per run — sources themselves are
// stateful and bound to one grid.
#ifndef XDRS_EXP_WORK_SOURCE_HPP
#define XDRS_EXP_WORK_SOURCE_HPP

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace xdrs::exp {

/// Deterministic shard-by-index slice of a grid: this process owns point i
/// iff i % count == index.  The default {0, 1} owns everything.
struct ShardOptions {
  std::size_t index{0};
  std::size_t count{1};

  [[nodiscard]] bool owns(std::size_t i) const noexcept { return i % count == index; }
  /// Points of an n-point grid this shard owns.
  [[nodiscard]] std::size_t owned_of(std::size_t n) const noexcept {
    return n / count + (n % count > index ? 1 : 0);
  }
};

/// Running accounting of one WorkSource over one run.
struct WorkSourceStats {
  std::uint64_t claimed{0};       ///< points this worker claimed
  std::uint64_t completed{0};     ///< claims this worker completed first
  std::uint64_t requeued{0};      ///< stale leases this worker detected and requeued
  std::uint64_t already_done{0};  ///< points another worker had completed
  std::uint64_t lost{0};          ///< own completions that lost a requeue race
};

/// Hands grid indices to worker threads.  Implementations must be safe to
/// call from many threads of ONE process; cross-process coordination (the
/// lease source) goes through the filesystem.
class WorkSource {
 public:
  virtual ~WorkSource() = default;

  /// Claims the next grid index this worker should run.  May block
  /// (polling) while other workers hold claims that could yet expire;
  /// returns nullopt only when every remaining point is complete or
  /// permanently out of this worker's reach (static: outside its shard).
  [[nodiscard]] virtual std::optional<std::size_t> next_point() = 0;

  /// Marks a claimed point complete; `wall_us` is the wall-clock cost of
  /// computing it (recorded for fleet sizing; 0 = unmeasured).  Returns
  /// false when another worker completed the point first — the caller must
  /// drop its duplicate result so merges stay exactly-once.
  virtual bool complete(std::size_t index, std::int64_t wall_us) = 0;

  /// Releases a claim without completing it (failure path): the point
  /// becomes immediately claimable again.
  virtual void abandon(std::size_t index) = 0;

  /// Scans for claims whose worker died (lease TTL expired) and requeues
  /// them; returns how many.  next_point() requeues implicitly while
  /// polling; the explicit hook exists for tooling and tests.
  virtual std::size_t requeue_stale() = 0;

  [[nodiscard]] virtual WorkSourceStats stats() const = 0;
};

/// The classic static split, as a WorkSource: hands out the owned indices
/// shard.index, shard.index + count, ... in exactly the order the old
/// ShardOptions-modulo loop did, so sharded artefacts stay byte-identical.
class StaticShardSource final : public WorkSource {
 public:
  StaticShardSource(ShardOptions shard, std::size_t grid_size) noexcept
      : shard_{shard}, owned_{shard.owned_of(grid_size)} {}

  [[nodiscard]] std::optional<std::size_t> next_point() override {
    const std::size_t j = next_.fetch_add(1, std::memory_order_relaxed);
    if (j >= owned_) return std::nullopt;
    return shard_.index + j * shard_.count;
  }
  bool complete(std::size_t, std::int64_t) override {
    completed_.fetch_add(1, std::memory_order_relaxed);
    return true;  // nobody else can own a static slice's points
  }
  void abandon(std::size_t) override {}
  std::size_t requeue_stale() override { return 0; }
  [[nodiscard]] WorkSourceStats stats() const override {
    WorkSourceStats s;
    s.completed = completed_.load(std::memory_order_relaxed);
    s.claimed = s.completed;
    return s;
  }

 private:
  ShardOptions shard_;
  std::size_t owned_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> completed_{0};
};

/// Value-type description of a work source, carried by ExecutionPlan.
struct WorkSourceSpec {
  enum class Kind { kStatic, kLease };

  Kind kind{Kind::kStatic};
  ShardOptions shard{};      ///< kStatic: the slice to run
  std::string lease_dir;     ///< kLease: shared directory (leases live in <dir>/leases)
  double lease_ttl_s{60.0};  ///< kLease: heartbeat TTL before a claim counts as dead

  [[nodiscard]] static WorkSourceSpec static_shard(ShardOptions shard) noexcept {
    WorkSourceSpec s;
    s.shard = shard;
    return s;
  }
  [[nodiscard]] static WorkSourceSpec lease(std::string dir, double ttl_s = 60.0) {
    WorkSourceSpec s;
    s.kind = Kind::kLease;
    s.lease_dir = std::move(dir);
    s.lease_ttl_s = ttl_s;
    return s;
  }
};

}  // namespace xdrs::exp

#endif  // XDRS_EXP_WORK_SOURCE_HPP
