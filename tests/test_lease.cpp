// Tests for elastic sweep execution: the WorkSource API (static hand-out
// order, source-spec parsing, plan validation), the lease protocol (claim
// exclusivity, TTL requeue of dead workers' points, heartbeat keep-alive,
// completion-race loser dropping), and the headline guarantee — a
// lease-claimed sweep, crashes included, merges byte-identical to a
// single-process run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/cache.hpp"
#include "exp/lease.hpp"
#include "exp/runner.hpp"
#include "exp/work_source.hpp"

namespace xdrs::exp {
namespace {

using namespace xdrs::sim::literals;

/// Fresh lease/cache directory per test, removed on teardown.
class LeaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("xdrs_lease_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Synthetic 16-hex point names — the lease layer never interprets them.
  static std::vector<std::string> hashes(std::size_t n) {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < n; ++i) {
      std::string h = std::to_string(i);
      out.push_back(std::string(16 - h.size(), '0') + h);
    }
    return out;
  }

  /// A worker that plays by the rules (heartbeats, releases on exit).
  LeaseOptions live_worker(double ttl_s = 60.0) const {
    LeaseOptions o;
    o.dir = dir_;
    o.ttl_s = ttl_s;
    return o;
  }

  /// A worker destined for `kill -9`: no heartbeat, claims left behind.
  LeaseOptions doomed_worker(double ttl_s) const {
    LeaseOptions o = live_worker(ttl_s);
    o.heartbeat = false;
    o.release_on_exit = false;
    return o;
  }

  std::string dir_;
};

std::vector<ScenarioSpec> tiny_grid() {
  std::vector<ScenarioSpec> grid{
      make_scenario("uniform", 4, 0.5, 7).with_window(500_us, 100_us)};
  grid = expand(grid, axis_load({0.3, 0.6}));
  grid = expand(grid, axis_matcher({"islip:1", "maxweight"}));
  return grid;  // 4 points
}

// ---- StaticShardSource -----------------------------------------------------

TEST(StaticShardSource, HandsOutTheOwnedSubsequenceInOrderThenDries) {
  StaticShardSource src{{1, 3}, 10};  // owns 1, 4, 7
  EXPECT_EQ(src.next_point(), std::optional<std::size_t>{1});
  EXPECT_EQ(src.next_point(), std::optional<std::size_t>{4});
  EXPECT_TRUE(src.complete(1, 5));  // static slices never race
  EXPECT_EQ(src.next_point(), std::optional<std::size_t>{7});
  EXPECT_EQ(src.next_point(), std::nullopt);
  EXPECT_EQ(src.next_point(), std::nullopt);
  EXPECT_EQ(src.requeue_stale(), 0u);
  EXPECT_EQ(src.stats().completed, 1u);
}

// ---- ExecutionPlan validation ---------------------------------------------

TEST(ExecutionPlan, ResolvedSourceNamesTheBadField) {
  const auto message_of = [](const ExecutionPlan& plan) -> std::string {
    try {
      (void)plan.resolved_source();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };

  ExecutionPlan zero_count;
  zero_count.source.shard = {0, 0};
  EXPECT_NE(message_of(zero_count).find("source.shard.count"), std::string::npos);

  ExecutionPlan oob;
  oob.source.shard = {2, 2};
  EXPECT_NE(message_of(oob).find("source.shard.index"), std::string::npos);

  ExecutionPlan empty_dir;
  empty_dir.source.kind = WorkSourceSpec::Kind::kLease;
  EXPECT_NE(message_of(empty_dir).find("lease_dir"), std::string::npos);

  ExecutionPlan bad_ttl;
  bad_ttl.source = WorkSourceSpec::lease("dir", 0.0);
  EXPECT_NE(message_of(bad_ttl).find("lease_ttl_s"), std::string::npos);
}

// ---- lease protocol --------------------------------------------------------

TEST_F(LeaseTest, ClaimsAreExclusiveAcrossWorkers) {
  LeaseWorkSource w1{live_worker(), hashes(6)};
  LeaseWorkSource w2{live_worker(), hashes(6)};

  std::set<std::size_t> w1_claims;
  while (const auto i = w1.try_next()) w1_claims.insert(*i);
  EXPECT_EQ(w1_claims.size(), 6u);

  // Every point is claimed and live: w2 can take nothing, but the sweep is
  // not exhausted — those claims could yet die and come back.
  EXPECT_EQ(w2.try_next(), std::nullopt);
  EXPECT_FALSE(w2.exhausted());
  EXPECT_EQ(w2.stats().claimed, 0u);

  for (const std::size_t i : w1_claims) EXPECT_TRUE(w1.complete(i, 10));
  EXPECT_EQ(w2.try_next(), std::nullopt);
  EXPECT_TRUE(w2.exhausted());
  EXPECT_EQ(w2.stats().already_done, 6u);
}

TEST_F(LeaseTest, DeadWorkersPointsAreRequeuedAfterTtl) {
  {
    LeaseWorkSource doomed{doomed_worker(0.05), hashes(2)};
    ASSERT_TRUE(doomed.try_next().has_value());
    // "kill -9": destroyed without completing or releasing.
  }
  std::this_thread::sleep_for(std::chrono::milliseconds{200});

  LeaseWorkSource survivor{live_worker(0.05), hashes(2)};
  EXPECT_EQ(survivor.requeue_stale(), 1u);
  std::set<std::size_t> got;
  while (const auto i = survivor.try_next()) {
    got.insert(*i);
    EXPECT_TRUE(survivor.complete(*i, 10));
  }
  EXPECT_EQ(got.size(), 2u);  // the stolen point AND the untouched one
  EXPECT_EQ(survivor.stats().requeued, 1u);

  // The requeue is recorded: the stolen point's completion is attempt 2.
  const LeaseScan scan = scan_leases(dir_, hashes(2), 0.05);
  EXPECT_EQ(scan.done, 2u);
  EXPECT_EQ(scan.requeued, 1u);
}

TEST_F(LeaseTest, HeartbeatKeepsSlowClaimsAlive) {
  LeaseWorkSource slow{live_worker(1.0), hashes(1)};
  ASSERT_TRUE(slow.try_next().has_value());
  // Longer than the TTL: without the heartbeat this claim would be stolen.
  std::this_thread::sleep_for(std::chrono::milliseconds{1300});

  LeaseWorkSource vulture{live_worker(1.0), hashes(1)};
  EXPECT_EQ(vulture.requeue_stale(), 0u);
  EXPECT_EQ(vulture.try_next(), std::nullopt);
  EXPECT_TRUE(slow.complete(0, 10));
}

TEST_F(LeaseTest, CompletionRaceDropsTheLoserExactlyOnce) {
  LeaseWorkSource stalled{doomed_worker(0.05), hashes(1)};
  ASSERT_EQ(stalled.try_next(), std::optional<std::size_t>{0});
  std::this_thread::sleep_for(std::chrono::milliseconds{200});

  // The claim looks dead; a second worker steals and finishes the point.
  LeaseWorkSource thief{live_worker(0.05), hashes(1)};
  ASSERT_EQ(thief.try_next(), std::optional<std::size_t>{0});
  EXPECT_TRUE(thief.complete(0, 10));

  // The stalled worker wakes up and tries to publish: it lost, and must
  // drop its result so the merge stays exactly-once.
  EXPECT_FALSE(stalled.complete(0, 10));
  EXPECT_EQ(stalled.stats().lost, 1u);
  EXPECT_EQ(thief.stats().completed, 1u);
}

TEST_F(LeaseTest, OrderlyExitReleasesClaimsImmediately) {
  {
    LeaseWorkSource polite{live_worker(/*ttl_s=*/3600.0), hashes(1)};
    ASSERT_TRUE(polite.try_next().has_value());
  }  // destructor releases the claim — no TTL wait for the next worker
  LeaseWorkSource next{live_worker(3600.0), hashes(1)};
  EXPECT_EQ(next.try_next(), std::optional<std::size_t>{0});
  EXPECT_TRUE(next.complete(0, 10));
  // No steal happened, so nothing reads as requeued.
  EXPECT_EQ(scan_leases(dir_, hashes(1), 3600.0).requeued, 0u);
}

TEST_F(LeaseTest, AbandonMakesThePointClaimableAgain) {
  LeaseWorkSource w1{live_worker(3600.0), hashes(1)};
  LeaseWorkSource w2{live_worker(3600.0), hashes(1)};
  ASSERT_TRUE(w1.try_next().has_value());
  EXPECT_EQ(w2.try_next(), std::nullopt);
  w1.abandon(0);
  EXPECT_EQ(w2.try_next(), std::optional<std::size_t>{0});
}

TEST_F(LeaseTest, ScanDoneWallsRecordsCompletionCosts) {
  LeaseWorkSource w{live_worker(), hashes(3)};
  ASSERT_TRUE(w.try_next().has_value());
  ASSERT_TRUE(w.try_next().has_value());
  EXPECT_TRUE(w.complete(0, 1234));
  EXPECT_TRUE(w.complete(1, 5678));
  const auto walls = scan_done_walls(dir_);
  ASSERT_EQ(walls.size(), 2u);
  EXPECT_EQ(walls.at(hashes(3)[0]), 1234);
  EXPECT_EQ(walls.at(hashes(3)[1]), 5678);
}

// The multi-worker race, in-process: three workers hammer one directory and
// every point is completed exactly once.  This test (with test_shard_merge
// and test_experiment_runner) also runs under TSan in CI.
TEST_F(LeaseTest, ThreeWorkerRaceCompletesEveryPointExactlyOnce) {
  constexpr std::size_t kPoints = 24;
  std::atomic<std::uint64_t> kept{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([this, &kept] {
      LeaseOptions o = live_worker();
      o.poll_s = 0.005;
      LeaseWorkSource src{o, hashes(kPoints)};
      while (const auto i = src.next_point()) {
        if (src.complete(*i, 1)) kept.fetch_add(1);
      }
      EXPECT_TRUE(src.exhausted());
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(kept.load(), kPoints);
  const LeaseScan scan = scan_leases(dir_, hashes(kPoints), 60.0);
  EXPECT_EQ(scan.done, kPoints);
  EXPECT_EQ(scan.live + scan.stale + scan.unclaimed, 0u);
}

// ---- the headline guarantee ------------------------------------------------

TEST_F(LeaseTest, LeaseRunMergesByteIdenticalToStaticRun) {
  const auto grid = tiny_grid();
  ExecutionPlan static_plan;
  static_plan.threads = 1;
  const SweepResult single = ExperimentRunner{static_plan}.run(grid);

  ExecutionPlan lease_plan;
  lease_plan.source = WorkSourceSpec::lease(dir_);
  const SweepResult elastic = ExperimentRunner{lease_plan}.run(grid);
  EXPECT_EQ(elastic.source_stats.claimed, grid.size());

  // One worker won everything, so its shard file alone covers the grid.
  const SweepResult merged = SweepResult::merge_shards(grid, {elastic.to_shard_json()});
  EXPECT_EQ(merged.to_json(), single.to_json());
  EXPECT_EQ(merged.to_csv(), single.to_csv());
}

// The satellite scenario end-to-end: a worker claims a point, writes no
// completion, dies; past the TTL a second worker requeues and completes it,
// and the merge is byte-identical to the single-process artefact.
TEST_F(LeaseTest, CrashedClaimIsRecomputedAndMergesByteIdentical) {
  const auto grid = tiny_grid();
  ExecutionPlan static_plan;
  static_plan.threads = 1;
  const SweepResult single = ExperimentRunner{static_plan}.run(grid);

  std::vector<std::string> point_hashes;
  for (const ScenarioSpec& s : grid) point_hashes.push_back(spec_hash_hex(s));
  {
    LeaseWorkSource doomed{doomed_worker(0.05), point_hashes};
    ASSERT_TRUE(doomed.try_next().has_value());  // claimed, never completed
  }
  std::this_thread::sleep_for(std::chrono::milliseconds{200});

  ExecutionPlan survivor;
  survivor.source = WorkSourceSpec::lease(dir_, 0.05);
  const SweepResult rerun = ExperimentRunner{survivor}.run(grid);
  EXPECT_EQ(rerun.source_stats.requeued, 1u);
  EXPECT_EQ(rerun.points.size(), grid.size());

  const SweepResult merged = SweepResult::merge_shards(grid, {rerun.to_shard_json()});
  EXPECT_EQ(merged.to_json(), single.to_json());

  const LeaseScan scan = scan_leases(dir_, point_hashes, 0.05);
  EXPECT_EQ(scan.done, grid.size());
  EXPECT_EQ(scan.requeued, 1u);
}

// A killed worker's computed points survive in the shared result cache
// (stores precede completion markers), so merge --cache recovers points no
// shard file covers — still byte-identical.
TEST_F(LeaseTest, MergeBackfillsUncoveredPointsFromTheCache) {
  const auto grid = tiny_grid();
  ExecutionPlan static_plan;
  static_plan.threads = 1;
  const SweepResult single = ExperimentRunner{static_plan}.run(grid);

  ResultCache cache{dir_};
  ExecutionPlan worker1;  // computes half the grid, "dies" before publishing
  worker1.source.shard = {0, 2};
  worker1.cache = &cache;
  (void)ExperimentRunner{worker1}.run(grid);  // shard file never written

  ExecutionPlan worker2;
  worker2.source.shard = {1, 2};
  worker2.cache = &cache;
  const SweepResult half = ExperimentRunner{worker2}.run(grid);

  // Without the cache the merge is short; with it, recovery.
  EXPECT_THROW((void)SweepResult::merge_shards(grid, {half.to_shard_json()}),
               std::invalid_argument);
  const SweepResult recovered =
      SweepResult::merge_shards(grid, {half.to_shard_json()}, &cache);
  EXPECT_EQ(recovered.to_json(), single.to_json());
  EXPECT_EQ(recovered.to_csv(), single.to_csv());
}

}  // namespace
}  // namespace xdrs::exp
