// E3a — wall-clock compute cost of each scheduling algorithm vs port count
// (google-benchmark microbenchmark), plus the steady-state zero-allocation
// gate CI runs (`--alloc-check`, which also covers the event engine and the
// VOQ bank), plus a
// self-contained timing mode
// (`--ports=N [--csv=PATH]`) that emits machine-readable numbers so kernel
// before/after comparisons are recorded, not copy-pasted.
//
// Grounds the paper's claim that schedule computation is the bottleneck a
// hardware scheduler removes: even on a modern CPU, exact max-weight
// matching at 128 ports costs hundreds of microseconds per decision —
// far beyond a nanosecond-scale optical switching time.  The measured loop
// is the framework's real hot path: MatchingAlgorithm::compute_into with a
// recycled Matching, which must not touch the heap once warm.
#define XDRS_BENCH_ALLOC_COUNTER
#include "bench_util.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "demand/demand_matrix.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "queueing/voq.hpp"
#include "schedulers/policy_registry.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "util/parse.hpp"

namespace {

using namespace xdrs;

demand::DemandMatrix random_demand(std::uint32_t n, std::uint64_t seed, double density) {
  sim::Rng rng{seed};
  demand::DemandMatrix m{n};
  for (net::PortId i = 0; i < n; ++i) {
    for (net::PortId j = 0; j < n; ++j) {
      if (rng.bernoulli(density)) m.set(i, j, rng.uniform_int(1, 1'000'000));
    }
  }
  return m;
}

void run_matcher(benchmark::State& state, const char* spec) {
  const auto ports = static_cast<std::uint32_t>(state.range(0));
  auto matcher = schedulers::PolicyRegistry::instance().make_matcher(
      spec, {.ports = ports, .seed = 42});
  const demand::DemandMatrix d = random_demand(ports, ports * 7 + 1, 0.5);
  schedulers::Matching out;
  for (auto _ : state) {
    matcher->compute_into(d, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetLabel(matcher->name());
  state.counters["ports"] = ports;
  state.counters["iters_used"] = matcher->last_iterations();
}

void BM_Islip1(benchmark::State& s) { run_matcher(s, "islip:1"); }
void BM_Islip4(benchmark::State& s) { run_matcher(s, "islip:4"); }
void BM_Pim4(benchmark::State& s) { run_matcher(s, "pim:4"); }
void BM_Rrm1(benchmark::State& s) { run_matcher(s, "rrm:1"); }
void BM_GreedyIlqf(benchmark::State& s) { run_matcher(s, "ilqf"); }
void BM_MaxSizeHk(benchmark::State& s) { run_matcher(s, "maxsize"); }
void BM_MaxWeightHungarian(benchmark::State& s) { run_matcher(s, "maxweight"); }
void BM_Rotor(benchmark::State& s) { run_matcher(s, "rotor"); }

constexpr std::int64_t kLo = 8, kHi = 128;

BENCHMARK(BM_Islip1)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_Islip4)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_Pim4)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_Rrm1)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_GreedyIlqf)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_MaxSizeHk)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_MaxWeightHungarian)->RangeMultiplier(2)->Range(kLo, kHi);
BENCHMARK(BM_Rotor)->RangeMultiplier(2)->Range(kLo, kHi);

/// Event churn shaped like the framework's packet path: every event captures
/// `[this, net::Packet, port]` (OCS delivery, EPS pumping), the largest hot
/// closure, re-arms itself, and now and then schedules and cancels a
/// delivery the way an OCS reconfiguration cuts one in flight.
class EngineChurn {
 public:
  explicit EngineChurn(std::uint32_t depth) : depth_{depth} {}

  /// Arms `depth` events, then runs until `events` more have been
  /// scheduled and everything pending has fired.
  void run(std::uint64_t events) {
    budget_ = events;
    for (net::PortId port = 0; port < depth_; ++port) arm(port);
    sim_.run();
  }

  [[nodiscard]] const sim::SimulatorStats& stats() const noexcept { return sim_.stats(); }

 private:
  sim::EventId arm(net::PortId port) {
    net::Packet pkt;
    pkt.id = ++packets_;
    pkt.src = port;
    pkt.dst = (port + 1) % depth_;
    pkt.size_bytes = rng_.uniform_int(64, 1500);
    auto deliver = [this, pkt, port] { delivered(pkt, port); };
    static_assert(sizeof(deliver) <= sim::Callback::kInlineBytes);
    return sim_.schedule(sim::Time::nanoseconds(rng_.uniform_int(1, 4000)), deliver);
  }

  void delivered(const net::Packet& pkt, net::PortId port) {
    bytes_ += pkt.size_bytes;
    if (budget_ == 0) return;
    --budget_;
    arm(port);
    if (budget_ % 4096 == 0) sim_.cancel(arm(port));
  }

  sim::Simulator sim_;
  sim::Rng rng_{7};
  std::uint32_t depth_;
  std::uint64_t budget_{0};
  std::uint64_t packets_{0};
  std::int64_t bytes_{0};
};

/// The engine half of `--alloc-check`: once the event queue has reached its
/// peak pending depth, scheduling, firing and cancelling must not allocate.
bool engine_alloc_check() {
  constexpr std::uint32_t kDepth = 1000;
  constexpr std::uint64_t kWarmupEvents = 100'000;
  constexpr std::uint64_t kMeasuredEvents = 1'000'000;

  EngineChurn churn{kDepth};
  churn.run(kWarmupEvents);
  const std::uint64_t executed_before = churn.stats().events_executed;
  const std::uint64_t before = bench::heap_allocs();
  churn.run(kMeasuredEvents);
  const std::uint64_t allocs = bench::heap_allocs() - before;
  const std::uint64_t executed = churn.stats().events_executed - executed_before;

  const bool ok = allocs == 0;
  std::printf("steady-state heap allocations of the event engine "
              "(%llu events at pending depth %u):\n  %-31s %8llu %s\n",
              static_cast<unsigned long long>(executed), kDepth, "[this, Packet, port] closures",
              static_cast<unsigned long long>(allocs), ok ? "OK" : "FAIL");
  return ok;
}

/// The VOQ half of `--alloc-check`: at constant occupancy (each enqueue is
/// paired with a dequeue of the oldest queued packet) a 128x128 bank, status
/// callback installed, must not allocate once its node pool has grown to
/// that occupancy.
bool voq_alloc_check() {
  constexpr std::uint32_t kPorts = 128;
  constexpr std::size_t kBacklog = 16'384;  // one packet per VOQ on average
  constexpr std::uint64_t kWarmupPairs = 100'000;
  constexpr std::uint64_t kMeasuredPairs = 1'000'000;

  queueing::VoqBank bank{kPorts, kPorts};
  std::uint64_t transitions = 0;
  bank.set_status_callback(
      [&transitions](net::PortId, net::PortId, queueing::VoqStatus) { ++transitions; });
  sim::Rng rng{11};
  // Ring of the queued packets' (input, output), oldest at `oldest`.
  std::vector<std::pair<net::PortId, net::PortId>> queued(kBacklog);
  std::size_t oldest = 0;
  std::uint64_t id = 0;
  const auto enqueue_at = [&](std::size_t k) {
    net::Packet p;
    p.id = ++id;
    p.src = static_cast<net::PortId>(rng.next_below(kPorts));
    p.dst = static_cast<net::PortId>(rng.next_below(kPorts));
    p.size_bytes = rng.uniform_int(64, 1500);
    queued[k] = {p.src, p.dst};
    (void)bank.enqueue(p.src, p);
  };
  const auto pairs = [&](std::uint64_t n) {
    for (std::uint64_t k = 0; k < n; ++k) {
      const auto [in, out] = queued[oldest];
      enqueue_at(oldest);
      (void)bank.dequeue(in, out);
      oldest = (oldest + 1) % kBacklog;
    }
  };
  for (std::size_t k = 0; k < kBacklog; ++k) enqueue_at(k);
  pairs(kWarmupPairs);
  const std::uint64_t before = bench::heap_allocs();
  pairs(kMeasuredPairs);
  const std::uint64_t allocs = bench::heap_allocs() - before;

  const bool ok = allocs == 0 && bank.total_packets() == static_cast<std::int64_t>(kBacklog);
  std::printf("steady-state heap allocations of the VOQ bank "
              "(%llu enqueue/dequeue pairs, %ux%u, %zu queued):\n  %-31s %8llu %s\n",
              static_cast<unsigned long long>(kMeasuredPairs), kPorts, kPorts, kBacklog,
              "enqueue + dequeue", static_cast<unsigned long long>(allocs), ok ? "OK" : "FAIL");
  return ok;
}

/// `--alloc-check`: for every registered matcher spec, warm the decision
/// loop, then count heap allocations over a steady-state window; then do the
/// same for the event engine (engine_alloc_check) and the VOQ bank
/// (voq_alloc_check).  Any allocation is a
/// regression of the allocation-free hot-path contract.
/// Run at 48, 64 AND 128 ports: 48 is the 2-rack fat-tree ToR shape (32
/// host ports + 16 uplinks at 2:1 oversubscription) — a non-power-of-two
/// count the topology path schedules every epoch — while 64/128 prove the
/// bitset and warm-rematch workspaces are preallocated at paper scale too
/// (two words per port row, not one).
///
/// The measured loop wraps each decision in a disabled-registry ScopedSpan,
/// exactly as SchedulingLogic does when telemetry is compiled in but off —
/// so the gate also proves the telemetry-off hot path costs no allocation.
int alloc_check() {
  constexpr std::uint32_t kPortCounts[] = {48, 64, 128};
  constexpr int kWarmupDecisions = 64;
  constexpr int kMeasuredDecisions = 256;

  const auto& registry = schedulers::PolicyRegistry::instance();
  obs::Registry disabled_telemetry;  // never enabled: the production default
  obs::Timer& stage_timer = disabled_telemetry.timer("matcher_compute");

  int failures = 0;
  for (const std::uint32_t ports : kPortCounts) {
    const demand::DemandMatrix d = random_demand(ports, 7, 0.5);
    std::printf("steady-state heap allocations per %d decisions (%u ports):\n",
                kMeasuredDecisions, ports);
    for (const auto& spec : registry.known_specs(schedulers::PolicyKind::kMatcher)) {
      auto matcher = registry.make_matcher(spec, {.ports = ports, .seed = 42});
      schedulers::Matching out;
      for (int i = 0; i < kWarmupDecisions; ++i) matcher->compute_into(d, out);

      const std::uint64_t before = bench::heap_allocs();
      for (int i = 0; i < kMeasuredDecisions; ++i) {
        obs::ScopedSpan span{&disabled_telemetry, &stage_timer};
        matcher->compute_into(d, out);
      }
      const std::uint64_t allocs = bench::heap_allocs() - before;

      const bool ok = allocs == 0;
      if (!ok) ++failures;
      std::printf("  %-12s %-18s %8llu %s\n", spec.c_str(), matcher->name().c_str(),
                  static_cast<unsigned long long>(allocs), ok ? "OK" : "FAIL");
    }
  }
  const bool engine_ok = engine_alloc_check();
  const bool voq_ok = voq_alloc_check();
  if (failures > 0 || !engine_ok || !voq_ok) {
    std::fprintf(stderr, "alloc-check: %d matcher config(s)%s%s allocate in steady state\n",
                 failures, engine_ok ? "" : ", the event engine",
                 voq_ok ? "" : ", the VOQ bank");
    return 1;
  }
  std::printf("alloc-check: all matchers, the event engine and the VOQ bank run "
              "allocation-free in steady state\n");
  return 0;
}

/// `--ports=N [--csv=PATH]`: time every registered matcher at exactly the
/// requested port counts (repeatable flag) over the same randomized demand
/// the microbenchmarks use, and optionally append the numbers to a CSV —
/// one row per (spec, ports) — so kernel before/after comparisons live in
/// version-controllable files instead of terminal scrollback.
int timing_mode(const std::vector<std::uint32_t>& port_counts, const std::string& csv_path) {
  using clock = std::chrono::steady_clock;
  constexpr int kWarmupDecisions = 64;
  constexpr auto kMinWindow = std::chrono::milliseconds{200};

  std::FILE* csv = nullptr;
  if (!csv_path.empty()) {
    csv = std::fopen(csv_path.c_str(), "w");
    if (csv == nullptr) {
      std::fprintf(stderr, "bench_matching_compute: cannot open %s\n", csv_path.c_str());
      return 1;
    }
    std::fprintf(csv, "spec,name,ports,decisions,ns_per_decision,iters_used\n");
  }

  const auto& registry = schedulers::PolicyRegistry::instance();
  for (const std::uint32_t ports : port_counts) {
    const demand::DemandMatrix d = random_demand(ports, ports * 7 + 1, 0.5);
    std::printf("matcher compute cost at %u ports:\n", ports);
    for (const auto& spec : registry.known_specs(schedulers::PolicyKind::kMatcher)) {
      auto matcher = registry.make_matcher(spec, {.ports = ports, .seed = 42});
      schedulers::Matching out;
      for (int i = 0; i < kWarmupDecisions; ++i) matcher->compute_into(d, out);

      // Run whole batches until the measured window is long enough for the
      // clock resolution to be noise.
      std::uint64_t decisions = 0;
      const auto start = clock::now();
      auto elapsed = start - start;
      while (elapsed < kMinWindow) {
        for (int i = 0; i < 64; ++i) matcher->compute_into(d, out);
        decisions += 64;
        elapsed = clock::now() - start;
      }
      const double ns =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
          static_cast<double>(decisions);

      std::printf("  %-12s %-18s %12.1f ns/decision  (%llu decisions, %u iters)\n",
                  spec.c_str(), matcher->name().c_str(), ns,
                  static_cast<unsigned long long>(decisions), matcher->last_iterations());
      if (csv != nullptr) {
        std::fprintf(csv, "%s,%s,%u,%llu,%.1f,%u\n", spec.c_str(), matcher->name().c_str(),
                     ports, static_cast<unsigned long long>(decisions), ns,
                     matcher->last_iterations());
      }
    }
  }
  if (csv != nullptr) std::fclose(csv);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint32_t> port_counts;
  std::string csv_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--alloc-check") == 0) return alloc_check();
    if (std::strncmp(argv[i], "--ports=", 8) == 0) {
      std::uint32_t ports = 0;
      if (!util::parse_number(argv[i] + 8, ports) || ports == 0) {
        std::fprintf(stderr, "bench_matching_compute: bad --ports value: %s\n", argv[i] + 8);
        return 1;
      }
      port_counts.push_back(ports);
    } else if (std::strncmp(argv[i], "--csv=", 6) == 0) {
      csv_path = argv[i] + 6;
    }
  }
  if (!port_counts.empty()) return timing_mode(port_counts, csv_path);
  if (!csv_path.empty()) {
    std::fprintf(stderr, "bench_matching_compute: --csv requires --ports=N\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
