// E3a — wall-clock compute cost of each scheduling algorithm vs port count
// (google-benchmark microbenchmark), plus the steady-state zero-allocation
// gate CI runs (`--alloc-check`, which also covers the allocation-free
// circuit planners, the event engine, the VOQ bank and the packet FIFOs of
// a DrainQueue and the OCS), plus a
// self-contained timing mode
// (`--ports=N [--csv=PATH]`) that emits machine-readable numbers for every
// matcher and the allocation-free circuit planners, so kernel
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
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "demand/demand_matrix.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "queueing/drain_queue.hpp"
#include "queueing/voq.hpp"
#include "schedulers/policy_registry.hpp"
#include "sim/delay_line.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "switching/ocs.hpp"
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

/// Event churn shaped like the framework's packet path, with closures at the
/// inline buffer's limit: every delivery captures `[this, net::Packet,
/// port]` (the framework's own packet events capture only `this` and a port
/// or lane) and re-arms itself a few microseconds ahead.  Beside it run the
/// engine's other shapes: timers 10 us to 10 ms ahead (epochs, flow
/// arrivals), which sit in the calendar queue's far set; bursts of events at
/// one timestamp (an epoch boundary); cancels of both a delivery in
/// flight (an OCS reconfiguration cutting it) and a timer; and a delay line
/// (the ToR ingress hop) that every delivery's packet crosses, with bursts
/// of same-time entries.
class EngineChurn {
 public:
  explicit EngineChurn(std::uint32_t depth) : depth_{depth} {}

  /// Arms `depth` deliveries and a timer per kPortsPerTimer ports, then runs
  /// until `events` more deliveries have been scheduled and everything
  /// pending has fired.
  void run(std::uint64_t events) {
    budget_ = events;
    for (net::PortId port = 0; port < depth_; ++port) arm(port);
    for (net::PortId port = 0; port < depth_; port += kPortsPerTimer) arm_timer(port);
    sim_.run();
  }

  [[nodiscard]] const sim::SimulatorStats& stats() const noexcept { return sim_.stats(); }
  /// Delay-line entries fired so far.
  [[nodiscard]] std::uint64_t hops() const noexcept { return hops_; }

 private:
  static constexpr std::uint32_t kPortsPerTimer = 8;
  static constexpr int kBurst = 128;

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

  /// A timer 10 us to 10 ms ahead, log-uniform, that re-arms while the
  /// budget lasts.
  sim::EventId arm_timer(net::PortId port) {
    const double us = std::pow(10.0, rng_.uniform(1.0, 4.0));
    return sim_.schedule(sim::Time::picoseconds(static_cast<std::int64_t>(us * 1e6)), [this, port] {
      if (budget_ != 0) arm_timer(port);
    });
  }

  void delivered(const net::Packet& pkt, net::PortId port) {
    bytes_ += pkt.size_bytes;
    hop_.push(pkt);
    if (budget_ == 0) return;
    --budget_;
    arm(port);
    switch (budget_ % 4096) {
      case 0:
        sim_.cancel(arm(port));
        break;
      case 1024:
        sim_.cancel(arm_timer(port));
        break;
      case 2048: {
        const auto at = sim::Time::nanoseconds(rng_.uniform_int(1, 4000));
        for (int k = 0; k < kBurst; ++k) sim_.schedule(at, [this] { ++burst_events_; });
        break;
      }
      case 3072:
        for (int k = 0; k < kBurst; ++k) hop_.push(pkt);
        break;
      default:
        break;
    }
  }

  sim::Simulator sim_;
  sim::DelayLine<net::Packet> hop_{sim_, sim::Time::nanoseconds(500), [this](const net::Packet& p) {
                                     ++hops_;
                                     bytes_ -= p.size_bytes;
                                   }};
  sim::Rng rng_{7};
  std::uint32_t depth_;
  std::uint64_t budget_{0};
  std::uint64_t packets_{0};
  std::uint64_t burst_events_{0};
  std::uint64_t hops_{0};
  std::int64_t bytes_{0};
};

/// The engine half of `--alloc-check`: once the event queue has reached its
/// peak pending depth, scheduling, firing and cancelling must not allocate,
/// on the wheel or in the far set.
bool engine_alloc_check() {
  constexpr std::uint32_t kDepth = 1000;
  constexpr std::uint64_t kWarmupEvents = 100'000;
  constexpr std::uint64_t kMeasuredEvents = 1'000'000;

  EngineChurn churn{kDepth};
  churn.run(kWarmupEvents);
  const std::uint64_t executed_before = churn.stats().events_executed;
  const std::uint64_t hops_before = churn.hops();
  const std::uint64_t before = bench::heap_allocs();
  churn.run(kMeasuredEvents);
  const std::uint64_t allocs = bench::heap_allocs() - before;
  const std::uint64_t executed = churn.stats().events_executed - executed_before;
  const std::uint64_t hops = churn.hops() - hops_before;

  const bool ok = allocs == 0 && hops > 0;
  std::printf("steady-state heap allocations of the event engine "
              "(%llu events at pending depth %u, %llu of them delay-line entries):\n"
              "  %-31s %8llu %s\n",
              static_cast<unsigned long long>(executed), kDepth,
              static_cast<unsigned long long>(hops),
              "closures, timers, bursts, cancels, delay line",
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

/// Packet links at steady state: one DrainQueue with a propagation latency
/// and strict priority, and an OCS whose circuits are up, both fed one
/// packet per maximum-size serialisation (each OCS input sends one when its
/// wire is free), so that about eight packets propagate on each at once.
/// The OCS defers its deliveries as a framework's does: outputs 6 and 7
/// stand for uplinks and latency-sensitive packets keep their events, the
/// rest settle on later sends, on evented deliveries and on a settle_to_now
/// every 64 packets, as the timeline sampler would.
class LinkChurn {
 public:
  LinkChurn() : queue_{link_config()}, ocs_{sim_, ocs_config()} {
    queue_.attach(sim_, [this](const net::Packet& p) { bytes_ += p.size_bytes; });
    ocs_.set_deliver_callback([this](const net::Packet& p, sim::Time at) {
      bytes_ += p.size_bytes;
      if (at < sim_.now()) ++settled_late_;
    });
    ocs_.defer_deliveries(kInputs - 2);
    ocs_.reconfigure(schedulers::Matching::rotation(kInputs, 1));
    sim_.run();  // the first dark period
  }

  /// Emits `packets` more packets, runs until every one has arrived and
  /// settles the deferred rest.
  void run(std::uint64_t packets) {
    budget_ = packets;
    arm();
    sim_.run();
    ocs_.settle_all(sim_.now());
  }

  [[nodiscard]] bool drained() const noexcept {
    return queue_.queue_bytes() == 0 && queue_.propagating_bytes() == 0 &&
           ocs_.in_flight_bytes() == 0;
  }

  /// OCS deliveries handed over after their delivery time.
  [[nodiscard]] std::uint64_t settled_late() const noexcept { return settled_late_; }

 private:
  static constexpr std::uint32_t kInputs = 8;

  static queueing::DrainQueue::Config link_config() {
    return {.rate = sim::DataRate::gbps(10), .buffer_bytes = 0,
            .latency = sim::Time::microseconds(10), .strict_priority = true};
  }
  static switching::OcsConfig ocs_config() {
    return {.ports = kInputs, .port_rate = sim::DataRate::gbps(10),
            .reconfig_time = sim::Time::microseconds(1),
            .fabric_latency = sim::Time::microseconds(10)};
  }

  void arm() {
    sim_.schedule(sim::DataRate::gbps(10).transmission_time(1500 + sim::kWireOverheadBytes),
                  [this] { emit(); });
  }

  void emit() {
    net::Packet p;
    p.id = ++packets_;
    p.size_bytes = rng_.uniform_int(64, 1500);
    p.tclass = rng_.bernoulli(0.2) ? net::TrafficClass::kLatencySensitive
                                   : net::TrafficClass::kThroughput;
    (void)queue_.offer(p);
    for (net::PortId in = 0; in < kInputs; ++in) {
      if (ocs_.port_free_at(in) > sim_.now()) continue;
      p.src = in;
      p.dst = (in + 1) % kInputs;
      (void)ocs_.send(in, p);
    }
    if (packets_ % 64 == 0) ocs_.settle_to_now();
    if (--budget_ != 0) arm();
  }

  sim::Simulator sim_;
  sim::Rng rng_{5};
  queueing::DrainQueue queue_;
  switching::OpticalCircuitSwitch ocs_;
  std::uint64_t budget_{0};
  std::uint64_t packets_{0};
  std::int64_t bytes_{0};
  std::uint64_t settled_late_{0};
};

/// The link half of `--alloc-check`: once the DrainQueue's lanes and
/// propagating FIFO and the OCS's in-flight FIFOs have reached their steady
/// depth, offering, sending, delivering and settling must not allocate.
bool link_alloc_check() {
  constexpr std::uint64_t kWarmupPackets = 10'000;
  constexpr std::uint64_t kMeasuredPackets = 200'000;

  LinkChurn churn;
  churn.run(kWarmupPackets);
  const std::uint64_t settled_before = churn.settled_late();
  const std::uint64_t before = bench::heap_allocs();
  churn.run(kMeasuredPackets);
  const std::uint64_t allocs = bench::heap_allocs() - before;
  const std::uint64_t settled = churn.settled_late() - settled_before;

  const bool ok = allocs == 0 && churn.drained() && settled > 0;
  std::printf("steady-state heap allocations of the packet links (%llu packets each, "
              "10 us propagation; %llu OCS deliveries settled late):\n  %-31s %8llu %s\n",
              static_cast<unsigned long long>(kMeasuredPackets),
              static_cast<unsigned long long>(settled),
              "DrainQueue + OCS in flight", static_cast<unsigned long long>(allocs),
              ok ? "OK" : "FAIL");
  return ok;
}

/// The circuit planners that plan without allocating: the alloc-check gates
/// them and the timing mode times them.
constexpr const char* kTimedPlanners[] = {"solstice", "solstice:0", "solstice:1.5", "cthrough"};

/// The planner half of `--alloc-check`: circuit_scheduler.hpp promises
/// that solstice and cthrough plan without heap allocation once their
/// workspaces and the recycled plan have grown to the demand's shape.  Each
/// planner is warmed on a rotation of demands of one shape, whose plans
/// have different slot counts, then allocations are counted over further
/// rotations of plan_into.  (bvn and tms allocate per decomposition term
/// by design, so they are not gated.)
bool planner_alloc_check(std::uint32_t ports) {
  constexpr double kDensities[] = {0.5, 0.05, 0.9, 0.2};
  constexpr int kWarmupRotations = 4;
  constexpr int kMeasuredRotations = 8;

  std::vector<demand::DemandMatrix> demands;
  for (const double density : kDensities) {
    demands.push_back(random_demand(ports, demands.size() + 11, density));
  }
  // One microsecond of a 10 Gbps port: the bytes a reconfiguration costs.
  const schedulers::PolicyContext ctx{.ports = ports, .seed = 42, .reconfig_cost_bytes = 1'250};
  std::printf("steady-state heap allocations per %d plans (%u ports):\n",
              kMeasuredRotations * static_cast<int>(demands.size()), ports);
  bool ok = true;
  for (const char* spec : kTimedPlanners) {
    auto planner = schedulers::PolicyRegistry::instance().make_circuit(spec, ctx);
    schedulers::CircuitPlan plan;
    for (int i = 0; i < kWarmupRotations; ++i) {
      for (const auto& d : demands) planner->plan_into(d, plan);
    }
    const std::uint64_t before = bench::heap_allocs();
    for (int i = 0; i < kMeasuredRotations; ++i) {
      for (const auto& d : demands) planner->plan_into(d, plan);
    }
    const std::uint64_t allocs = bench::heap_allocs() - before;
    ok = ok && allocs == 0;
    std::printf("  %-12s %-18s %8llu %s\n", spec, planner->name().c_str(),
                static_cast<unsigned long long>(allocs), allocs == 0 ? "OK" : "FAIL");
  }
  return ok;
}

/// `--alloc-check`: for every registered matcher spec, warm the decision
/// loop, then count heap allocations over a steady-state window; then do the
/// same for the allocation-free circuit planners (planner_alloc_check), the
/// event engine (engine_alloc_check), the VOQ bank (voq_alloc_check) and the
/// packet FIFOs of a DrainQueue and the OCS, deferred deliveries and their
/// settles included (link_alloc_check).
/// Any allocation is a regression of the allocation-free hot-path contract.
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
  bool planners_ok = true;
  for (const std::uint32_t ports : kPortCounts) {
    planners_ok = planner_alloc_check(ports) && planners_ok;
  }
  const bool engine_ok = engine_alloc_check();
  const bool voq_ok = voq_alloc_check();
  const bool links_ok = link_alloc_check();
  if (failures > 0 || !planners_ok || !engine_ok || !voq_ok || !links_ok) {
    std::fprintf(stderr, "alloc-check: %d matcher config(s)%s%s%s%s allocate in steady state\n",
                 failures, planners_ok ? "" : ", a circuit planner",
                 engine_ok ? "" : ", the event engine", voq_ok ? "" : ", the VOQ bank",
                 links_ok ? "" : ", the packet links");
    return 1;
  }
  std::printf("alloc-check: all matchers, the solstice and cthrough planners, the event engine, "
              "the VOQ bank and the packet links run allocation-free in steady state\n");
  return 0;
}

/// Mean nanoseconds per call of `decide` once warm: whole batches of 64
/// run until the measured window is long enough for the clock resolution
/// to be noise.  Stores the number of calls timed in `decisions`.
template <typename Decide>
double ns_per_call(Decide&& decide, std::uint64_t& decisions) {
  using clock = std::chrono::steady_clock;
  constexpr int kWarmupDecisions = 64;
  constexpr auto kMinWindow = std::chrono::milliseconds{200};
  for (int i = 0; i < kWarmupDecisions; ++i) decide();
  decisions = 0;
  const auto start = clock::now();
  auto elapsed = start - start;
  while (elapsed < kMinWindow) {
    for (int i = 0; i < 64; ++i) decide();
    decisions += 64;
    elapsed = clock::now() - start;
  }
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
         static_cast<double>(decisions);
}

/// `--ports=N [--csv=PATH]`: time every registered matcher, and the
/// allocation-free circuit planners, at exactly the requested port counts
/// (repeatable flag) over the same randomized demand the microbenchmarks
/// use, and optionally append the numbers to a CSV — one row per (spec,
/// ports) — so kernel before/after comparisons live in
/// version-controllable files instead of terminal scrollback.  A planner's
/// row times one plan_into per decision; its `iters_used` is the plan's
/// slot count.
int timing_mode(const std::vector<std::uint32_t>& port_counts, const std::string& csv_path) {
  std::FILE* csv = nullptr;
  if (!csv_path.empty()) {
    csv = std::fopen(csv_path.c_str(), "w");
    if (csv == nullptr) {
      std::fprintf(stderr, "bench_matching_compute: cannot open %s\n", csv_path.c_str());
      return 1;
    }
    std::fprintf(csv, "spec,name,ports,decisions,ns_per_decision,iters_used\n");
  }

  const auto report = [csv](const std::string& spec, const std::string& name, std::uint32_t ports,
                            std::uint64_t decisions, double ns, std::uint32_t iters) {
    std::printf("  %-12s %-18s %12.1f ns/decision  (%llu decisions, %u iters)\n", spec.c_str(),
                name.c_str(), ns, static_cast<unsigned long long>(decisions), iters);
    if (csv != nullptr) {
      std::fprintf(csv, "%s,%s,%u,%llu,%.1f,%u\n", spec.c_str(), name.c_str(), ports,
                   static_cast<unsigned long long>(decisions), ns, iters);
    }
  };
  const auto& registry = schedulers::PolicyRegistry::instance();
  for (const std::uint32_t ports : port_counts) {
    const demand::DemandMatrix d = random_demand(ports, ports * 7 + 1, 0.5);
    std::printf("matcher and planner compute cost at %u ports:\n", ports);
    for (const auto& spec : registry.known_specs(schedulers::PolicyKind::kMatcher)) {
      auto matcher = registry.make_matcher(spec, {.ports = ports, .seed = 42});
      schedulers::Matching out;
      std::uint64_t decisions = 0;
      const double ns = ns_per_call([&] { matcher->compute_into(d, out); }, decisions);
      report(spec, matcher->name(), ports, decisions, ns, matcher->last_iterations());
    }
    // The planners' reconfiguration cost is one microsecond of a 10 Gbps
    // port, as in the alloc-check.
    const schedulers::PolicyContext ctx{.ports = ports, .seed = 42, .reconfig_cost_bytes = 1'250};
    for (const char* spec : kTimedPlanners) {
      auto planner = registry.make_circuit(spec, ctx);
      schedulers::CircuitPlan plan;
      std::uint64_t plans = 0;
      const double ns = ns_per_call([&] { planner->plan_into(d, plan); }, plans);
      report(spec, planner->name(), ports, plans, ns,
             static_cast<std::uint32_t>(plan.slots.size()));
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
