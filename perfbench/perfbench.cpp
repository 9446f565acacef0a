// Benchmark program: runs one workload through exp::ExperimentRunner on one
// worker thread and prints its metrics.  run.py builds and invokes it:
//
//   xdrs_perfbench --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
//                  [--quick] [--perturb]
//
// --trace 0 times set-up in fresh processes, discards one warm-up pass and
// reports end-to-end metrics as medians over the timed passes that fit in
// S seconds, pass and point times in reference-host seconds (hostspeed.hpp).
// --trace 1 adds a pass with the stage timers on and the per-layer replays,
// and reports per-layer metrics.  Every point's report is checked (warm-up
// vs timed pass, traced vs untraced, warm cache vs cold run, delivered <=
// offered); the last stdout line is one JSON object.
//
// --quick shrinks the workload for the self-test; --perturb alters one
// report of one timed pass so the self-test can see the check fail it.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/report_io.hpp"
#include "exp/cache.hpp"
#include "exp/runner.hpp"
#include "hostspeed.hpp"
#include "replay.hpp"
#include "stats/json.hpp"
#include "traffic/empirical_cdf.hpp"
#include "util/file_io.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using xdrs::exp::ScenarioSpec;

namespace perfbench {

namespace {

/// Set-ups timed in forked children before the process's own one.
/// sweep_warm's set-up includes a whole cold pass, so it runs fewer to
/// keep a run short.
constexpr int kFreshSetups = 8;
constexpr int kFreshSetupsWarm = 2;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  bool quick{false};
  bool perturb{false};
  std::string tmp;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument{flag + " needs a value"};
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--tmp") {
      a.tmp = value();
    } else if (flag == "--quick") {
      a.quick = true;
    } else if (flag == "--perturb") {
      a.perturb = true;
    } else {
      throw std::invalid_argument{"unknown flag " + flag};
    }
  }
  if (a.workload.empty() || a.tmp.empty()) {
    throw std::invalid_argument{"--workload and --tmp are required"};
  }
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quantile of whole-microsecond samples, each read as the interval
/// [v, v+1) its truncated clock reading stands for, interpolated within the
/// interval that holds rank q*n.  Unlike a plain order statistic it does
/// not snap to the same integer when many samples tie.
double interval_quantile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double target = q * static_cast<double>(v.size());
  std::size_t below = 0;
  while (below < v.size()) {
    std::size_t run = below;
    while (run < v.size() && v[run] == v[below]) ++run;
    if (static_cast<double>(run) > target || run == v.size()) {
      const double frac = (target - static_cast<double>(below)) / static_cast<double>(run - below);
      return static_cast<double>(v[below]) + std::clamp(frac, 0.0, 1.0);
    }
    below = run;
  }
  return static_cast<double>(v.back());
}

std::uint64_t report_hash(const xdrs::core::RunReport& r) {
  return xdrs::util::fnv1a(xdrs::core::report_state_json(r));
}

/// Runs `fn(built)` on the object run_scenario() would build for `spec`.
template <typename Fn>
auto with_built(const ScenarioSpec& spec, Fn&& fn) {
  if (spec.topology.multi_rack()) return fn(*xdrs::exp::materialize_fat_tree(spec));
  return fn(*xdrs::exp::materialize(spec));
}

/// One pass of the whole workload through the runner, and what the output
/// check needs from it.
struct Pass {
  double wall_s{0.0};  ///< run() + to_json(), less host-speed sampling
  double emit_s{0.0};  ///< to_json() alone
  double slowness{1.0};  ///< HostSpan::slowness over the pass (1 when not sampled)
  std::uint64_t digest{0};
  std::vector<std::int64_t> wall_us;
  /// Per point: wall_us less host-speed sampling, in reference-host ms
  /// (sampled passes only).
  std::vector<double> ref_ms;
  std::vector<std::uint64_t> hashes;
  std::vector<bool> conserving;  ///< delivered_bytes <= offered_bytes
  double hit_ratio{0.0};         ///< cache hits / lookups during this pass
  /// Held only when asked for: a 3,840-point result is ~180 MB.
  std::optional<xdrs::exp::SweepResult> result;
};

struct PassOptions {
  std::string telemetry_dir;
  /// Samples the host's speed through the pass (hostspeed.hpp).  Off where
  /// per-layer timings must not include the sampling.
  bool sample_host{false};
  bool keep_result{false};
  /// Alter the first report before it is checked (self-test).
  bool perturb{false};
};

Pass run_pass(const std::vector<ScenarioSpec>& grid, xdrs::exp::ResultCache* cache,
              const PassOptions& opt = {}) {
  xdrs::exp::ExecutionPlan plan;
  plan.threads = 1;
  plan.cache = cache;
  plan.telemetry_dir = opt.telemetry_dir;
  // Sampling time inside each point: what accrued since the previous
  // point ended (one thread runs the points in order, back to back).
  std::vector<double> inside_s;
  if (opt.sample_host) {
    plan.progress = [&inside_s, before = 0.0](std::size_t, std::size_t,
                                              const ScenarioSpec&) mutable {
      const double now = host_span_inside_s();
      inside_s.push_back(now - before);
      before = now;
    };
    begin_host_span();
  }
  const xdrs::exp::ExperimentRunner runner{plan};
  const xdrs::exp::CacheStats before = cache != nullptr ? cache->stats() : xdrs::exp::CacheStats{};
  Pass p;
  const auto t0 = Clock::now();
  xdrs::exp::SweepResult result = runner.run(grid);
  const auto t1 = Clock::now();
  const std::string json = result.to_json();
  p.wall_s = seconds_since(t0);
  p.emit_s = seconds_since(t1);
  if (opt.sample_host) {
    const HostSpan span = end_host_span();
    p.wall_s -= span.inside_s;
    p.slowness = span.slowness;
    for (std::size_t i = 0; i < result.points.size() && i < inside_s.size(); ++i) {
      const double us = static_cast<double>(result.points[i].wall_us) + 0.5 - inside_s[i] * 1e6;
      p.ref_ms.push_back(std::max(us, 0.0) / p.slowness / 1e3);
    }
  }
  p.digest = xdrs::util::fnv1a(json);
  if (cache != nullptr) {
    const xdrs::exp::CacheStats after = cache->stats();
    const auto hits = static_cast<double>(after.hits - before.hits);
    const auto lookups = hits + static_cast<double>(after.misses - before.misses) +
                         static_cast<double>(after.stale - before.stale);
    p.hit_ratio = lookups == 0.0 ? 0.0 : hits / lookups;
  }
  if (opt.perturb && !result.points.empty()) result.points.front().report.delivered_bytes += 1;
  for (const auto& pt : result.points) {
    p.wall_us.push_back(pt.wall_us);
    p.hashes.push_back(report_hash(pt.report));
    p.conserving.push_back(pt.report.delivered_bytes <= pt.report.offered_bytes);
  }
  if (opt.keep_result) p.result = std::move(result);
  return p;
}

/// Output check bookkeeping: every point result compared is one attempt.
struct Check {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  void compare(const Pass& reference, const Pass& candidate) {
    for (std::size_t i = 0; i < candidate.hashes.size(); ++i) {
      ++attempted;
      const bool same =
          i < reference.hashes.size() && reference.hashes[i] == candidate.hashes[i];
      if (!same || !candidate.conserving[i]) ++failed;
    }
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Check& check, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += check.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(check.attempted);
  out += ", \"failed\": " + std::to_string(check.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"' + metrics[i].name + "\": {\"value\": " + format_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Everything set-up produces for the passes.
struct Prepared {
  Workload workload;
  std::unique_ptr<xdrs::exp::ResultCache> cache;  ///< kWarm: the filled cache
  std::optional<Pass> cold_fill;                   ///< kWarm: the pass that filled it
};

/// Set-up, everything before the first pass can begin: the grid build,
/// the CDF loads, a build of every point (which rejects unknown policy
/// names before any pass starts), the temp cache directory and, for the
/// warm workload, the cold pass that fills the cache.  In a fresh process
/// it also pays the one-time registry construction and CDF parse.
Prepared set_up(const Args& args, const fs::path& cache_dir) {
  Prepared p;
  p.workload = make_workload(args.workload, args.seed, args.quick);
  for (const auto& path : p.workload.cdf_paths) (void)xdrs::traffic::load_cdf_cached(path);
  for (const auto& spec : p.workload.grid) {
    with_built(spec, [](auto&) { return 0; });
  }
  if (p.workload.cache == CacheMode::kNone) return p;
  fs::remove_all(cache_dir);
  p.cache = std::make_unique<xdrs::exp::ResultCache>(cache_dir.string());
  if (p.workload.cache == CacheMode::kWarm) {
    p.cold_fill = run_pass(p.workload.grid, p.cache.get());
  } else {
    // Cold passes each get a fresh directory of their own.
    p.cache.reset();
    fs::remove_all(cache_dir);
  }
  return p;
}

/// Seconds set_up() takes in a child forked at main entry, before this
/// process has set anything up, so the child pays every one-time cost a
/// freshly started benchmark pays.
double fresh_setup_seconds(const Args& args, int index) {
  const fs::path cache_dir = fs::path{args.tmp} / ("setup-cache-" + std::to_string(index));
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error{"pipe failed"};
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error{"fork failed"};
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed benchmark
    close(fds[0]);
    double s = -1.0;
    try {
      const auto t0 = Clock::now();
      Prepared p = set_up(args, cache_dir);
      s = seconds_since(t0);
      p.cache.reset();
      fs::remove_all(cache_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "xdrs_perfbench: set-up: %s\n", e.what());
    }
    const bool sent = write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    _exit(sent && s >= 0.0 ? 0 : 1);  // no atexit handlers, no stdio flush
  }
  close(fds[1]);
  double s = -1.0;
  const bool got = read(fds[0], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error{"set-up failed in a fresh process"};
  }
  return s;
}

/// A pass with the cache the workload's mode calls for; cold passes get a
/// fresh directory that is removed afterwards.
Pass workload_pass(const Args& args, Prepared& prep, int index, const PassOptions& opt = {}) {
  if (prep.workload.cache != CacheMode::kCold) {
    return run_pass(prep.workload.grid, prep.cache.get(), opt);
  }
  const fs::path dir = fs::path{args.tmp} / ("pass-cache-" + std::to_string(index));
  fs::remove_all(dir);
  Pass p;
  {
    xdrs::exp::ResultCache cache{dir.string()};
    p = run_pass(prep.workload.grid, &cache, opt);
  }
  fs::remove_all(dir);
  return p;
}

bool simulates(const Prepared& prep) { return prep.workload.cache != CacheMode::kWarm; }

double grid_simulated_seconds(const std::vector<ScenarioSpec>& grid) {
  double s = 0.0;
  for (const auto& spec : grid) s += simulated_seconds(spec);
  return s;
}

// ------------------------------------------------------------ trace 0

std::vector<Metric> end_to_end(const Args& args, Prepared& prep, const Pass& warmup,
                               const std::vector<double>& setups, Check& check) {
  // Passes run until the next one would end past the deadline (at least
  // three), so a run lasts about `seconds` after the warm-up pass.
  std::vector<Pass> timed;
  std::vector<double> walls, ref_walls;
  const std::size_t min_passes = args.quick ? 1 : 3;
  const auto t0 = Clock::now();
  while (timed.size() < min_passes ||
         (seconds_since(t0) + median(walls) <= args.seconds && timed.size() < 100)) {
    PassOptions opt;
    opt.perturb = args.perturb && timed.empty();
    opt.sample_host = true;
    Pass p = workload_pass(args, prep, static_cast<int>(timed.size()) + 1, opt);
    check.compare(warmup, p);
    walls.push_back(p.wall_s);
    ref_walls.push_back(p.wall_s / p.slowness);
    timed.push_back(std::move(p));
  }

  std::vector<std::int64_t> point_us;
  std::vector<double> ref_point_ms;
  for (const auto& p : timed) {
    point_us.insert(point_us.end(), p.wall_us.begin(), p.wall_us.end());
    ref_point_ms.insert(ref_point_ms.end(), p.ref_ms.begin(), p.ref_ms.end());
  }
  const double pass_s = median(ref_walls);
  const double points = static_cast<double>(prep.workload.grid.size());
  const double p50_ms = median(ref_point_ms);

  std::printf("%s: %zu points, %zu timed passes, median pass %.4f reference-host s\n",
              args.workload.c_str(), prep.workload.grid.size(), timed.size(), pass_s);
  std::printf("  pass walls        ");
  for (const double w : walls) std::printf(" %.4f", w);
  std::printf(" s\n  host slowness     ");
  for (const auto& p : timed) std::printf(" %.3f", p.slowness);
  std::printf("\n");
  if (simulates(prep)) {
    std::printf("  sim_s_per_wall_s   %.6g s/s reference-host, %.6g s/s raw\n",
                grid_simulated_seconds(prep.workload.grid) / pass_s,
                grid_simulated_seconds(prep.workload.grid) / median(walls));
  }
  std::printf("  points_per_s       %.6g 1/s reference-host, %.6g 1/s raw\n", points / pass_s,
              points / median(walls));
  std::printf("  point_ms.p50       %.6g ms reference-host, %.6g ms raw (n=%zu)\n", p50_ms,
              interval_quantile(point_us, 0.50) / 1e3, point_us.size());
  // A tail quantile is printed only where at least 10 samples lie beyond it.
  if (point_us.size() >= 1000) {
    std::sort(ref_point_ms.begin(), ref_point_ms.end());
    std::printf("  point_ms.p99       %.6g ms reference-host, %.6g ms raw (n=%zu)\n",
                ref_point_ms[ref_point_ms.size() * 99 / 100],
                interval_quantile(point_us, 0.99) / 1e3, point_us.size());
  }
  std::printf("  setup_s            %.6g s (median of %zu fresh set-ups)\n", median(setups),
              setups.size());
  return {
      {"points_per_s", points / pass_s, "1/s"},
      {"point_ms.p50", p50_ms, "ms"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// ------------------------------------------------------------ trace 1

struct StageTotals {
  std::uint64_t count{0};
  double total_ns{0.0};
  [[nodiscard]] double mean_ns() const {
    return count == 0 ? 0.0 : total_ns / static_cast<double>(count);
  }
};

/// Sums the per-stage timers of every telemetry sidecar in `dir`.
std::map<std::string, StageTotals> read_sidecars(const std::string& dir) {
  std::map<std::string, StageTotals> stages;
  if (!fs::exists(dir)) return stages;
  for (const auto& entry : fs::directory_iterator{dir}) {
    const std::optional<std::string> text = xdrs::util::read_file(entry.path().string());
    if (!text) throw std::runtime_error{"unreadable sidecar " + entry.path().string()};
    const xdrs::stats::JsonValue doc = xdrs::stats::parse_json(*text);
    for (const auto& stage : doc.at("stages").items()) {
      StageTotals& t = stages[stage.at("name").as_str()];
      t.count += stage.at("count").as_u64();
      t.total_ns += static_cast<double>(stage.at("total_ns").as_i64());
    }
  }
  return stages;
}

/// What one untraced, directly built run of every simulated point costs.
struct CountingPass {
  std::uint64_t events{0};
  std::uint64_t scheduled{0};
  std::uint64_t cancelled{0};
  double depth_weighted{0.0};  ///< sum of events x pending depth at horizon
  double run_s{0.0};
  double materialize_s{0.0};
  std::vector<std::uint64_t> hashes;
};

CountingPass counting_pass(const std::vector<ScenarioSpec>& grid) {
  CountingPass c;
  for (const auto& spec : grid) {
    const auto t0 = Clock::now();
    with_built(spec, [&](auto& built) {
      const auto t1 = Clock::now();
      const xdrs::core::RunReport report = built.run(spec.duration, spec.warmup);
      c.run_s += seconds_since(t1);
      c.materialize_s += std::chrono::duration<double>(t1 - t0).count();
      const auto& st = built.simulator().stats();
      c.events += st.events_executed;
      c.scheduled += st.events_scheduled;
      c.cancelled += st.events_cancelled;
      c.depth_weighted += static_cast<double>(st.events_executed) *
                          static_cast<double>(built.simulator().pending_events());
      c.hashes.push_back(report_hash(report));
      return 0;
    });
  }
  return c;
}

/// Mean microseconds per call of `op(i)` over at least `min_ops` calls
/// cycling through `n` items.
template <typename Op>
double time_per_op_us(std::size_t n, std::size_t min_ops, Op&& op) {
  if (n == 0) return 0.0;
  const std::size_t ops = std::max(n, min_ops);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) op(i % n);
  return seconds_since(t0) * 1e6 / static_cast<double>(ops);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<Metric> per_layer(const Args& args, Prepared& prep, const Pass& warmup,
                              Check& check) {
  const auto& grid = prep.workload.grid;
  const double points = static_cast<double>(grid.size());

  // Untraced passes: the reference the traced pass's overhead is read against.
  std::vector<double> walls, emits, overheads;
  const int untraced = args.quick ? 1 : 2;
  for (int i = 0; i < untraced; ++i) {
    PassOptions opt;
    opt.perturb = args.perturb && i == 0;
    Pass p = workload_pass(args, prep, i + 1, opt);
    check.compare(warmup, p);
    double point_s = 0.0;
    for (const auto us : p.wall_us) point_s += static_cast<double>(us) * 1e-6;
    walls.push_back(p.wall_s);
    emits.push_back(p.emit_s);
    overheads.push_back((p.wall_s - p.emit_s - point_s) / points * 1e6);
  }

  // Traced pass: stage timers on through telemetry sidecars.
  const std::string sidecar_dir = (fs::path{args.tmp} / "sidecars").string();
  fs::remove_all(sidecar_dir);
  PassOptions traced_opt;
  traced_opt.telemetry_dir = sidecar_dir;
  Pass traced = workload_pass(args, prep, 0, traced_opt);
  check.compare(warmup, traced);
  const std::map<std::string, StageTotals> stages = read_sidecars(sidecar_dir);
  fs::remove_all(sidecar_dir);
  const auto stage = [&](const char* name) {
    const auto it = stages.find(name);
    return it == stages.end() ? StageTotals{} : it->second;
  };

  // Model outputs and simulated work, from the warm-up reports.
  double delivered = 0.0, ocs = 0.0, eps = 0.0, cross = 0.0, core = 0.0;
  double generated_packets = 0.0;
  std::uint64_t packets = 0, voq_drops = 0, cuts = 0, core_drops = 0;
  const auto& pts = warmup.result->points;
  for (const auto& pt : pts) {
    const auto& r = pt.report;
    if (!pt.cached) {
      packets += r.offered_packets;
      const double window = pt.spec.duration.sec();
      if (window > 0.0) {
        generated_packets += static_cast<double>(r.offered_packets) *
                             simulated_seconds(pt.spec) / window;
      }
    }
    delivered += static_cast<double>(r.delivered_bytes);
    ocs += static_cast<double>(r.ocs_bytes);
    eps += static_cast<double>(r.eps_bytes);
    cross += static_cast<double>(r.cross_rack_bytes);
    core += static_cast<double>(r.core_link_bytes);
    voq_drops += r.voq_drops;
    cuts += r.reconfig_cuts;
    core_drops += r.core_drops;
  }

  // Direct builds of every simulated point: event counts, the untraced run
  // wall they are read against, and the materialize cost.
  CountingPass counts;
  double queue_ns = 0.0, traffic_ns = 0.0, voq_ns = 0.0;
  if (simulates(prep)) {
    counts = counting_pass(grid);
    for (std::size_t i = 0; i < counts.hashes.size(); ++i) {
      ++check.attempted;
      if (counts.hashes[i] != warmup.hashes[i]) ++check.failed;
    }
    const std::uint64_t cap = args.quick ? 200'000 : 12'000'000;
    const auto depth = static_cast<std::size_t>(
        ratio(counts.depth_weighted, static_cast<double>(counts.events)));
    queue_ns = replay_event_queue(std::min(counts.events, cap), depth, args.seed);

    // Generators depend only on the traffic half of a spec, so replay each
    // distinct (scenario, load, seed, window) once.
    std::vector<ScenarioSpec> distinct;
    std::set<std::string> seen;
    for (const auto& spec : grid) {
      const std::string key = spec.scenario + '/' + std::to_string(spec.load()) + '/' +
                              std::to_string(spec.config.seed) + '/' +
                              std::to_string(spec.duration.ps());
      if (seen.insert(key).second) distinct.push_back(spec);
    }
    const TrafficReplay traffic = replay_generators(distinct, args.quick ? 50'000 : 2'000'000);
    traffic_ns = traffic.ns_per_packet;
    voq_ns = replay_voq(traffic.stream, traffic.ports, 4 * traffic.ports);
  }

  // The exp and stats layers, called directly on the warm-up reports.
  const std::size_t min_ops = args.quick ? 20 : 400;
  const fs::path layer_cache_dir = fs::path{args.tmp} / "layer-cache";
  fs::remove_all(layer_cache_dir);
  double store_us = 0.0, lookup_us = 0.0;
  {
    xdrs::exp::ResultCache cache{layer_cache_dir.string()};
    store_us = time_per_op_us(pts.size(), min_ops,
                              [&](std::size_t i) { cache.store(pts[i].spec, pts[i].report); });
    lookup_us = time_per_op_us(pts.size(), min_ops, [&](std::size_t i) {
      if (!cache.lookup(pts[i].spec)) throw std::runtime_error{"layer cache lost an entry"};
    });
  }
  fs::remove_all(layer_cache_dir);
  std::vector<std::string> dumps(pts.size());
  const double dump_us = time_per_op_us(pts.size(), min_ops, [&](std::size_t i) {
    dumps[i] = xdrs::core::report_state_json(pts[i].report);
  });
  const double parse_us = time_per_op_us(pts.size(), min_ops, [&](std::size_t i) {
    const auto r = xdrs::core::report_from_state(xdrs::stats::parse_json(dumps[i]));
    if (r.offered_bytes != pts[i].report.offered_bytes) {
      throw std::runtime_error{"report state did not round-trip"};
    }
  });

  const StageTotals estimator = stage("estimator_snapshot");
  const StageTotals matcher = stage("matcher_compute");
  const StageTotals circuit = stage("circuit_plan");
  const StageTotals reconf = stage("ocs_reconfigure");
  const double events = static_cast<double>(counts.events);
  const double accounted_ns = estimator.total_ns + matcher.total_ns + circuit.total_ns +
                              reconf.total_ns + events * queue_ns +
                              generated_packets * (traffic_ns + voq_ns);
  const double run_ns = counts.run_s * 1e9;

  std::printf("%s: traced pass %.4f s vs untraced median %.4f s; %llu events; depth %.0f\n",
              args.workload.c_str(), traced.wall_s, median(walls),
              static_cast<unsigned long long>(counts.events),
              ratio(counts.depth_weighted, events));
  std::printf("  traced digest      %s\n", xdrs::util::hex16(traced.digest).c_str());
  std::printf("  stage timers       %.3g %% of untraced run wall\n",
              100.0 * ratio(estimator.total_ns + matcher.total_ns + circuit.total_ns +
                                reconf.total_ns,
                            run_ns));
  return {
      {"sim.events", events, "count"},
      {"sim.ns_per_event", ratio(run_ns, events), "ns"},
      {"sim.queue_ns_per_event", queue_ns, "ns"},
      {"sim.cancel_ratio",
       ratio(static_cast<double>(counts.cancelled), static_cast<double>(counts.scheduled)), "1"},
      {"traffic.packets", static_cast<double>(packets), "count"},
      {"traffic.ns_per_packet", traffic_ns, "ns"},
      {"queueing.ns_per_packet", voq_ns, "ns"},
      {"queueing.voq_drops", static_cast<double>(voq_drops), "count"},
      {"demand.snapshot_ns", estimator.mean_ns(), "ns"},
      {"schedulers.matcher_ns", matcher.mean_ns(), "ns"},
      {"schedulers.circuit_plan_ns", circuit.mean_ns(), "ns"},
      {"schedulers.decisions", static_cast<double>(matcher.count + circuit.count), "count"},
      {"switching.reconfigure_ns", reconf.mean_ns(), "ns"},
      {"switching.reconfigs", static_cast<double>(reconf.count), "count"},
      {"switching.ocs_byte_share", ratio(ocs, ocs + eps), "1"},
      {"switching.reconfig_cuts", static_cast<double>(cuts), "count"},
      {"core.unaccounted_share", run_ns == 0.0 ? 0.0 : 1.0 - accounted_ns / run_ns, "1"},
      {"topo.cross_rack_share", ratio(cross, delivered), "1"},
      {"topo.core_bytes_per_cross_byte", ratio(core, cross), "1"},
      {"topo.core_drops", static_cast<double>(core_drops), "count"},
      {"exp.materialize_us", counts.materialize_s * 1e6 / points, "us"},
      {"exp.cache_store_us", store_us, "us"},
      {"exp.cache_lookup_us", lookup_us, "us"},
      {"exp.cache_hit_ratio", traced.hit_ratio, "1"},
      {"exp.runner_overhead_us", median(overheads), "us"},
      {"exp.emit_ms", median(emits) * 1e3, "ms"},
      {"stats.report_dump_us", dump_us, "us"},
      {"stats.report_parse_us", parse_us, "us"},
      {"obs.trace_overhead", traced.wall_s / median(walls) - 1.0, "1"},
  };
}

int run(const Args& args) {
  fs::create_directories(args.tmp);
  // setup_s is the median over set-ups that each start from main entry:
  // forked children first, while this process is still fresh, then its own.
  // It is raw wall time: set-up is mostly first touches of fresh memory,
  // whose cost the host-speed reference does not track.
  std::vector<double> setups;
  const int fresh = args.trace   ? 0
                    : args.quick ? 1
                    : args.workload == "sweep_warm" ? kFreshSetupsWarm
                                                    : kFreshSetups;
  for (int i = 1; i <= fresh; ++i) setups.push_back(fresh_setup_seconds(args, i));
  const auto t0 = Clock::now();
  Prepared prep = set_up(args, fs::path{args.tmp} / "setup-cache-0");
  setups.push_back(seconds_since(t0));
  Check check;
  PassOptions warmup_opt;
  warmup_opt.keep_result = args.trace;  // the layer replays reuse its reports
  Pass warmup = workload_pass(args, prep, 0, warmup_opt);
  if (prep.cold_fill) check.compare(*prep.cold_fill, warmup);
  const std::vector<Metric> metrics = args.trace ? per_layer(args, prep, warmup, check)
                                                 : end_to_end(args, prep, warmup, setups, check);
  std::printf("  digest             %s (FNV-1a of SweepResult::to_json)\n",
              xdrs::util::hex16(warmup.digest).c_str());
  std::printf("  fail_ratio         %.6g (%llu of %llu point results)\n",
              ratio(static_cast<double>(check.failed), static_cast<double>(check.attempted)),
              static_cast<unsigned long long>(check.failed),
              static_cast<unsigned long long>(check.attempted));
  std::fflush(stdout);
  prep.cache.reset();
  fs::remove_all(args.tmp);
  print_result(check, metrics);
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xdrs_perfbench: %s\n", e.what());
    return 1;
  }
}
