// sweepctl — sweep orchestration from the command line.
//
// A grid preset names a deterministic grid (exp/presets.hpp), so separate
// processes — or separate hosts sharing nothing but these files — can each
// run a slice and a final merge reassembles the exact single-process
// artefact.  Two fan-out styles, freely mixable per ExecutionPlan:
//
// Static shards (fixed point → process assignment):
//
//   host A$ sweepctl run --preset small --shard 0/2 --cache cache/ --out shard0.json
//   host B$ sweepctl run --preset small --shard 1/2 --cache cache/ --out shard1.json
//        $ sweepctl merge --preset small --out sweep.json shard0.json shard1.json
//        $ cmp sweep.json <(bench_sweep --json=/dev/stdout ...)   # byte-identical
//
// Elastic workers (lease-based work stealing — any number of processes,
// join or die at any time, one slow host no longer gates the sweep):
//
//   host A$ sweepctl run --preset small --claim cache/ --out w1.json
//   host B$ sweepctl run --preset small --claim cache/ --out w2.json
//        $ sweepctl status --preset small --leases --claim cache/
//        $ sweepctl merge --preset small --claim cache/ --out sweep.json w1.json w2.json
//
// `--claim DIR` claims points through lease files in DIR/leases (and uses
// DIR as the result cache); a worker that dies stops heartbeating and its
// points are stolen by the survivors after --ttl.  Because the simulator is
// deterministic the merged artefact is byte-identical to a single-process
// run no matter who computed what (CI-gated).  `run --hosts`/`run --k8s`
// emit the ssh fan-out script / Kubernetes Job manifest for a fleet of such
// workers.  `status` reports grid size, cache presence, shard-file coverage
// and (with --leases) live/stale/requeued claims; `presets` sizes a fleet
// from recorded per-point walls.  `gc` evicts cache entries older than
// --keep-days.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/cache.hpp"
#include "exp/lease.hpp"
#include "exp/presets.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "stats/json.hpp"
#include "stats/serialize.hpp"
#include "util/file_io.hpp"
#include "util/parse.hpp"

namespace {

using namespace xdrs;

int usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "sweepctl: %s\n\n", error);
  std::fprintf(stderr,
               "usage: sweepctl <command> [options]\n"
               "\n"
               "commands:\n"
               "  presets [--claim DIR | --cache DIR]\n"
               "                                list grid presets and their sizes; with a\n"
               "                                directory, estimate each preset's wall from\n"
               "                                the per-point walls recorded there, so fleet\n"
               "                                sizing is one command\n"
               "  run    --preset NAME [--source SPEC | --shard I/N | --claim DIR [--ttl S]]\n"
               "         [--cache DIR] [--threads N] [--out FILE] [--csv FILE]\n"
               "         [--telemetry DIR] [--progress]\n"
               "                                run the grid, one static shard of it, or an\n"
               "                                elastic lease-claiming worker's share.\n"
               "                                --source static:I/N | lease:DIR[:TTL_S];\n"
               "                                --shard I/N is sugar for --source static:I/N,\n"
               "                                --claim DIR for --source lease:DIR (and uses\n"
               "                                DIR as the result cache).\n"
               "                                whole grid: writes the sweep artefact JSON;\n"
               "                                shard/lease: writes a shard file for merge.\n"
               "                                --telemetry drops a per-point sidecar into DIR\n"
               "                                (artefacts stay byte-identical)\n"
               "  run    --preset NAME --claim DIR (--hosts h1,h2,... | --k8s N) [--ttl S]\n"
               "         [--out FILE]\n"
               "                                emit the fleet recipe instead of running:\n"
               "                                --hosts writes an ssh fan-out script,\n"
               "                                --k8s N a Kubernetes Job manifest with\n"
               "                                parallelism N (stdout when --out is absent)\n"
               "  merge  --preset NAME [--cache DIR | --claim DIR] --out FILE SHARD.json...\n"
               "                                reassemble shard files into the artefact,\n"
               "                                byte-identical to a single-process run; with\n"
               "                                a cache, points no shard file covers (worker\n"
               "                                died before publishing) are recovered from it\n"
               "  status --preset NAME [--cache DIR] [--leases [--claim DIR] [--ttl S]]\n"
               "         [--telemetry DIR --stages] [SHARD.json...]\n"
               "                                with --leases, show per-point claim state\n"
               "                                (done/live/stale/unclaimed) and requeue\n"
               "                                counts from the lease directory;\n"
               "                                show grid size, cache and shard coverage;\n"
               "                                with shard files, report straggler shards,\n"
               "                                cache-hit vs compute wall split, the\n"
               "                                slowest points and — for multi-rack\n"
               "                                points — the per-hop split (intra/cross-\n"
               "                                rack bytes, core utilisation); with\n"
               "                                --telemetry + --stages, the per-scenario\n"
               "                                stage-cost breakdown\n"
               "  trace  --scenario NAME [--policies STACK] [--ports N] [--load X]\n"
               "         [--seed N] [--racks N [--oversub X] [--locality X]] --out FILE\n"
               "                                run one scenario with event tracing and\n"
               "                                stage profiling on; write a Chrome\n"
               "                                trace-event JSON (load in ui.perfetto.dev).\n"
               "                                multi-rack runs add one counter track per\n"
               "                                tier (per-ToR VOQ depth, core queue depth)\n"
               "  gc     --cache DIR --keep-days N\n"
               "                                evict cache entries older than N days\n");
  return 2;
}

struct Options {
  std::string command;
  std::string preset;
  std::string cache_dir;
  std::string out_path;
  std::string csv_path;
  std::string telemetry_dir;
  std::string scenario;  // trace
  std::string policies;  // trace; empty = the scenario's default stack
  std::string source_spec;  // --source static:I/N | lease:DIR[:TTL]
  std::string claim_dir;    // --claim; sugar for --source lease:DIR
  std::string hosts;        // --hosts h1,h2,...; emit ssh fan-out script
  exp::ShardOptions shard{};
  bool shard_given{false};
  unsigned k8s_parallelism{0};  // --k8s N; emit a Job manifest
  double ttl_s{60.0};           // --ttl; lease TTL for --claim and --leases
  bool leases{false};           // status: lease-state report
  unsigned threads{0};
  std::uint32_t ports{8};    // trace
  double load{0.5};          // trace
  std::uint64_t seed{7};     // trace
  std::uint32_t racks{1};    // trace; >1 runs the scenario on a fat-tree
  double oversub{1.0};       // trace; fat-tree core oversubscription
  double locality{0.9};      // trace; fat-tree rack-locality fraction
  double keep_days{-1.0};  // gc; negative = not given
  bool progress{false};
  bool stages{false};  // status: per-stage telemetry breakdown
  std::vector<std::string> inputs;  // positional shard files
};

bool parse_shard(const std::string& val, exp::ShardOptions& shard) {
  const auto slash = val.find('/');
  if (slash == std::string::npos) return false;
  // Whole-token, in-range parses only (util::parse_number): "0x1/2",
  // "1/2x" and "1/-2" must be rejected, not silently truncated or wrapped
  // to the wrong shard.
  if (!util::parse_number(std::string_view{val}.substr(0, slash), shard.index)) return false;
  if (!util::parse_number(std::string_view{val}.substr(slash + 1), shard.count)) return false;
  return shard.count >= 1 && shard.index < shard.count;
}

bool parse(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.command = argv[1];
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto next = [&]() -> const char* {
      if (a + 1 >= argc) return nullptr;
      return argv[++a];
    };
    const auto eq = arg.find('=');
    // Accept both "--flag=value" and "--flag value".
    const std::string key = arg.substr(0, eq);
    std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const auto value = [&]() -> bool {
      if (eq != std::string::npos) return true;
      const char* v = next();
      if (v == nullptr) return false;
      val = v;
      return true;
    };
    try {
      if (key == "--preset") {
        if (!value()) return false;
        opt.preset = val;
      } else if (key == "--shard") {
        if (!value() || !parse_shard(val, opt.shard)) return false;
        opt.shard_given = true;
      } else if (key == "--source") {
        if (!value()) return false;
        opt.source_spec = val;
      } else if (key == "--claim") {
        if (!value()) return false;
        opt.claim_dir = val;
      } else if (key == "--ttl") {
        if (!value() || !util::parse_number(val, opt.ttl_s) || opt.ttl_s <= 0.0) return false;
      } else if (key == "--hosts") {
        if (!value()) return false;
        opt.hosts = val;
      } else if (key == "--k8s") {
        if (!value() || !util::parse_number(val, opt.k8s_parallelism) ||
            opt.k8s_parallelism < 1) {
          return false;
        }
      } else if (key == "--leases") {
        opt.leases = true;
      } else if (key == "--cache") {
        if (!value()) return false;
        opt.cache_dir = val;
      } else if (key == "--out") {
        if (!value()) return false;
        opt.out_path = val;
      } else if (key == "--csv") {
        if (!value()) return false;
        opt.csv_path = val;
      } else if (key == "--threads") {
        // Same whole-token, in-range rule as --shard: "--threads=2x" must
        // not silently run with 2 threads, nor an overflowing or negative
        // value with a wrapped thread count.
        if (!value() || !util::parse_number(val, opt.threads)) return false;
      } else if (key == "--keep-days") {
        if (!value() || !util::parse_number(val, opt.keep_days) || opt.keep_days < 0.0) {
          return false;
        }
      } else if (key == "--telemetry") {
        if (!value()) return false;
        opt.telemetry_dir = val;
      } else if (key == "--scenario") {
        if (!value()) return false;
        opt.scenario = val;
      } else if (key == "--policies") {
        if (!value()) return false;
        opt.policies = val;
      } else if (key == "--ports") {
        if (!value() || !util::parse_number(val, opt.ports) || opt.ports < 2) return false;
      } else if (key == "--load") {
        if (!value() || !util::parse_number(val, opt.load) || opt.load <= 0.0) return false;
      } else if (key == "--seed") {
        if (!value() || !util::parse_number(val, opt.seed)) return false;
      } else if (key == "--racks") {
        if (!value() || !util::parse_number(val, opt.racks) || opt.racks < 1) return false;
      } else if (key == "--oversub") {
        if (!value() || !util::parse_number(val, opt.oversub) || opt.oversub <= 0.0) return false;
      } else if (key == "--locality") {
        if (!value() || !util::parse_number(val, opt.locality) || opt.locality < 0.0 ||
            opt.locality > 1.0) {
          return false;
        }
      } else if (key == "--stages") {
        opt.stages = true;
      } else if (key == "--progress") {
        opt.progress = true;
      } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
        return false;
      } else {
        opt.inputs.push_back(arg);
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

void write_file(const std::string& path, const std::string& content) {
  try {
    util::write_file(path, content);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "sweepctl: %s\n", e.what());
    std::exit(1);
  }
}

std::string read_file(const std::string& path) {
  std::optional<std::string> data = util::read_file(path);
  if (!data) {
    std::fprintf(stderr, "sweepctl: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  return *std::move(data);
}

// ----------------------------------------------------------------- commands

int cmd_presets(const Options& opt) {
  // Fleet sizing: with a lease/cache directory, estimate each preset's wall
  // from the per-point walls its completion markers recorded.  Presets with
  // partial coverage extrapolate from the measured points' mean.
  const std::string walls_dir = !opt.claim_dir.empty() ? opt.claim_dir : opt.cache_dir;
  std::map<std::string, std::int64_t> walls;
  if (!walls_dir.empty()) walls = exp::scan_done_walls(walls_dir);

  for (const std::string& name : exp::known_presets()) {
    const std::vector<exp::ScenarioSpec> grid = exp::make_preset(name);
    std::printf("%-14s %4zu points", name.c_str(), grid.size());
    if (!walls_dir.empty()) {
      std::int64_t measured_us = 0;
      std::size_t measured = 0;
      for (const exp::ScenarioSpec& spec : grid) {
        const auto it = walls.find(exp::spec_hash_hex(spec));
        if (it == walls.end()) continue;
        measured_us += it->second;
        ++measured;
      }
      if (measured == 0) {
        std::printf("   est wall unknown (0/%zu points measured)", grid.size());
      } else {
        const double est_s = static_cast<double>(measured_us) / 1e6 /
                             static_cast<double>(measured) * static_cast<double>(grid.size());
        std::printf("   est wall %8.1f s (%zu/%zu points measured)", est_s, measured,
                    grid.size());
      }
    }
    std::printf("\n");
  }
  return 0;
}

// --------------------------------------------------------- fleet fan-out

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::string item =
        text.substr(begin, comma == std::string::npos ? std::string::npos : comma - begin);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

/// The ssh fan-out recipe for `run --hosts`: one elastic worker per host
/// against the shared lease directory, shard files rsynced back, merge with
/// cache backfill.  Emitted, not executed — the operator owns the fleet.
std::string fanout_script(const Options& opt, const std::vector<std::string>& hosts) {
  const std::string ttl = stats::format_double(opt.ttl_s);
  std::string hosts_quoted;
  for (const std::string& h : hosts) {
    if (!hosts_quoted.empty()) hosts_quoted += ' ';
    hosts_quoted += '\'' + h + '\'';
  }
  std::string s;
  s += "#!/usr/bin/env bash\n";
  s += "# Elastic sweep fan-out generated by:\n";
  s += "#   sweepctl run --preset " + opt.preset + " --hosts " + opt.hosts + " --claim " +
       opt.claim_dir + " --ttl " + ttl + "\n";
  s += "# Assumes sweepctl on PATH on every host.  CLAIM on a shared filesystem\n";
  s += "# lets workers steal from each other live; without one, each host runs\n";
  s += "# its own lease dir as a plain cache and the rsync below merges them.\n";
  s += "set -euo pipefail\n";
  s += "PRESET='" + opt.preset + "'\n";
  s += "CLAIM='" + opt.claim_dir + "'\n";
  s += "TTL='" + ttl + "'\n";
  s += "pids=()\n";
  s += "for host in " + hosts_quoted + "; do\n";
  s += "  ssh \"$host\" \"sweepctl run --preset '$PRESET' --claim '$CLAIM' --ttl '$TTL'";
  s += " --out '$CLAIM/$host.shard.json'\" &\n";
  s += "  pids+=(\"$!\")\n";
  s += "done\n";
  s += "for pid in \"${pids[@]}\"; do\n";
  s += "  wait \"$pid\" || true  # a dead worker's points get requeued by the others\n";
  s += "done\n";
  s += "for host in " + hosts_quoted + "; do\n";
  s += "  rsync -a \"$host:$CLAIM/\" \"$CLAIM/\"  # shard files + rsync-merged caches\n";
  s += "done\n";
  s += "sweepctl status --preset \"$PRESET\" --leases --claim \"$CLAIM\" --ttl \"$TTL\"\n";
  s += "sweepctl merge --preset \"$PRESET\" --claim \"$CLAIM\" --out \"sweep-$PRESET.json\" \\\n";
  s += "  \"$CLAIM\"/*.shard.json\n";
  s += "echo \"merged into sweep-$PRESET.json\"\n";
  return s;
}

/// The Kubernetes Job manifest for `run --k8s N`: N pods claiming from one
/// PVC-mounted lease directory; a pod that dies is exactly the crash case
/// the TTL requeue covers, so backoffLimit stays 0.
std::string k8s_manifest(const Options& opt) {
  const std::string n = std::to_string(opt.k8s_parallelism);
  std::string s;
  s += "# Elastic sweep fleet generated by:\n";
  s += "#   sweepctl run --preset " + opt.preset + " --k8s " + n + " --claim " + opt.claim_dir +
       "\n";
  s += "apiVersion: batch/v1\n";
  s += "kind: Job\n";
  s += "metadata:\n";
  s += "  name: sweep-" + opt.preset + "\n";
  s += "spec:\n";
  s += "  parallelism: " + n + "\n";
  s += "  completions: " + n + "\n";
  s += "  backoffLimit: 0\n";
  s += "  template:\n";
  s += "    spec:\n";
  s += "      restartPolicy: Never\n";
  s += "      containers:\n";
  s += "        - name: worker\n";
  s += "          image: xdrs/sweepctl:latest\n";
  s += "          command:\n";
  s += "            - sweepctl\n";
  s += "            - run\n";
  s += "            - --preset=" + opt.preset + "\n";
  s += "            - --claim=" + opt.claim_dir + "\n";
  s += "            - --ttl=" + stats::format_double(opt.ttl_s) + "\n";
  s += "            - --out=" + opt.claim_dir + "/$(POD_NAME).shard.json\n";
  s += "          env:\n";
  s += "            - name: POD_NAME\n";
  s += "              valueFrom:\n";
  s += "                fieldRef:\n";
  s += "                  fieldPath: metadata.name\n";
  s += "          volumeMounts:\n";
  s += "            - name: sweep-claim\n";
  s += "              mountPath: " + opt.claim_dir + "\n";
  s += "      volumes:\n";
  s += "        - name: sweep-claim\n";
  s += "          persistentVolumeClaim:\n";
  s += "            claimName: sweep-claim\n";
  return s;
}

/// Folds the --shard/--source/--claim sugar into one WorkSourceSpec;
/// ExecutionPlan::resolved_source() stays the single validation path for
/// field values, this only rejects contradictory flag combinations.
exp::WorkSourceSpec resolve_source_flags(const Options& opt) {
  const int given = (opt.shard_given ? 1 : 0) + (opt.source_spec.empty() ? 0 : 1) +
                    (opt.claim_dir.empty() ? 0 : 1);
  if (given > 1) {
    throw std::invalid_argument{"--shard, --source and --claim are mutually exclusive"};
  }
  if (opt.shard_given) return exp::WorkSourceSpec::static_shard(opt.shard);
  if (!opt.source_spec.empty()) return exp::WorkSourceSpec::parse(opt.source_spec);
  if (!opt.claim_dir.empty()) return exp::WorkSourceSpec::lease(opt.claim_dir, opt.ttl_s);
  return {};
}

int cmd_run(const Options& opt) {
  // Fleet-recipe emits: describe the elastic fleet instead of running it.
  if (!opt.hosts.empty() || opt.k8s_parallelism != 0) {
    if (!opt.hosts.empty() && opt.k8s_parallelism != 0) {
      return usage("run: --hosts and --k8s are mutually exclusive");
    }
    if (opt.claim_dir.empty()) {
      return usage("run: --hosts/--k8s need --claim DIR (the fleet's shared lease directory)");
    }
    const std::vector<std::string> hosts = split_csv(opt.hosts);
    if (opt.k8s_parallelism == 0 && hosts.empty()) return usage("run: --hosts is empty");
    const std::string doc =
        opt.k8s_parallelism != 0 ? k8s_manifest(opt) : fanout_script(opt, hosts);
    if (opt.out_path.empty()) {
      std::fputs(doc.c_str(), stdout);
    } else {
      write_file(opt.out_path, doc);
      std::printf("wrote %s for preset %s to %s\n",
                  opt.k8s_parallelism != 0 ? "k8s job manifest" : "ssh fan-out script",
                  opt.preset.c_str(), opt.out_path.c_str());
    }
    return 0;
  }

  if (opt.out_path.empty()) return usage("run: --out is required");
  const exp::WorkSourceSpec source = resolve_source_flags(opt);
  const bool lease = source.kind == exp::WorkSourceSpec::Kind::kLease;
  // Partial results (a static slice or an elastic worker's winnings) emit
  // shard files for merge; only a whole-grid run writes the artefact.
  const bool shard_file = lease || source.shard.count > 1;
  if (shard_file && !opt.csv_path.empty()) {
    return usage("run: --csv applies to whole-grid runs only (merge emits the artefact)");
  }
  const std::vector<exp::ScenarioSpec> grid = exp::make_preset(opt.preset);

  // Elastic workers default their result cache to the claim directory:
  // that is what makes a killed worker's computed-but-unpublished points
  // recoverable at merge time.
  const std::string cache_dir = !opt.cache_dir.empty() ? opt.cache_dir
                               : lease                 ? source.lease_dir
                                                       : std::string{};
  std::optional<exp::ResultCache> cache;
  if (!cache_dir.empty()) cache.emplace(cache_dir);

  exp::ExecutionPlan plan;
  plan.threads = opt.threads;
  plan.source = source;
  plan.cache = cache ? &*cache : nullptr;
  plan.telemetry_dir = opt.telemetry_dir;
  if (opt.progress) {
    plan.progress = [](std::size_t done, std::size_t total, const exp::ScenarioSpec& s) {
      std::fprintf(stderr, "[%4zu/%zu] %s\n", done, total, s.key().c_str());
    };
  }

  const exp::SweepResult result = exp::ExperimentRunner{plan}.run(grid);

  write_file(opt.out_path, shard_file ? result.to_shard_json() : result.to_json());
  if (!opt.csv_path.empty()) write_file(opt.csv_path, result.to_csv());

  if (lease) {
    const exp::WorkSourceStats& ws = result.source_stats;
    std::printf("preset %s: %zu points, worker kept %zu (claimed %llu, %llu already done, "
                "requeued %llu, lost %llu)\n",
                opt.preset.c_str(), grid.size(), result.points.size(),
                static_cast<unsigned long long>(ws.claimed),
                static_cast<unsigned long long>(ws.already_done),
                static_cast<unsigned long long>(ws.requeued),
                static_cast<unsigned long long>(ws.lost));
  } else {
    std::printf("preset %s: %zu points, shard %zu/%zu ran %zu\n", opt.preset.c_str(), grid.size(),
                source.shard.index, source.shard.count, result.points.size());
  }
  if (cache) {
    const exp::CacheStats cs = cache->stats();
    std::printf("cache %s: %llu hits, %llu misses, %llu stale, %llu stored (%llu simulated)\n",
                cache->dir().c_str(), static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.stale),
                static_cast<unsigned long long>(cs.stores),
                static_cast<unsigned long long>(cs.misses + cs.stale));
    if (cs.store_failures != 0) {
      std::fprintf(stderr, "sweepctl: warning: %llu cache writes failed (results kept in-run)\n",
                   static_cast<unsigned long long>(cs.store_failures));
    }
  }
  return 0;
}

int cmd_merge(const Options& opt) {
  if (opt.out_path.empty()) return usage("merge: --out is required");
  if (opt.inputs.empty()) return usage("merge: at least one shard file is required");
  const std::vector<exp::ScenarioSpec> grid = exp::make_preset(opt.preset);

  std::vector<std::string> payloads;
  payloads.reserve(opt.inputs.size());
  for (const std::string& path : opt.inputs) payloads.push_back(read_file(path));

  // With a cache (--cache, or the elastic sweep's --claim directory),
  // points no shard file covers — a worker died after computing them but
  // before publishing its shard file — are recovered from cache entries.
  const std::string cache_dir = !opt.cache_dir.empty() ? opt.cache_dir : opt.claim_dir;
  std::optional<exp::ResultCache> cache;
  if (!cache_dir.empty()) cache.emplace(cache_dir);

  const exp::SweepResult result =
      exp::SweepResult::merge_shards(grid, payloads, cache ? &*cache : nullptr);
  write_file(opt.out_path, result.to_json());
  if (!opt.csv_path.empty()) write_file(opt.csv_path, result.to_csv());
  std::printf("merged %zu shard files into %s (%zu points)\n", opt.inputs.size(),
              opt.out_path.c_str(), result.points.size());
  if (cache) {
    const exp::CacheStats cs = cache->stats();
    if (cs.hits != 0) {
      std::printf("recovered %llu uncovered points from cache %s\n",
                  static_cast<unsigned long long>(cs.hits), cache->dir().c_str());
    }
  }
  return 0;
}

/// Per-scenario stage-cost breakdown, aggregated over every telemetry
/// sidecar in `dir` (the `--telemetry` output of `sweepctl run`): for each
/// profiled stage, call count, total wall and share of the scenario's
/// profiled time.  Unreadable files are reported and skipped — status is a
/// diagnostic, it must not die on one truncated sidecar.
void print_stage_breakdown(const std::string& dir) {
  struct StageCost {
    std::uint64_t count{0};
    std::int64_t total_ns{0};
  };
  std::map<std::string, std::map<std::string, StageCost>> by_scenario;
  std::size_t sidecars = 0;

  std::error_code ec;
  std::filesystem::directory_iterator it{dir, ec};
  if (ec) {
    std::printf("telemetry %s: unreadable (%s)\n", dir.c_str(), ec.message().c_str());
    return;
  }
  constexpr std::string_view kSuffix = ".telemetry.json";
  for (const auto& de : it) {
    const std::string path = de.path().string();
    if (path.size() < kSuffix.size() ||
        std::string_view{path}.substr(path.size() - kSuffix.size()) != kSuffix) {
      continue;
    }
    try {
      const stats::JsonValue doc = stats::parse_json(read_file(path));
      const std::string& scenario = doc.at("scenario").as_str();
      for (const stats::JsonValue& stage : doc.at("stages").items()) {
        StageCost& cost = by_scenario[scenario][stage.at("name").as_str()];
        cost.count += stage.at("count").as_u64();
        cost.total_ns += stage.at("total_ns").as_i64();
      }
      ++sidecars;
    } catch (const std::invalid_argument& e) {
      std::printf("telemetry %s: skipped (%s)\n", path.c_str(), e.what());
    }
  }
  std::printf("telemetry %s: %zu sidecars\n", dir.c_str(), sidecars);

  for (const auto& [scenario, stages] : by_scenario) {
    std::int64_t scenario_total = 0;
    for (const auto& [name, cost] : stages) scenario_total += cost.total_ns;
    std::printf("stage costs %s (profiled wall %.2f ms):\n", scenario.c_str(),
                static_cast<double>(scenario_total) / 1e6);
    // Costliest stage first: the line a reader acts on is the top one.
    std::vector<std::pair<std::string, StageCost>> ordered{stages.begin(), stages.end()};
    std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
      return a.second.total_ns > b.second.total_ns;
    });
    for (const auto& [name, cost] : ordered) {
      const double mean_us = cost.count == 0
                                 ? 0.0
                                 : static_cast<double>(cost.total_ns) /
                                       static_cast<double>(cost.count) / 1e3;
      const double share = scenario_total == 0 ? 0.0
                                               : 100.0 * static_cast<double>(cost.total_ns) /
                                                     static_cast<double>(scenario_total);
      std::printf("  %-20s %8llu calls  total %9.2f ms  mean %8.2f us  (%5.1f%%)\n",
                  name.c_str(), static_cast<unsigned long long>(cost.count),
                  static_cast<double>(cost.total_ns) / 1e6, mean_us, share);
    }
  }
}

/// The elastic-sweep view: per-point claim state from the lease directory.
/// Read-only — reporting must never perturb a live fleet's claims.
int print_lease_report(const Options& opt, const std::vector<exp::ScenarioSpec>& grid) {
  const std::string dir = !opt.claim_dir.empty() ? opt.claim_dir : opt.cache_dir;
  if (dir.empty()) {
    std::fprintf(stderr, "sweepctl: status --leases needs --claim DIR (or --cache DIR)\n");
    return 2;
  }
  std::vector<std::string> hashes;
  hashes.reserve(grid.size());
  for (const exp::ScenarioSpec& spec : grid) hashes.push_back(exp::spec_hash_hex(spec));
  const exp::LeaseScan scan = exp::scan_leases(dir, hashes, opt.ttl_s);
  std::printf("leases %s: %zu done, %zu live, %zu stale, %zu unclaimed, %zu requeued\n",
              dir.c_str(), scan.done, scan.live, scan.stale, scan.unclaimed, scan.requeued);
  for (const exp::LeaseScan::Point& p : scan.points) {
    // One line per point that tells an operator something: in-flight claims
    // (live or stale) and any point a steal has requeued.
    const char* state = nullptr;
    switch (p.state) {
      case exp::LeaseScan::State::kLive:
        state = "live";
        break;
      case exp::LeaseScan::State::kStale:
        state = "stale";
        break;
      case exp::LeaseScan::State::kDone:
        state = p.attempt > 1 ? "done" : nullptr;
        break;
      case exp::LeaseScan::State::kUnclaimed:
        state = p.attempt > 1 ? "unclaimed" : nullptr;
        break;
    }
    if (state == nullptr) continue;
    std::printf("  point %4zu  %-9s  attempt %llu%s%s\n", p.index, state,
                static_cast<unsigned long long>(p.attempt), p.owner.empty() ? "" : "  owner ",
                p.owner.c_str());
  }
  return 0;
}

int cmd_status(const Options& opt) {
  const std::vector<exp::ScenarioSpec> grid = exp::make_preset(opt.preset);
  std::printf("preset %s: %zu points\n", opt.preset.c_str(), grid.size());

  if (opt.leases) {
    const int rc = print_lease_report(opt, grid);
    if (rc != 0) return rc;
  }

  if (!opt.cache_dir.empty()) {
    exp::ResultCache cache{opt.cache_dir};
    for (const exp::ScenarioSpec& spec : grid) (void)cache.lookup(spec);
    const exp::CacheStats cs = cache.stats();
    std::printf("cache %s: %llu cached, %llu missing, %llu stale\n", cache.dir().c_str(),
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.stale));
  }

  if (opt.stages) {
    if (opt.telemetry_dir.empty()) {
      std::fprintf(stderr, "sweepctl: status --stages needs --telemetry DIR\n");
      return 2;
    }
    print_stage_breakdown(opt.telemetry_dir);
  }

  if (!opt.inputs.empty()) {
    std::vector<bool> covered(grid.size(), false);
    // Straggler accounting from the recorded per-point wall times: which
    // shard carried the most wall-clock, and which points dominate it.
    struct ShardWall {
      std::string path;
      std::int64_t total_us{0};
    };
    std::vector<ShardWall> shard_walls;
    std::vector<std::pair<std::int64_t, std::string>> point_walls;  // (us, key)
    // Cache-hit vs fresh-compute wall split, over all shard files: cached
    // points' wall is the cache round-trip, not simulation, so straggler
    // analysis should not blame a warm shard for being "fast".
    std::size_t cached_points = 0;
    std::int64_t cached_wall_us = 0;
    std::int64_t compute_wall_us = 0;
    // Per-scenario deadline accounting, summed over each point counted once
    // (the scenario is the first '/'-segment of the point key).
    struct DeadlineTally {
      std::uint64_t met{0};
      std::uint64_t missed{0};
    };
    std::map<std::string, DeadlineTally> deadline_tallies;
    // Per-hop split over multi-rack points (schema-4 reports): delivered
    // bytes by hop class and the mean core-link utilisation.
    struct HopTally {
      std::int64_t intra_bytes{0};
      std::int64_t cross_bytes{0};
      double util_sum{0.0};
      std::size_t points{0};
    };
    std::map<std::string, HopTally> hop_tallies;
    for (const std::string& path : opt.inputs) {
      std::size_t points = 0;
      std::size_t matching = 0;
      std::size_t mismatched = 0;
      std::int64_t wall_us = 0;
      // Staged per file and committed only after the whole file parses, and
      // only for points merge would accept — a truncated or stale shard
      // must not smuggle bogus keys into the straggler report.
      std::vector<std::pair<std::int64_t, std::string>> file_walls;
      try {
        const stats::JsonValue doc = stats::parse_json(read_file(path));
        for (const stats::JsonValue& entry : doc.at("points").items()) {
          ++points;
          const std::uint64_t index = entry.at("index").as_u64();
          // Count a point as covered only if merge would accept it: the
          // stored spec hash must match this grid's spec at that index,
          // otherwise status would claim coverage merge then rejects
          // (stale shard files from an edited preset).
          if (index >= grid.size() ||
              entry.at("spec_hash").as_str() != exp::spec_hash_hex(grid[index])) {
            ++mismatched;
            continue;
          }
          bool from_cache = false;
          if (const stats::JsonValue* cached = entry.find("cached")) {
            from_cache = cached->as_bool();
          }
          if (const stats::JsonValue* wall = entry.find("wall_us")) {
            wall_us += wall->as_i64();
            if (from_cache) {
              ++cached_points;
              cached_wall_us += wall->as_i64();
            } else {
              compute_wall_us += wall->as_i64();
              // Only fresh compute competes for "slowest point" — a cache
              // round-trip's microseconds say nothing about the simulation.
              file_walls.emplace_back(wall->as_i64(), entry.at("key").as_str());
            }
          }
          if (!covered[index]) {
            covered[index] = true;
            ++matching;
            // Deadline metrics, when this shard's schema carries them
            // (tolerant find: older shard files simply print no SLO line).
            if (const stats::JsonValue* report = entry.find("report")) {
              const stats::JsonValue* met = report->find("deadline_flows_met");
              const stats::JsonValue* missed = report->find("deadline_flows_missed");
              if (met != nullptr && missed != nullptr) {
                DeadlineTally& t = deadline_tallies[grid[index].scenario];
                t.met += met->as_u64();
                t.missed += missed->as_u64();
              }
              // Per-hop metrics, when present (tolerant find: pre-topology
              // shard files simply print no per-hop line) and meaningful
              // (multi-rack points only — a single switch is all intra).
              if (grid[index].topology.multi_rack()) {
                const stats::JsonValue* intra = report->find("intra_rack_bytes");
                const stats::JsonValue* cross = report->find("cross_rack_bytes");
                const stats::JsonValue* util = report->find("core_utilization");
                if (intra != nullptr && cross != nullptr && util != nullptr) {
                  HopTally& h = hop_tallies[grid[index].scenario];
                  h.intra_bytes += intra->as_i64();
                  h.cross_bytes += cross->as_i64();
                  h.util_sum += util->as_f64();
                  ++h.points;
                }
              }
            }
          }
        }
        point_walls.insert(point_walls.end(), file_walls.begin(), file_walls.end());
        if (mismatched != 0) {
          std::printf("shard %s: %zu points (%zu new, %zu stale — merge would reject), "
                      "wall %.1f ms\n",
                      path.c_str(), points, matching, mismatched,
                      static_cast<double>(wall_us) / 1e3);
        } else {
          std::printf("shard %s: %zu points (%zu new), wall %.1f ms\n", path.c_str(), points,
                      matching, static_cast<double>(wall_us) / 1e3);
        }
        shard_walls.push_back({path, wall_us});
      } catch (const std::invalid_argument& e) {
        std::printf("shard %s: unreadable (%s)\n", path.c_str(), e.what());
      }
    }
    std::size_t missing = 0;
    for (const bool c : covered) missing += c ? 0 : 1;
    std::printf("coverage: %zu/%zu points, %zu missing\n", grid.size() - missing, grid.size(),
                missing);
    if (cached_points != 0) {
      std::printf("cache hits: %zu points served from cache (%.1f ms round-trips; "
                  "compute wall %.1f ms)\n",
                  cached_points, static_cast<double>(cached_wall_us) / 1e3,
                  static_cast<double>(compute_wall_us) / 1e3);
    }

    // Per-hop summary for the topology grids: how delivered bytes split
    // between rack-local and core-crossing hops, and how loaded the core
    // links ran (mean over the scenario's multi-rack points).
    for (const auto& [scenario, h] : hop_tallies) {
      const std::int64_t total = h.intra_bytes + h.cross_bytes;
      const double cross_share =
          total == 0 ? 0.0
                     : 100.0 * static_cast<double>(h.cross_bytes) / static_cast<double>(total);
      std::printf("per-hop %s: intra-rack %.1f MB, cross-rack %.1f MB (%.1f%% crossed), "
                  "core utilization %.3f (%zu points)\n",
                  scenario.c_str(), static_cast<double>(h.intra_bytes) / 1e6,
                  static_cast<double>(h.cross_bytes) / 1e6, cross_share,
                  h.util_sum / static_cast<double>(h.points), h.points);
    }

    // SLO summary: deadline-miss ratio per scenario, for shards whose
    // reports track deadlines and actually saw deadline-bearing flows.
    for (const auto& [scenario, tally] : deadline_tallies) {
      const std::uint64_t total = tally.met + tally.missed;
      if (total == 0) continue;
      std::printf("deadline %s: miss ratio %.4f (%llu of %llu flows missed)\n", scenario.c_str(),
                  static_cast<double>(tally.missed) / static_cast<double>(total),
                  static_cast<unsigned long long>(tally.missed),
                  static_cast<unsigned long long>(total));
    }

    // The straggler report the merge step wants before it blocks on a slow
    // host: the wall-time spread across shards and the slowest points.
    if (shard_walls.size() > 1) {
      const auto [min_it, max_it] =
          std::minmax_element(shard_walls.begin(), shard_walls.end(),
                              [](const ShardWall& a, const ShardWall& b) {
                                return a.total_us < b.total_us;
                              });
      std::printf("stragglers: slowest shard %s (%.1f ms) vs fastest %s (%.1f ms)",
                  max_it->path.c_str(), static_cast<double>(max_it->total_us) / 1e3,
                  min_it->path.c_str(), static_cast<double>(min_it->total_us) / 1e3);
      if (min_it->total_us > 0) {
        std::printf(", %.2fx imbalance",
                    static_cast<double>(max_it->total_us) /
                        static_cast<double>(min_it->total_us));
      }
      std::printf("\n");
    }
    if (!point_walls.empty()) {
      std::sort(point_walls.begin(), point_walls.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      const std::size_t top = std::min<std::size_t>(point_walls.size(), 5);
      std::printf("slowest points:\n");
      for (std::size_t i = 0; i < top; ++i) {
        std::printf("  %10.1f ms  %s\n", static_cast<double>(point_walls[i].first) / 1e3,
                    point_walls[i].second.c_str());
      }
    }
  }
  return 0;
}

int cmd_trace(const Options& opt) {
  if (opt.scenario.empty()) return usage("trace: --scenario is required");
  if (opt.out_path.empty()) return usage("trace: --out is required");

  exp::ScenarioSpec spec = exp::make_scenario(opt.scenario, opt.ports, opt.load, opt.seed);
  if (!opt.policies.empty()) spec.with_policies(core::PolicyStack::parse(opt.policies));
  if (opt.racks > 1) {
    spec.with_racks(opt.racks).with_oversubscription(opt.oversub).with_locality(opt.locality);
  }

  obs::TelemetryConfig tc;
  tc.span_log_capacity = 1 << 16;  // keep individual spans for the host track

  // The sim-event track comes from ToR 0 (every rack runs the same policy
  // stack, so one switch is representative); a multi-rack tree adds its
  // per-tier gauge series as one counter track per ToR plus the core.
  std::unique_ptr<topo::FatTree> ft = exp::materialize(spec);
  sim::TraceRecorder& trace = ft->rack(0).trace();
  // Bounded tracing: drop-oldest keeps the trace's tail contiguous, so
  // start/done pairs still fold into duration slices after overflow.
  trace.set_capacity(1 << 20, sim::TraceOverflow::kDropOldest);
  trace.enable();
  ft->enable_telemetry(tc);
  (void)ft->run(spec.duration, spec.warmup);

  const obs::Registry& reg = ft->telemetry()->registry();
  write_file(opt.out_path, obs::chrome_trace_json(trace, reg, ft->tier_series()));
  std::printf("trace %s: %zu events kept (%llu dropped), %zu spans kept (%llu dropped), "
              "%zu tier tracks -> %s\n",
              spec.key().c_str(), trace.events().size(),
              static_cast<unsigned long long>(trace.dropped()), reg.spans().size(),
              static_cast<unsigned long long>(reg.spans_dropped()), ft->tier_series().size(),
              opt.out_path.c_str());
  std::printf("load %s in ui.perfetto.dev or chrome://tracing\n", opt.out_path.c_str());
  return 0;
}

int cmd_gc(const Options& opt) {
  if (opt.cache_dir.empty()) return usage("gc: --cache is required");
  if (opt.keep_days < 0.0) return usage("gc: --keep-days is required");
  exp::ResultCache cache{opt.cache_dir};
  const exp::GcStats gcs = cache.gc(opt.keep_days);
  std::printf("cache %s: removed %llu entries older than %g days, kept %llu\n",
              cache.dir().c_str(), static_cast<unsigned long long>(gcs.removed), opt.keep_days,
              static_cast<unsigned long long>(gcs.kept));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage();
  try {
    if (opt.command == "presets") return cmd_presets(opt);
    if (opt.command == "gc") return cmd_gc(opt);
    if (opt.command == "trace") return cmd_trace(opt);
    if (opt.preset.empty()) return usage("--preset is required");
    if (opt.command == "run") return cmd_run(opt);
    if (opt.command == "merge") return cmd_merge(opt);
    if (opt.command == "status") return cmd_status(opt);
    return usage(("unknown command '" + opt.command + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweepctl: %s\n", e.what());
    return 1;
  }
}
