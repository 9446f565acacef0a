// E11 — the parallel experiment engine, exercised end to end on a named grid
// preset (exp/presets.hpp), swept by ExperimentRunner across all cores:
//
//   small         64-point ports x load x matcher grid  -> BENCH_sweep.json
//   full          paper-scale 64-port x 10G grid        -> BENCH_sweep_full.json
//   policy-cross  full PolicyRegistry known_specs cross-product
//
// The emitted JSON/CSV is bit-identical for any --threads value (results
// collect in grid order; every point's simulator is independent and
// seeded), so `--json=BENCH_sweep.json` records a perf/behaviour baseline
// future PRs can diff exactly.  sweepctl builds the same grids from the
// same preset names, so a sharded multi-process run merges to the same
// bytes:
//
//   $ ./bench_sweep --threads=1 --json=a.json
//   $ ./bench_sweep --threads=8 --json=b.json
//   $ cmp a.json b.json        # identical
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "exp/presets.hpp"
#include "exp/runner.hpp"
#include "util/file_io.hpp"
#include "util/parse.hpp"

namespace {

using namespace xdrs;

struct Options {
  unsigned threads{0};   // 0 = all hardware threads
  std::string preset{"small"};
  std::string json_path;
  std::string csv_path;
  bool progress{false};
};

bool parse(int argc, char** argv, Options& opt) try {
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--threads") {
      // Whole-token, in-range parse: "--threads=2x" is an error, not 2
      // threads, and overflowing values are errors, not truncated counts.
      if (!util::parse_number(val, opt.threads)) {
        std::fprintf(stderr, "bench_sweep: bad --threads value '%s'\n", val.c_str());
        return false;
      }
    } else if (key == "--preset") {
      opt.preset = val;
    } else if (key == "--full") {  // shorthand for the paper-scale grid
      opt.preset = "full";
    } else if (key == "--json") {
      opt.json_path = val;
    } else if (key == "--csv") {
      opt.csv_path = val;
    } else if (key == "--progress") {
      opt.progress = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_sweep [--threads=N] "
                   "[--preset=small|full|policy-cross|composite|deadline|trace|empirical|ft2|p128] "
                   "[--full] "
                   "[--json=PATH] [--csv=PATH] [--progress]\n");
      return false;
    }
  }
  return true;
} catch (const std::exception&) {
  std::fprintf(stderr, "bench_sweep: bad numeric flag value\n");
  return false;
}

void write_file(const std::string& path, const std::string& content) {
  try {
    util::write_file(path, content);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "bench_sweep: %s\n", e.what());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return 2;

  std::vector<exp::ScenarioSpec> grid;
  try {
    grid = exp::make_preset(opt.preset);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_sweep: %s\n", e.what());
    return 2;
  }

  exp::ExecutionPlan so;
  so.threads = opt.threads;
  if (opt.progress) {
    so.progress = [](std::size_t done, std::size_t total, const exp::ScenarioSpec& s) {
      std::fprintf(stderr, "[%4zu/%zu] %s\n", done, total, s.key().c_str());
    };
  }

  const exp::SweepResult result = exp::ExperimentRunner{so}.run(grid);

  std::printf("\n## parallel sweep engine — %zu-point '%s' grid\n\n", grid.size(),
              opt.preset.c_str());
  auto t = result.table(
      {"label", "delivery_ratio", "delivered_bytes", "latency_p99_ps", "voq_drops"});
  std::printf("%s\n", t.markdown().c_str());

  const core::RunReport total = result.merged();
  std::printf("grid totals: %s\n", total.summary().c_str());

  if (!opt.json_path.empty()) write_file(opt.json_path, result.to_json());
  if (!opt.csv_path.empty()) write_file(opt.csv_path, result.to_csv());

  std::printf(
      "Every row is one independent deterministic simulation; the grid saturates all cores and\n"
      "the collected artefact is bit-identical for any --threads value. The same preset names\n"
      "drive sweepctl, so sharded multi-process runs merge to these exact bytes.\n");
  return 0;
}
