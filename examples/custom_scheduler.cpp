// Custom scheduler example — the paper's core promise: "users implement
// novel design in the scheduling logic module" (§3).
//
// We plug a new matching algorithm into the framework without touching any
// library source: an "oldest-cell-first" arbiter that favours the
// input/output pair whose head packet has waited longest is approximated
// here by a longest-queue-first pass with ageing weights.  One
// PolicyRegistry registration makes it constructible from the spec string
// "aged-greedy" everywhere — set_policies, ScenarioSpec sweeps, the
// explorer CLI — after which it is compared against stock iSLIP on the
// same workload.
#include <cstdio>
#include <memory>

#include "core/framework.hpp"
#include "schedulers/matcher.hpp"
#include "schedulers/policy_registry.hpp"
#include "stats/table.hpp"
#include "topo/fat_tree.hpp"
#include "topo/testbed.hpp"

namespace {

using namespace xdrs;
using namespace xdrs::sim::literals;

/// A user-provided scheduling algorithm: greedy on demand x age.
///
/// The framework only requires MatchingAlgorithm's four virtuals.  State
/// kept across invocations (here: an age counter per pair) is how iSLIP's
/// pointers work too — the interface is deliberately stateful.  The edge
/// workspace is a member for the same reason the library matchers keep
/// theirs: compute_into must not allocate in steady state.
class AgedGreedyMatcher final : public schedulers::MatchingAlgorithm {
 public:
  explicit AgedGreedyMatcher(std::uint32_t ports)
      : ports_{ports}, age_(static_cast<std::size_t>(ports) * ports, 0) {}

  void compute_into(const demand::DemandMatrix& dem, schedulers::Matching& out) override {
    edges_.clear();
    dem.for_each_nonzero([&](net::PortId i, net::PortId j, std::int64_t w) {
      const double age = static_cast<double>(age_[idx(i, j)]);
      edges_.push_back({static_cast<double>(w) * (1.0 + 0.25 * age), i, j});
    });
    std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
      if (a.score != b.score) return a.score > b.score;
      if (a.i != b.i) return a.i < b.i;
      return a.j < b.j;
    });

    out.reset(ports_, ports_);
    last_iterations_ = 0;
    for (const Edge& e : edges_) {
      if (!out.input_matched(e.i) && !out.output_matched(e.j)) {
        out.match(e.i, e.j);
        ++last_iterations_;
      }
    }
    // Age every requesting-but-unserved pair; reset served ones.
    dem.for_each_nonzero([&](net::PortId i, net::PortId j, std::int64_t) {
      auto& a = age_[idx(i, j)];
      const auto granted = out.output_of(i);
      a = (granted.has_value() && *granted == j) ? 0 : a + 1;
    });
  }

  [[nodiscard]] std::string name() const override { return "aged-greedy"; }
  [[nodiscard]] std::uint32_t last_iterations() const noexcept override {
    return last_iterations_;
  }
  [[nodiscard]] bool hardware_parallel() const noexcept override { return false; }

 private:
  struct Edge {
    double score;
    net::PortId i, j;
  };

  [[nodiscard]] std::size_t idx(net::PortId i, net::PortId j) const {
    return static_cast<std::size_t>(i) * ports_ + j;
  }

  std::uint32_t ports_;
  std::vector<std::uint64_t> age_;
  std::vector<Edge> edges_;
  std::uint32_t last_iterations_{0};
};

/// Self-registration: after this, "aged-greedy" is a spec string like any
/// built-in — this is the whole integration surface.
const bool kRegistered = [] {
  schedulers::PolicyRegistry::instance().register_matcher(
      "aged-greedy",
      [](const schedulers::PolicySpec&, const schedulers::PolicyContext& ctx) {
        return std::make_unique<AgedGreedyMatcher>(ctx.ports);
      });
  return true;
}();

core::RunReport evaluate(const char* matcher_spec) {
  core::FrameworkConfig c;
  c.ports = 8;
  c.discipline = core::SchedulingDiscipline::kSlotted;
  c.slot_time = sim::Time::nanoseconds(12'500);
  c.ocs_reconfig = 50_ns;
  topo::FatTree ft{{}, c};
  core::HybridSwitchFramework& fw = ft.rack(0);
  fw.set_policies(core::PolicyStack{}.with_matcher(matcher_spec));

  // A skewed workload where starvation matters: Zipf destinations.
  topo::WorkloadSpec spec;
  spec.kind = topo::WorkloadSpec::Kind::kPoissonZipf;
  spec.load = 0.6;
  spec.skew = 1.1;
  spec.seed = 7;
  topo::attach_workload(fw, spec);
  return ft.run(20_ms, 4_ms);
}

}  // namespace

int main() {
  std::printf("Plugging a custom scheduling algorithm into the framework\n");
  std::printf("(the paper's 'users implement novel design in the scheduling logic')\n\n");
  if (!kRegistered) return 1;  // unreachable; anchors the registration

  stats::Table t{{"algorithm", "delivery", "p50 latency", "p99 latency", "max latency"}};
  for (const char* spec : {"aged-greedy", "islip:2"}) {
    const core::RunReport r = evaluate(spec);
    t.row()
        .cell(spec == std::string{"aged-greedy"} ? "aged-greedy (custom)" : "islip-i2 (stock)")
        .cell(r.delivery_ratio(), 3)
        .cell(r.latency.quantile_time(0.50).to_string())
        .cell(r.latency.quantile_time(0.99).to_string())
        .cell(sim::Time::picoseconds(r.latency.max()).to_string());
  }
  std::printf("%s\n", t.markdown().c_str());
  std::printf("The ageing term bounds worst-case waiting on skewed traffic (compare max\n"
              "latency) — the kind of design-space exploration the framework enables.\n");
  return 0;
}
