// Datacenter hybrid ToR scenario — the workload the paper's introduction
// motivates: a rack whose servers mix long bulk transfers (backup /
// shuffle), short RPC-style flows, and interactive VOIP-like streams, on a
// hybrid switch whose OCS serves the bursts and whose EPS serves the rest.
//
// Compares three circuit schedulers on identical traffic:
//   * c-Through  (single max-weight circuit day per epoch)
//   * Helios TMS (k BvN permutation days per epoch)
//   * Solstice   (threshold-halving with reconfiguration amortisation)
#include <cstdio>
#include <memory>

#include "core/framework.hpp"
#include "stats/table.hpp"
#include "topo/fat_tree.hpp"
#include "topo/testbed.hpp"

namespace {

using namespace xdrs;
using namespace xdrs::sim::literals;

core::RunReport run_with(const char* scheduler) {
  core::FrameworkConfig c;
  c.ports = 16;
  c.link_rate = sim::DataRate::gbps(10);
  c.eps_rate = sim::DataRate::mbps(2500);  // 4:1 electrical oversubscription
  c.eps_buffer_bytes = 4 << 20;
  c.ocs_reconfig = 2_us;
  c.epoch = 200_us;
  c.min_circuit_hold = 20_us;
  c.discipline = core::SchedulingDiscipline::kHybridEpoch;

  topo::FatTree ft{{}, c};  // a single switch is a 1-rack tree
  core::HybridSwitchFramework& fw = ft.rack(0);
  // `scheduler` is a circuit-scheduler spec: "cthrough", "tms:4" or
  // "solstice:10" (amortisation 10x the dark-time cost).
  fw.set_policies(core::PolicyStack{}.with_circuit(scheduler));

  // Bulk transfers: line-rate ON/OFF bursts on every server.
  topo::WorkloadSpec bulk;
  bulk.kind = topo::WorkloadSpec::Kind::kOnOffBursts;
  bulk.mean_on = 100_us;
  bulk.mean_off = 300_us;
  bulk.seed = 101;
  topo::attach_workload(fw, bulk);

  // RPC mice: a small Poisson floor everywhere.
  topo::WorkloadSpec mice;
  mice.kind = topo::WorkloadSpec::Kind::kPoissonUniform;
  mice.load = 0.05;
  mice.seed = 103;
  topo::attach_workload(fw, mice);

  // Interactive streams between 6 server pairs.
  topo::attach_voip(fw, 6, 20_us, 200);

  return ft.run(25_ms, 5_ms);
}

}  // namespace

int main() {
  std::printf("Hybrid ToR under a mixed datacenter workload (16 servers, 10G optical,\n"
              "2.5G electrical): bulk bursts + RPC mice + VOIP streams.\n");

  stats::Table t{{"circuit scheduler", "delivery", "ocs share", "reconfigs", "duty",
                  "bulk+mice p99", "voip p99", "voip jitter"}};
  for (const char* sched : {"cthrough", "tms:4", "solstice:10"}) {
    const core::RunReport r = run_with(sched);
    const double total = static_cast<double>(r.ocs_bytes + r.eps_bytes);
    char jitter[32];
    std::snprintf(jitter, sizeof jitter, "%.2f us", r.jitter_us.mean());
    t.row()
        .cell(sched)
        .cell(r.delivery_ratio(), 3)
        .cell(total > 0 ? static_cast<double>(r.ocs_bytes) / total : 0.0, 3)
        .cell(r.reconfigurations)
        .cell(r.ocs_duty_cycle, 3)
        .cell(r.latency.quantile_time(0.99).to_string())
        .cell(r.latency_sensitive.quantile_time(0.99).to_string())
        .cell(jitter);
  }
  std::printf("\n%s\n", t.markdown().c_str());
  std::printf("All three baselines run on the *same* framework with only the scheduling-\n"
              "logic plugin swapped — the rapid-prototyping loop the paper argues for.\n");
  return 0;
}
