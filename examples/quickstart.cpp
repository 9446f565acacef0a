// Quickstart: assemble a hybrid electrical/optical switch, attach traffic,
// run it, and read the report.
//
//   $ ./examples/quickstart
//
// This is the smallest complete use of the public API:
//   1. describe the switch (FrameworkConfig),
//   2. pick the scheduling policies (or take the defaults),
//   3. attach workloads,
//   4. run and inspect the RunReport.
#include <cstdio>

#include "core/framework.hpp"
#include "topo/fat_tree.hpp"
#include "topo/testbed.hpp"

int main() {
  using namespace xdrs;
  using namespace xdrs::sim::literals;

  // 1. An 8-port hybrid ToR: 10 Gbps per port, an optical circuit switch
  //    that needs 1 us to retune, and an electrical packet switch for the
  //    residual traffic.  Buffering lives in the switch (fast scheduling).
  core::FrameworkConfig config;
  config.ports = 8;
  config.link_rate = sim::DataRate::gbps(10);
  config.ocs_reconfig = 1_us;
  config.epoch = 100_us;  // replan circuits every 100 us
  config.discipline = core::SchedulingDiscipline::kHybridEpoch;
  config.placement = core::BufferPlacement::kToRSwitch;

  // A single switch is a 1-rack fat-tree: the tree owns the simulator and
  // drives the run, rack(0) is the switch to configure.
  topo::FatTree ft{{}, config};
  core::HybridSwitchFramework& framework = ft.rack(0);

  // 2. Default policy stack: instantaneous (VOQ-register) demand
  //    estimation, hardware-pipeline timing, Solstice circuit planning.
  framework.use_default_policies();

  // 3. Traffic: every port offers 40% load of datacenter-mix packets to
  //    uniformly random destinations.
  topo::WorkloadSpec workload;
  workload.kind = topo::WorkloadSpec::Kind::kPoissonUniform;
  workload.load = 0.4;
  topo::attach_workload(framework, workload);

  // 4. Run 5 ms of simulated time after 1 ms of warm-up.
  const core::RunReport report = ft.run(5_ms, 1_ms);

  std::printf("offered    : %llu packets\n",
              static_cast<unsigned long long>(report.offered_packets));
  std::printf("delivered  : %llu packets (%.1f%% of bytes)\n",
              static_cast<unsigned long long>(report.delivered_packets),
              report.delivery_ratio() * 100.0);
  std::printf("via OCS    : %s\n",
              sim::format_bytes(static_cast<double>(report.ocs_bytes)).c_str());
  std::printf("via EPS    : %s\n",
              sim::format_bytes(static_cast<double>(report.eps_bytes)).c_str());
  std::printf("latency    : %s\n", report.latency.summary_time().c_str());
  std::printf("reconfigs  : %llu (duty cycle %.2f)\n",
              static_cast<unsigned long long>(report.reconfigurations),
              report.ocs_duty_cycle);
  std::printf("peak buffer: %s in the ToR\n",
              sim::format_bytes(static_cast<double>(report.peak_switch_buffer_bytes)).c_str());
  return 0;
}
