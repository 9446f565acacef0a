#include "schedulers/baselines.hpp"

#include <algorithm>
#include <stdexcept>

namespace xdrs::schedulers {

void CThroughScheduler::plan_into(const demand::DemandMatrix& dem, CircuitPlan& out) {
  out.residual.copy_from(dem);
  if (dem.total() == 0) {
    out.truncate(0);
    return;
  }

  hungarian_.compute_into(dem, day_);
  if (day_.empty()) {
    out.truncate(0);
    return;
  }

  // The single configuration serves each matched pair's full demand: the
  // circuit day is long in c-Through, so the plan's weight is the largest
  // matched backlog, and lighter pairs simply finish early.
  std::int64_t w = 0;
  day_.for_each_pair([&](net::PortId i, net::PortId j) { w = std::max(w, dem.at(i, j)); });

  CircuitSlot& slot = out.reuse_slot(0, dem.inputs(), dem.outputs());
  slot.weight_bytes = w;
  day_.for_each_pair([&](net::PortId i, net::PortId j) {
    slot.configuration.match(i, j);
    out.residual.subtract_clamped(i, j, w);
  });
  out.truncate(1);
}

TmsScheduler::TmsScheduler(std::size_t max_days) : max_days_{max_days}, inner_{max_days} {
  if (max_days == 0) throw std::invalid_argument{"TmsScheduler: max_days must be >= 1"};
}

void TmsScheduler::plan_into(const demand::DemandMatrix& dem, CircuitPlan& out) {
  inner_.plan_into(dem, out);
}

}  // namespace xdrs::schedulers
