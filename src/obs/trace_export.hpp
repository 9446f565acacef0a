// Chrome trace-event export: one JSON document loadable by Perfetto
// (ui.perfetto.dev) or chrome://tracing, merging two tracks:
//
//   pid 1 "virtual time"  — the simulation's TraceRecorder events.
//                           kScheduleStart/kScheduleDone and
//                           kReconfigStart/kReconfigDone pairs become
//                           duration ("X") slices; everything else becomes
//                           instant events carrying its (a, b) payload.
//   pid 2 "host time"     — the registry's span log (stage compute spans),
//                           normalised so the earliest span starts at 0.
//   pid 3 "tiers"         — optional named counter tracks ("C" events) in
//                           virtual time: one per tier series (per-ToR VOQ
//                           depth, core queue depth) of a multi-rack run.
//                           Present only when counter tracks are passed.
//
// All tracks are in microseconds.  The virtual and host clocks are
// unrelated (virtual picoseconds vs host monotonic ns); putting them in
// separate trace processes keeps Perfetto from implying alignment while
// still allowing side-by-side inspection.  Output is deterministic for
// deterministic inputs (golden-file tested), so exports diff cleanly.
#ifndef XDRS_OBS_TRACE_EXPORT_HPP
#define XDRS_OBS_TRACE_EXPORT_HPP

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/trace.hpp"
#include "stats/timeseries.hpp"

namespace xdrs::obs {

/// One named counter track: (track name, virtual-time series).
using CounterTracks = std::vector<std::pair<std::string, const stats::TimeSeries*>>;

/// The virtual- and host-time tracks, plus one pid-3 counter track per
/// entry of `counters` — the per-tier gauge series of a multi-rack run
/// (topo::FatTree::tier_series()).  Null or empty series are skipped, so an
/// empty list gives the two-track document.
[[nodiscard]] std::string chrome_trace_json(const sim::TraceRecorder& sim_trace,
                                            const Registry& registry,
                                            const CounterTracks& counters = {});

}  // namespace xdrs::obs

#endif  // XDRS_OBS_TRACE_EXPORT_HPP
