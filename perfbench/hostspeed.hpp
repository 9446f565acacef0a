// Host-speed reference: a fixed unit of work, owned by the benchmark and
// never changed with the simulator, timed on the thread that runs the
// workload, interleaved with it.
//
// The benchmark runs on shared virtual machines whose speed drifts by
// 20-50 % over tens of seconds with neighbours' load, and that drift
// outlasts any one run.  Timing the same reference work while the workload
// runs measures the host's current speed; dividing each timed span by it
// expresses the span in reference-host seconds, which cancels most of the
// drift.  See NOTES.md, "Host-speed reference".
#ifndef XDRS_PERFBENCH_HOSTSPEED_HPP
#define XDRS_PERFBENCH_HOSTSPEED_HPP

namespace perfbench {

/// Wall seconds one reference unit takes on the reference host (the
/// 4-vCPU Xeon VM the benchmark was tuned on, at its fastest).  A fixed
/// constant: it only sets the scale of reference-host seconds.
inline constexpr double kReferenceUnitSeconds = 2.0e-3;

/// What sampling measured over one span.
struct HostSpan {
  /// Median unit time / kReferenceUnitSeconds: 1 on the reference host,
  /// 1.3 when the host runs 30 % slower.  Wall seconds divided by it are
  /// reference-host seconds.
  double slowness{1.0};
  /// Seconds spent in reference units inside the span, which the caller
  /// subtracts from what it timed.
  double inside_s{0.0};
};

/// Starts a span: takes one sample, then every 50 ms of wall time a timer
/// signal interrupts the work and runs one more.  The reference unit is a
/// small discrete-event loop (a binary heap of timestamped events and a
/// 1 MB state table, shaped like the simulator's inner loop), free of
/// allocation so that it is safe in a signal handler.  One span at a time
/// per process; the work must run on the calling thread, with no other
/// thread running.
void begin_host_span();

/// Seconds spent in reference units since begin_host_span(); callable
/// inside the span (from ExecutionPlan::progress) to split them by point.
[[nodiscard]] double host_span_inside_s();

/// Stops the timer, takes one more sample and returns the span's figures.
[[nodiscard]] HostSpan end_host_span();

}  // namespace perfbench

#endif  // XDRS_PERFBENCH_HOSTSPEED_HPP
