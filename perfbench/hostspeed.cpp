#include "hostspeed.hpp"

#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kEvents = 20'000;
constexpr std::size_t kPending = 4'096;
constexpr std::size_t kStateWords = std::size_t{1} << 17;  // 1 MB
constexpr std::size_t kMask = kStateWords - 1;
constexpr suseconds_t kPeriodUs = 50'000;
constexpr std::size_t kMaxSamples = 16'384;  // 50 ms apart: over 13 minutes

struct Event {
  std::uint64_t time;
  std::uint32_t id;
};

// Static storage only: the unit runs inside a signal handler.
std::uint64_t g_state[kStateWords];
Event g_heap[kPending];
double g_samples[kMaxSamples];
std::atomic<std::size_t> g_count{0};
std::atomic<std::int64_t> g_inside_ns{0};
/// Keeps the unit's result observable, so it cannot be optimised away.
volatile std::uint64_t g_sink = 0;

// Event handlers, called through a table as the simulator calls its
// callbacks through std::function.
void touch_hashed(std::uint32_t id, std::uint64_t t, std::uint64_t&) {
  g_state[(id * 2654435761u) & kMask] += t;
}
void flip_mixed(std::uint32_t id, std::uint64_t t, std::uint64_t&) {
  g_state[(id ^ t) & kMask] ^= id;
}
void read_owned(std::uint32_t id, std::uint64_t, std::uint64_t& x) { x ^= g_state[id & kMask]; }
void touch_timed(std::uint32_t id, std::uint64_t t, std::uint64_t&) {
  g_state[(t >> 3) & kMask] += id;
}
using Handler = void (*)(std::uint32_t, std::uint64_t, std::uint64_t&);
Handler const kHandlers[4] = {touch_hashed, flip_mixed, read_owned, touch_timed};

/// Replaces the earliest event of the binary min-heap with `e`.
void replace_top(Event e) {
  std::size_t i = 0;
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= kPending) break;
    if (c + 1 < kPending && g_heap[c + 1].time < g_heap[c].time) ++c;
    if (g_heap[c].time >= e.time) break;
    g_heap[i] = g_heap[c];
    i = c;
  }
  g_heap[i] = e;
}

/// Runs one reference unit and returns its wall seconds.
double run_unit() {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kPending; ++i) {
    g_heap[i] = {std::uint64_t{i} * 7, static_cast<std::uint32_t>(i)};  // sorted: a heap
  }
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int n = 0; n < kEvents; ++n) {
    const Event e = g_heap[0];
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    kHandlers[x & 3](e.id, e.time, x);
    replace_top({e.time + 1 + (x >> 40) % 1000, e.id});
  }
  g_sink = g_sink + x;
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void take_sample() {
  const double s = run_unit();
  const std::size_t n = g_count.load(std::memory_order_relaxed);
  if (n < kMaxSamples) {
    g_samples[n] = s;
    g_count.store(n + 1, std::memory_order_relaxed);
  }
}

extern "C" void on_timer(int) {
  const int saved_errno = errno;
  const auto t0 = Clock::now();
  take_sample();
  g_inside_ns.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count(),
      std::memory_order_relaxed);
  errno = saved_errno;
}

void set_timer(suseconds_t period_us) {
  itimerval it{};
  it.it_interval.tv_usec = period_us;
  it.it_value.tv_usec = period_us;
  if (setitimer(ITIMER_REAL, &it, nullptr) != 0) throw std::runtime_error{"setitimer failed"};
}

}  // namespace

void begin_host_span() {
  static const bool installed = [] {
    struct sigaction sa{};
    sa.sa_handler = on_timer;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGALRM, &sa, nullptr) != 0) throw std::runtime_error{"sigaction failed"};
    (void)run_unit();  // the first unit also pays the first touch of its state
    return true;
  }();
  (void)installed;
  g_count.store(0, std::memory_order_relaxed);
  g_inside_ns.store(0, std::memory_order_relaxed);
  take_sample();
  set_timer(kPeriodUs);
}

double host_span_inside_s() {
  return static_cast<double>(g_inside_ns.load(std::memory_order_relaxed)) * 1e-9;
}

HostSpan end_host_span() {
  set_timer(0);
  take_sample();
  std::vector<double> v(g_samples, g_samples + g_count.load(std::memory_order_relaxed));
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  double m = *mid;
  if (v.size() % 2 == 0) m = 0.5 * (m + *std::max_element(v.begin(), mid));
  return {m / kReferenceUnitSeconds, host_span_inside_s()};
}

}  // namespace perfbench
