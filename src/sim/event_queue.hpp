// The pending-event set of the discrete-event engine.
//
// Ordering is by the unique key (time, sequence-number): the sequence number
// makes ordering among same-timestamp events FIFO and therefore
// deterministic, which the reproducibility of every experiment in this
// repository relies on.
//
// Scheduling and firing an event allocate nothing in steady state:
//   - a callback is stored in a sim::Callback, whose 128-byte inline buffer
//     holds the framework's largest hot capture (`this`, a net::Packet and a
//     port).  Larger captures, or ones that may throw on move, allocate;
//   - callbacks are constructed straight into a slab of fixed-size chunks
//     that is never reallocated; freed slots are reused, so the slab only
//     grows to the peak pending depth;
//   - a binary heap orders 24-byte {time, seq, slot} entries, never
//     callbacks.
//
// Cancellation is generation-checked: an EventId names its slot and the
// sequence number the slot must still hold, so `cancel` is an O(1) compare.
// The cancelled event's heap entry stays behind and is dropped when it
// surfaces, which costs little because schedulers cancel far fewer events
// than they schedule.
#ifndef XDRS_SIM_EVENT_QUEUE_HPP
#define XDRS_SIM_EVENT_QUEUE_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace xdrs::sim {

/// A move-only `void()` callable.  Callables of up to kInlineBytes (with at
/// most pointer alignment and a non-throwing move) are stored inline; larger
/// ones are moved to the heap.
class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 128;

  Callback() noexcept = default;

  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert implicitly
    emplace(std::forward<F>(f));
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Calls the stored callable.  Precondition: non-empty.
  void operator()() { ops_->invoke(buf_); }

  /// Destroys the stored callable, leaving this empty.
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  /// Replaces the stored callable with one constructed from `f`, in place.
  template <class F, class D = std::decay_t<F>>
    requires(!std::is_same_v<D, Callback> && std::is_invocable_r_v<void, D&>)
  void emplace(F&& f) {
    reset();
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* p = new D(std::forward<F>(f));
      std::memcpy(buf_, &p, sizeof p);
      ops_ = &kHeapOps<D>;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Move-constructs into `dst` from `src` and destroys `src`; null when a
    /// byte copy of the buffer does both (trivial captures, heap pointers).
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null when nothing needs destroying.
    void (*destroy)(void* buf) noexcept;
  };

  template <class D>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(void*) &&
                                      std::is_nothrow_move_constructible_v<D>;

  template <class D>
  static D* inline_ptr(void* buf) noexcept {
    return std::launder(static_cast<D*>(buf));
  }
  template <class D>
  static D* heap_ptr(void* buf) noexcept {
    D* p = nullptr;
    std::memcpy(&p, buf, sizeof p);
    return p;
  }

  template <class D>
  static constexpr bool kTrivialInline =
      std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* buf) { (*inline_ptr<D>(buf))(); },
      kTrivialInline<D> ? nullptr
                        : +[](void* dst, void* src) noexcept {
                            ::new (dst) D(std::move(*inline_ptr<D>(src)));
                            inline_ptr<D>(src)->~D();
                          },
      kTrivialInline<D> ? nullptr : +[](void* buf) noexcept { inline_ptr<D>(buf)->~D(); }};

  template <class D>
  static constexpr Ops kHeapOps{[](void* buf) { (*heap_ptr<D>(buf))(); }, nullptr,
                                [](void* buf) noexcept { delete heap_ptr<D>(buf); }};

  void take(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
    other.ops_ = nullptr;
  }

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_{nullptr};
};

/// Opaque identifier of a scheduled event; usable to cancel it.
struct EventId {
  std::uint64_t seq{0};
  std::uint32_t slot{0};
  [[nodiscard]] constexpr bool valid() const noexcept { return seq != 0; }
  constexpr bool operator==(const EventId&) const noexcept = default;
};

/// Min-heap of timestamped callbacks with stable FIFO tie-breaking.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts callable `f` (a lambda, functor or Callback) to fire at
  /// absolute time `at`.  O(log n).  The callable is constructed straight
  /// into its slot.
  template <class F>
    requires std::is_invocable_r_v<void, std::decay_t<F>&>
  EventId push(Time at, F&& f) {
    const std::uint32_t i = acquire_slot();
    Callback& cb = slot(i).cb;
    try {
      if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
        cb = std::forward<F>(f);
      } else {
        cb.emplace(std::forward<F>(f));
      }
    } catch (...) {
      release_slot(i);
      throw;
    }
    return link(at, i);
  }

  /// Removes an event from the live set.  O(1); its heap entry is dropped
  /// when it surfaces.  Cancelling an unknown, already-cancelled or
  /// already-fired id is a harmless no-op, even once its slot holds a newer
  /// event.  Returns true if the event was still pending.
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Timestamp of the earliest live event.  Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// Removes and returns the earliest live event.  Precondition: !empty().
  struct Popped {
    Time at;
    EventId id;
    Callback cb;
  };
  [[nodiscard]] Popped pop();

  /// Total events ever pushed (for engine statistics).
  [[nodiscard]] std::uint64_t total_pushed() const noexcept { return next_seq_ - 1; }

 private:
  /// Heap entry.  Live iff its slot still holds `seq`.
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // Kept free of padding (the free-list link shares `seq`): at a fat-tree's
  // peak of ~23 K pending events the slab is the engine's largest memory cost.
  struct Slot {
    /// The pending event's seq; kFree | the next free slot when free.
    std::uint64_t seq{0};
    Callback cb;
  };

  static constexpr std::uint32_t kChunkSlots = 256;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::uint64_t kFree = std::uint64_t{1} << 63;  // above any seq

  [[nodiscard]] Slot& slot(std::uint32_t i) noexcept {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }
  [[nodiscard]] bool live(const Entry& e) noexcept { return slot(e.slot).seq == e.seq; }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t i) noexcept;
  /// Enters the callback stored in slot `i` into the heap; returns its id.
  EventId link(Time at, std::uint32_t i);

  void sift_up(std::size_t i, Entry e) noexcept;
  void remove_root() noexcept;
  /// Removes dead entries from the top so the root, if any, is live.
  void drop_dead_head() noexcept;

  // A binary heap: a 4-ary one measured no faster at the framework's pending
  // depths (about 1 K events on a 128-port switch, 20 K on a fat-tree).
  std::vector<Entry> heap_;  // invariant: empty, or heap_.front() is live
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slots_{0};  // slots handed out so far
  std::uint32_t free_head_{kNoSlot};
  std::size_t live_{0};
  std::uint64_t next_seq_{1};
};

}  // namespace xdrs::sim

#endif  // XDRS_SIM_EVENT_QUEUE_HPP
