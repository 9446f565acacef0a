// The pending-event set of the discrete-event engine.
//
// Ordering is by the unique key (time, sequence-number): the sequence number
// makes ordering among same-timestamp events FIFO and therefore
// deterministic, which the reproducibility of every experiment in this
// repository relies on.
//
// Every simulated packet passes through here several times, so the layout
// is chosen for the cache as much as for allocation:
//   - a callback is stored in a sim::Callback: an ops pointer followed by a
//     120-byte inline buffer, 128 bytes in all.  The buffer holds the
//     framework's largest hot capture (`this`, a 96-byte net::Packet and a
//     port); a small capture shares the ops pointer's cache line.  Larger
//     captures, or ones that may throw on move, allocate;
//   - callbacks are constructed straight into a slab of fixed-size chunks
//     that is never reallocated; freed slots are reused, so the slab only
//     grows to the peak pending depth.  Each chunk keeps its slots' seq
//     words in a dense array apart from the line-aligned callbacks, so
//     cancelling and skipping a cancelled entry read 8 bytes, not a
//     callback's cache line;
//   - a 4-ary heap orders 16-byte {time, seq << 24 | slot} entries, never
//     callbacks.  The array is offset so that the four children of a node
//     fill one 64-byte line, and a pop prefetches the four lines one level
//     below the children it compares.  Since seqs are unique, comparing
//     (time, key) orders exactly as (time, seq).
//
// Limits, from the key's layout: at most 2^24 events pending at once, and at
// most 2^40 - 1 pushes over a queue's lifetime.  Exceeding either throws
// std::length_error.
//
// Firing is in place: `fire_next` takes the head out of the heap and calls
// its callback inside the slot it was constructed in, then frees the slot.
// While the callback runs its slot matches no EventId (so cancelling the
// running event returns false), is not counted by `size()` and is not on
// the free list; it is freed when the callback returns or throws.
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
  static constexpr std::size_t kInlineBytes = 120;

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

  // The ops pointer leads, so on a line-aligned Callback it shares a cache
  // line with the first 56 bytes of the capture.
  const Ops* ops_{nullptr};
  alignas(void*) unsigned char buf_[kInlineBytes];
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
    Callback& cb = callback(i);
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
  /// when it surfaces.  Cancelling an unknown, already-cancelled,
  /// already-fired or currently running event is a harmless no-op, even
  /// once its slot holds a newer event.  Returns true if the event was still
  /// pending.
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Timestamp of the earliest live event.  Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// Fires the earliest live event if there is one stamped at or before
  /// `horizon`: takes it out of the queue, calls `on_fire(at)` with its
  /// timestamp, then calls the event's callback in place.  The slot is
  /// freed (and the callable destroyed) when the callback returns or
  /// throws.  Returns false, doing nothing, when no such event exists.
  template <class OnFire>
  bool fire_next(Time horizon, OnFire&& on_fire) {
    if (heap_size_ == 0 || heap_[0].at > horizon) return false;
    const Entry top = heap_[0];
    const std::uint32_t i = slot_of(top.key);
    take_head(i);
    const Release release{*this, i};
    on_fire(top.at);
    callback(i)();
    return true;
  }

  /// Total events ever pushed (for engine statistics).
  [[nodiscard]] std::uint64_t total_pushed() const noexcept { return next_seq_ - 1; }

 private:
  /// Heap entry.  Live iff its slot's seq word still holds `key >> kSlotBits`.
  struct Entry {
    Time at;
    std::uint64_t key;  // seq << kSlotBits | slot
  };
  static_assert(sizeof(Entry) == 16);

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << (64 - kSlotBits);
  static constexpr std::uint32_t kChunkSlots = 256;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::uint64_t kFree = std::uint64_t{1} << 63;  // above any seq
  static constexpr std::uint64_t kRunning = ~std::uint64_t{0};    // matches no EventId
  /// The root sits at storage index kHeapPad, so the children 4i+1..4i+4 of
  /// every node i start on a multiple of 4 entries: one 64-byte line.
  static constexpr std::size_t kHeapPad = 3;
  static constexpr std::size_t kLineBytes = 64;

  struct Chunk {
    /// Per slot: the pending event's seq, kRunning while its callback runs,
    /// or kFree | the next free slot.
    std::uint64_t seq[kChunkSlots];
    alignas(kLineBytes) Callback cb[kChunkSlots];
  };
  static_assert(sizeof(Callback) == 2 * kLineBytes);

  struct AlignedDelete {
    void operator()(Entry* p) const noexcept {
      ::operator delete[](p, std::align_val_t{kLineBytes});
    }
  };

  /// Frees a fired slot when its callback returns or unwinds.
  struct Release {
    EventQueue& q;
    std::uint32_t slot;
    ~Release() { q.release_slot(slot); }
  };

  [[nodiscard]] static std::uint32_t slot_of(std::uint64_t key) noexcept {
    return static_cast<std::uint32_t>(key & kSlotMask);
  }
  [[nodiscard]] std::uint64_t& seq_word(std::uint32_t i) noexcept {
    return chunks_[i / kChunkSlots]->seq[i % kChunkSlots];
  }
  [[nodiscard]] Callback& callback(std::uint32_t i) noexcept {
    return chunks_[i / kChunkSlots]->cb[i % kChunkSlots];
  }
  [[nodiscard]] bool live(const Entry& e) noexcept {
    return seq_word(slot_of(e.key)) == e.key >> kSlotBits;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t i) noexcept;
  /// Enters the callback stored in slot `i` into the heap; returns its id.
  EventId link(Time at, std::uint32_t i);
  /// Removes the live head, whose slot is `i`, from the heap and marks its
  /// slot running; prefetches the next head's callback.
  void take_head(std::uint32_t i) noexcept;

  void grow_heap();
  void sift_up(std::size_t i, Entry e) noexcept;
  void remove_root() noexcept;
  /// Removes dead entries from the top so the root, if any, is live.
  void drop_dead_head() noexcept;

  std::unique_ptr<Entry[], AlignedDelete> heap_storage_;
  Entry* heap_{nullptr};  // heap_storage_ + kHeapPad; invariant: empty, or heap_[0] is live
  std::size_t heap_size_{0};
  std::size_t heap_capacity_{0};  // entries that fit after the padding
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t slots_{0};  // slots handed out so far
  std::uint32_t free_head_{kNoSlot};
  std::size_t live_{0};
  std::uint64_t next_seq_{1};
};

}  // namespace xdrs::sim

#endif  // XDRS_SIM_EVENT_QUEUE_HPP
