// The event engine's former pending-event set, kept verbatim as a test
// oracle: a 4-ary min-heap of {time, seq << 24 | slot} entries over the same
// callback slab, with lazily dropped cancelled entries.  It fires in exactly
// the (time, seq) order the calendar queue in sim/event_queue.hpp must
// reproduce, so tests drive both with one operation stream and compare.
// Only the class name and the inline definitions differ from the original.
#ifndef XDRS_TESTS_REFERENCE_EVENT_HEAP_HPP
#define XDRS_TESTS_REFERENCE_EVENT_HEAP_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace xdrs::sim::testing {

/// Min-heap of timestamped callbacks with stable FIFO tie-breaking.
class ReferenceEventHeap {
 public:
  ReferenceEventHeap() = default;
  ReferenceEventHeap(const ReferenceEventHeap&) = delete;
  ReferenceEventHeap& operator=(const ReferenceEventHeap&) = delete;

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
    ReferenceEventHeap& q;
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


namespace {

/// Heap order on the unique key (time, seq), as one unsigned 128-bit compare
/// of (time with its sign bit flipped, key).  It compiles to a compare and a
/// subtract-with-borrow, with no branch: a shorter chain per heap level than
/// three 64-bit compares combined, which measured faster end to end.
template <class E>
[[nodiscard]] bool before(const E& a, const E& b) noexcept {
  using U128 = unsigned __int128;
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const auto wide = [](const E& e) {
    return U128{static_cast<std::uint64_t>(e.at.ps()) ^ kSign} << 64 | e.key;
  };
  return wide(a) < wide(b);
}

}  // namespace

inline std::uint32_t ReferenceEventHeap::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t i = free_head_;
    free_head_ = static_cast<std::uint32_t>(seq_word(i));
    return i;
  }
  if (slots_ == kMaxSlots) throw std::length_error{"ReferenceEventHeap: more than 2^24 pending events"};
  if (slots_ % kChunkSlots == 0) chunks_.push_back(std::make_unique<Chunk>());
  return slots_++;
}

inline void ReferenceEventHeap::release_slot(std::uint32_t i) noexcept {
  seq_word(i) = kFree | free_head_;
  callback(i).reset();
  free_head_ = i;
}

inline EventId ReferenceEventHeap::link(Time at, std::uint32_t i) {
  try {
    if (next_seq_ == kSeqLimit) throw std::length_error{"ReferenceEventHeap: 2^40 pushes exhausted"};
    if (heap_size_ == heap_capacity_) grow_heap();
  } catch (...) {
    release_slot(i);
    throw;
  }
  const EventId id{next_seq_++, i};
  seq_word(i) = id.seq;
  sift_up(heap_size_++, Entry{at, id.seq << kSlotBits | i});
  ++live_;
  return id;
}

inline bool ReferenceEventHeap::cancel(EventId id) {
  if (!id.valid() || id.seq >= next_seq_ || id.slot >= slots_ || seq_word(id.slot) != id.seq) {
    return false;
  }
  release_slot(id.slot);
  --live_;
  drop_dead_head();
  return true;
}

inline Time ReferenceEventHeap::next_time() const {
  if (heap_size_ == 0) throw std::logic_error{"ReferenceEventHeap::next_time on empty queue"};
  return heap_[0].at;
}

inline void ReferenceEventHeap::take_head(std::uint32_t i) noexcept {
  remove_root();
  seq_word(i) = kRunning;
  --live_;
  drop_dead_head();
  if (heap_size_ != 0) __builtin_prefetch(&callback(slot_of(heap_[0].key)));
}

inline void ReferenceEventHeap::grow_heap() {
  const std::size_t capacity = std::max<std::size_t>(64, 2 * (heap_capacity_ + kHeapPad));
  auto* fresh = static_cast<Entry*>(
      ::operator new[](capacity * sizeof(Entry), std::align_val_t{kLineBytes}));
  std::copy_n(heap_, heap_size_, fresh + kHeapPad);
  heap_storage_.reset(fresh);
  heap_ = fresh + kHeapPad;
  heap_capacity_ = capacity - kHeapPad;
}

inline void ReferenceEventHeap::sift_up(std::size_t i, Entry e) noexcept {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

inline void ReferenceEventHeap::remove_root() noexcept {
  const Entry last = heap_[--heap_size_];
  const std::size_t n = heap_size_;
  if (n == 0) return;
  // Bottom-up: walk the hole down to a leaf along the smallest children,
  // then sift the former last entry up from there.  It came from the
  // bottom, so it rarely climbs far, and the walk down needs three
  // comparisons per level, all within the children's one cache line.
  std::size_t i = 0;
  std::size_t c = 1;
  for (; c + 3 < n; c = 4 * i + 1) {
    // The four children's child groups are the next four lines: fetch them
    // while this level's comparisons resolve.
    const std::size_t g = 4 * c + 1;
    if (g + 15 < n) {
      __builtin_prefetch(&heap_[g]);
      __builtin_prefetch(&heap_[g + 4]);
      __builtin_prefetch(&heap_[g + 8]);
      __builtin_prefetch(&heap_[g + 12]);
    }
    const std::size_t lo = c + static_cast<std::size_t>(before(heap_[c + 1], heap_[c]));
    const std::size_t hi = c + 2 + static_cast<std::size_t>(before(heap_[c + 3], heap_[c + 2]));
    const std::size_t m = before(heap_[hi], heap_[lo]) ? hi : lo;
    heap_[i] = heap_[m];
    i = m;
  }
  if (c < n) {
    std::size_t m = c;
    for (std::size_t k = c + 1; k < n; ++k) {
      if (before(heap_[k], heap_[m])) m = k;
    }
    heap_[i] = heap_[m];
    i = m;
  }
  sift_up(i, last);
}

inline void ReferenceEventHeap::drop_dead_head() noexcept {
  while (heap_size_ != 0 && !live(heap_[0])) remove_root();
}

}  // namespace xdrs::sim::testing

#endif  // XDRS_TESTS_REFERENCE_EVENT_HEAP_HPP
