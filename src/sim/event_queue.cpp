#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace xdrs::sim {

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

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t i = free_head_;
    free_head_ = static_cast<std::uint32_t>(seq_word(i));
    return i;
  }
  if (slots_ == kMaxSlots) throw std::length_error{"EventQueue: more than 2^24 pending events"};
  if (slots_ % kChunkSlots == 0) chunks_.push_back(std::make_unique<Chunk>());
  return slots_++;
}

void EventQueue::release_slot(std::uint32_t i) noexcept {
  seq_word(i) = kFree | free_head_;
  callback(i).reset();
  free_head_ = i;
}

EventId EventQueue::link(Time at, std::uint32_t i) {
  try {
    if (next_seq_ == kSeqLimit) throw std::length_error{"EventQueue: 2^40 pushes exhausted"};
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

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.seq >= next_seq_ || id.slot >= slots_ || seq_word(id.slot) != id.seq) {
    return false;
  }
  release_slot(id.slot);
  --live_;
  drop_dead_head();
  return true;
}

Time EventQueue::next_time() const {
  if (heap_size_ == 0) throw std::logic_error{"EventQueue::next_time on empty queue"};
  return heap_[0].at;
}

void EventQueue::take_head(std::uint32_t i) noexcept {
  remove_root();
  seq_word(i) = kRunning;
  --live_;
  drop_dead_head();
  if (heap_size_ != 0) __builtin_prefetch(&callback(slot_of(heap_[0].key)));
}

void EventQueue::grow_heap() {
  const std::size_t capacity = std::max<std::size_t>(64, 2 * (heap_capacity_ + kHeapPad));
  auto* fresh = static_cast<Entry*>(
      ::operator new[](capacity * sizeof(Entry), std::align_val_t{kLineBytes}));
  std::copy_n(heap_, heap_size_, fresh + kHeapPad);
  heap_storage_.reset(fresh);
  heap_ = fresh + kHeapPad;
  heap_capacity_ = capacity - kHeapPad;
}

void EventQueue::sift_up(std::size_t i, Entry e) noexcept {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::remove_root() noexcept {
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

void EventQueue::drop_dead_head() noexcept {
  while (heap_size_ != 0 && !live(heap_[0])) remove_root();
}

}  // namespace xdrs::sim
