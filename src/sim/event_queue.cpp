#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace xdrs::sim {

namespace {

/// Heap order on the unique key (time, seq).  Bitwise, not short-circuit, so
/// the sift loops carry no data-dependent branch the predictor cannot learn.
template <class E>
[[nodiscard]] bool before(const E& a, const E& b) noexcept {
  return (a.at < b.at) | ((a.at == b.at) & (a.seq < b.seq));
}

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t i = free_head_;
    free_head_ = static_cast<std::uint32_t>(slot(i).seq);
    return i;
  }
  if (slots_ == kNoSlot) throw std::length_error{"EventQueue: too many pending events"};
  if (slots_ % kChunkSlots == 0) chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  return slots_++;
}

void EventQueue::release_slot(std::uint32_t i) noexcept {
  Slot& s = slot(i);
  s.seq = kFree | free_head_;
  s.cb.reset();
  free_head_ = i;
}

EventId EventQueue::link(Time at, std::uint32_t i) {
  try {
    heap_.emplace_back();
  } catch (...) {
    release_slot(i);
    throw;
  }
  const EventId id{next_seq_++, i};
  slot(i).seq = id.seq;
  sift_up(heap_.size() - 1, Entry{at, id.seq, i});
  ++live_;
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.seq >= next_seq_ || id.slot >= slots_ || slot(id.slot).seq != id.seq) {
    return false;
  }
  release_slot(id.slot);
  --live_;
  drop_dead_head();
  return true;
}

Time EventQueue::next_time() const {
  if (heap_.empty()) throw std::logic_error{"EventQueue::next_time on empty queue"};
  return heap_.front().at;
}

EventQueue::Popped EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error{"EventQueue::pop on empty queue"};
  const Entry top = heap_.front();
  remove_root();
  Popped out{top.at, EventId{top.seq, top.slot}, std::move(slot(top.slot).cb)};
  release_slot(top.slot);
  --live_;
  drop_dead_head();
  return out;
}

void EventQueue::sift_up(std::size_t i, Entry e) noexcept {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::remove_root() noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Bottom-up: walk the hole down to a leaf along the smaller children, then
  // sift the former last entry up from there.  It came from the bottom, so
  // it rarely climbs far, and the walk down needs one comparison per level.
  std::size_t i = 0;
  std::size_t c = 1;
  for (; c + 1 < n; c = 2 * i + 1) {
    c += static_cast<std::size_t>(before(heap_[c + 1], heap_[c]));
    heap_[i] = heap_[c];
    i = c;
  }
  if (c < n) {
    heap_[i] = heap_[c];
    i = c;
  }
  sift_up(i, last);
}

void EventQueue::drop_dead_head() noexcept {
  while (!heap_.empty() && !live(heap_.front())) remove_root();
}

}  // namespace xdrs::sim
