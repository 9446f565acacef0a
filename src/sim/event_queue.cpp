#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace xdrs::sim {

namespace {

/// Order on the unique key (time, seq), as one unsigned 128-bit compare of
/// (time with its sign bit flipped, word).  The word's high bits are the seq
/// and seqs are unique, so its low bits never decide.  It compiles to a
/// compare and a subtract-with-borrow, with no branch: a shorter chain per
/// heap level than three 64-bit compares combined, which measured faster end
/// to end.
template <class T, class W>
[[nodiscard]] bool before(T at_a, W word_a, T at_b, W word_b) noexcept {
  using U128 = unsigned __int128;
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const auto wide = [](T at, W word) {
    return U128{static_cast<std::uint64_t>(at) ^ kSign} << 64 | word;
  };
  return wide(at_a, word_a) < wide(at_b, word_b);
}

template <class E>
[[nodiscard]] bool before(const E& a, const E& b) noexcept {
  return before(a.at.ps(), a.key, b.at.ps(), b.key);
}

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNone) {
    const std::uint32_t i = free_head_;
    free_head_ = next_of(node(i));
    return i;
  }
  if (slots_ == kMaxSlots) throw std::length_error{"EventQueue: 2^24 - 1 pending events"};
  if (slots_ % kChunkSlots == 0) chunks_.push_back(std::make_unique<Chunk>());
  return slots_++;
}

void EventQueue::release_slot(std::uint32_t i) noexcept {
  node(i).word = free_head_;
  callback(i).reset();
  free_head_ = i;
}

EventId EventQueue::link(Time at, std::uint32_t i) {
  try {
    if (next_seq_ == kSeqLimit) throw std::length_error{"EventQueue: 2^40 pushes exhausted"};
    if (live_ >= rebuild_at_live_ || pushes_ == check_at_) check_width();
    // The far set must take this event, or everything a rewind sends it,
    // without allocating.
    const bool behind = (at.ps() >> shift_) < cur_;
    const std::size_t room = behind ? live_ + 1 : 1;
    if (heap_capacity_ - heap_size_ < room) grow_heap(heap_size_ + room);
  } catch (...) {
    release_slot(i);
    throw;
  }
  const EventId id{next_seq_++, i};
  ++pushes_;
  Node& n = node(i);
  n.at = at.ps();
  n.word = id.seq << kLinkBits | kNone;
  ++live_;
  low_ = std::min(low_, n.at);
  place(i);
  return id;
}

void EventQueue::place(std::uint32_t i) noexcept {
  const std::int64_t b = node(i).at >> shift_;
  if (b < cur_) rewind(b);
  if (in_span(b)) {
    insert(i, static_cast<std::size_t>(b) & (nb_ - 1));
    return;
  }
  ++far_pushes_;
  far_push(i);
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot >= slots_ || node(id.slot).word >> kLinkBits != id.seq) {
    return false;
  }
  const std::int64_t b = node(id.slot).at >> shift_;
  const bool on_wheel = in_span(b);
  if (on_wheel) unlink(id.slot, static_cast<std::size_t>(b) & (nb_ - 1));
  release_slot(id.slot);
  --live_;
  if (!on_wheel) drop_dead_head();
  return true;
}

Time EventQueue::next_time() const {
  if (live_ == 0) throw std::logic_error{"EventQueue::next_time on empty queue"};
  const std::size_t b = first_occupied();
  return b != nb_ ? Time::picoseconds(node(buckets_[b].head).at) : heap_[0].at;
}

void EventQueue::take_head(std::uint32_t i) noexcept {
  const std::size_t b = static_cast<std::size_t>(cur_) & (nb_ - 1);
  const std::uint32_t next = next_of(node(i));
  buckets_[b].head = next;
  if (next == kNone) {
    clear_bit(b);
  } else {
    __builtin_prefetch(&callback(next));
  }
  node(i).word = kNone;  // running: seq 0
  --live_;
}

std::uint32_t EventQueue::seek_head(std::int64_t horizon) {
  for (;;) {
    const std::size_t b = first_occupied();
    if (b != nb_) {
      const std::size_t c = static_cast<std::size_t>(cur_) & (nb_ - 1);
      const std::int64_t k = cur_ + static_cast<std::int64_t>((b - c) & (nb_ - 1));
      const std::uint32_t i = buckets_[b].head;
      if (node(i).at > horizon) {
        low_ = node(i).at;
        advance(std::min(k, horizon >> shift_));
        return kNone;
      }
      advance(k);
      return i;
    }
    // The wheel is empty, so the far set's root is the head: move the
    // cursor to it, which pulls it onto the wheel.
    const std::int64_t t = heap_[0].at.ps();
    if (t > horizon) {
      low_ = t;
      advance(horizon >> shift_);
      return kNone;
    }
    advance(t >> shift_);
  }
}

void EventQueue::check_width() {
  // Over the last window of pushes: more than one list step per push means
  // buckets too wide for the traffic now; more than one push in eight to
  // the far set, a span too short.  Either way the pending events of now,
  // not those of the last build, set the width.
  const std::uint64_t window = pushes_ - checked_at_;
  if (live_ >= rebuild_at_live_ || walked_ > window || 8 * far_pushes_ > window) rebuild();
  walked_ = 0;
  far_pushes_ = 0;
  checked_at_ = pushes_;
  check_at_ = pushes_ + nb_;
}

void EventQueue::rebuild() {
  if (!buckets_) {
    // The first push allocates the largest wheel once, kMinBuckets of it in
    // use at width 1 ps until the first derivation.  The bucket array is
    // left uninitialised, so only the pages a wheel uses become resident.
    auto buckets = std::make_unique_for_overwrite<Bucket[]>(kMaxBuckets);
    std::vector<std::uint64_t> bits(kMaxBuckets / 64);
    std::vector<std::uint64_t> summary(kMaxBuckets / 4096);
    buckets_ = std::move(buckets);
    bits_ = std::move(bits);
    summary_ = std::move(summary);
    nb_ = kMinBuckets;
  }
  // Allocate first: scratch for every pending event, and far-set room for
  // every wheel event and the push that triggered this.
  times_.reserve(live_);
  order_.reserve(live_);
  if (heap_capacity_ - heap_size_ < live_ + 1) grow_heap(heap_size_ + live_ + 1);

  // The wheel's events in firing order, and every pending time.
  order_.clear();
  times_.clear();
  for (std::size_t k = 0; k < nb_; ++k) {
    const std::size_t b = (static_cast<std::size_t>(cur_) + k) & (nb_ - 1);
    if (!occupied(b)) continue;
    for (std::uint32_t i = buckets_[b].head; i != kNone; i = next_of(node(i))) {
      order_.push_back(i);
      times_.push_back(node(i).at);
    }
  }
  for (std::size_t k = 0; k < heap_size_; ++k) {
    if (live(heap_[k])) times_.push_back(heap_[k].at.ps());
  }
  rebuild_at_live_ = std::max(kFirstBuild, 2 * live_);
  if (times_.size() < 2) return;

  // The width is about the mean gap between the earliest quarter of the
  // pending times (the front, where inserts interleave), so a bucket there
  // holds about one event.  When that quarter shares one time, the
  // gap comes from all of them.  The bucket count makes the wheel span
  // seven eighths of the pending leads, so most pushes stay off the heap.
  const std::int64_t t0 = *std::min_element(times_.begin(), times_.end());
  const auto lead_at = [&](std::size_t k) {
    std::nth_element(times_.begin(), times_.begin() + static_cast<std::ptrdiff_t>(k),
                     times_.end());
    return static_cast<std::uint64_t>(times_[k]) - static_cast<std::uint64_t>(t0);
  };
  const std::size_t n = times_.size();
  const std::uint64_t tail = lead_at(n - 1 - n / 8);
  std::size_t front = std::max<std::size_t>(1, n / 4);
  std::uint64_t spread = lead_at(front);
  if (spread == 0) {
    front = n - 1;
    spread = lead_at(front);
  }
  const std::uint64_t width = std::max<std::uint64_t>(1, spread / front);
  const auto shift = static_cast<unsigned>(std::min<std::uint64_t>(std::bit_width(width) - 1, 62));
  const std::size_t nb = std::clamp<std::size_t>(
      std::bit_ceil(std::max<std::uint64_t>(n, (tail >> shift) + 1)), kMinBuckets, kMaxBuckets);
  // Nothing below allocates.
  const std::int64_t cursor_time = cur_ << shift_;
  std::fill(bits_.begin(), bits_.end(), 0);
  std::fill(summary_.begin(), summary_.end(), 0);
  shift_ = shift;
  nb_ = nb;
  cur_ = std::min(t0, cursor_time) >> shift_;
  // In firing order, every wheel event lands at its bucket's tail.
  for (const std::uint32_t i : order_) {
    const std::int64_t b = node(i).at >> shift_;
    if (in_span(b)) {
      insert(i, static_cast<std::size_t>(b) & (nb_ - 1));
    } else {
      far_push(i);
    }
  }
  advance(cur_);  // pulls the far events the new span covers
}

void EventQueue::advance(std::int64_t b) noexcept {
  if (b > cur_) cur_ = b;
  while (heap_size_ != 0 && in_span(heap_[0].at.ps() >> shift_)) {
    const Entry e = heap_[0];
    remove_root();
    insert(slot_of(e.key), static_cast<std::size_t>(e.at.ps() >> shift_) & (nb_ - 1));
    drop_dead_head();
  }
}

void EventQueue::rewind(std::int64_t b) noexcept {
  const std::uint64_t back = static_cast<std::uint64_t>(cur_) - static_cast<std::uint64_t>(b);
  // Absolute buckets [b + nb_, cur_ + nb_) leave the span: bucket indices
  // b, b + 1, ... for `back` steps, or the whole wheel.
  for (std::uint64_t k = 0; k < std::min<std::uint64_t>(back, nb_); ++k) {
    const std::size_t idx = static_cast<std::size_t>(static_cast<std::uint64_t>(b) + k) & (nb_ - 1);
    if (!occupied(idx)) continue;
    for (std::uint32_t i = buckets_[idx].head; i != kNone;) {
      const std::uint32_t next = next_of(node(i));
      far_push(i);
      i = next;
    }
    clear_bit(idx);
  }
  cur_ = b;
}

void EventQueue::insert(std::uint32_t i, std::size_t b) noexcept {
  Node& n = node(i);
  Bucket& list = buckets_[b];
  if (!occupied(b)) {
    set_next(n, kNone);
    list.head = list.tail = i;
    set_bit(b);
    return;
  }
  Node& tail = node(list.tail);
  if (!before(n.at, n.word, tail.at, tail.word)) {
    set_next(n, kNone);
    set_next(tail, i);
    list.tail = i;
    return;
  }
  // It goes before the tail: walk from the head to the first later event.
  std::uint32_t prev = kNone;
  std::uint32_t at = list.head;
  while (!before(n.at, n.word, node(at).at, node(at).word)) {
    prev = at;
    at = next_of(node(at));
    ++walked_;
  }
  set_next(n, at);
  if (prev == kNone) {
    list.head = i;
  } else {
    set_next(node(prev), i);
  }
}

void EventQueue::unlink(std::uint32_t i, std::size_t b) noexcept {
  Bucket& list = buckets_[b];
  const std::uint32_t next = next_of(node(i));
  if (list.head == i) {
    list.head = next;
    if (next == kNone) clear_bit(b);
    return;
  }
  std::uint32_t prev = list.head;
  while (next_of(node(prev)) != i) prev = next_of(node(prev));
  set_next(node(prev), next);
  if (list.tail == i) list.tail = prev;
}

void EventQueue::set_bit(std::size_t b) noexcept {
  bits_[b / 64] |= std::uint64_t{1} << (b % 64);
  summary_[b / 4096] |= std::uint64_t{1} << (b / 64 % 64);
}

void EventQueue::clear_bit(std::size_t b) noexcept {
  if ((bits_[b / 64] &= ~(std::uint64_t{1} << (b % 64))) == 0) {
    summary_[b / 4096] &= ~(std::uint64_t{1} << (b / 64 % 64));
  }
}

std::size_t EventQueue::first_occupied() const noexcept {
  const std::size_t c = static_cast<std::size_t>(cur_) & (nb_ - 1);
  const std::size_t b = first_occupied_from(c);
  return b != nb_ || c == 0 ? b : first_occupied_from(0);
}

std::size_t EventQueue::first_occupied_from(std::size_t b) const noexcept {
  std::size_t w = b / 64;
  const std::uint64_t here = bits_[w] & (~std::uint64_t{0} << (b % 64));
  if (here != 0) return w * 64 + static_cast<std::size_t>(std::countr_zero(here));
  ++w;
  const std::size_t words = nb_ / 64;
  if (w == words) return nb_;
  std::size_t s = w / 64;
  std::uint64_t mask = summary_[s] & (~std::uint64_t{0} << (w % 64));
  while (mask == 0) {
    if (++s == summary_.size()) return nb_;
    mask = summary_[s];
  }
  w = s * 64 + static_cast<std::size_t>(std::countr_zero(mask));
  if (w >= words) return nb_;
  return w * 64 + static_cast<std::size_t>(std::countr_zero(bits_[w]));
}

void EventQueue::grow_heap(std::size_t entries) {
  const std::size_t capacity =
      std::max({std::size_t{64}, 2 * (heap_capacity_ + kHeapPad), entries + kHeapPad});
  auto* fresh = static_cast<Entry*>(
      ::operator new[](capacity * sizeof(Entry), std::align_val_t{kLineBytes}));
  std::copy_n(heap_, heap_size_, fresh + kHeapPad);
  heap_storage_.reset(fresh);
  heap_ = fresh + kHeapPad;
  heap_capacity_ = capacity - kHeapPad;
}

void EventQueue::far_push(std::uint32_t i) noexcept {
  const Node& n = node(i);
  sift_up(heap_size_++, Entry{Time::picoseconds(n.at), (n.word & ~kLinkMask) | i});
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
