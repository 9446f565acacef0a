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
//     framework's largest captures, a flow generator's continuation (about
//     80 bytes of per-flow state) and a slotted decision's matching.  No
//     event carries a packet: each hop keeps its packets in a FIFO of its
//     own, so a packet event captures `this` and a port, which shares the
//     ops pointer's cache line.  A smaller buffer would not pay: the
//     benchmark workloads keep about 50-90 events pending, a slab of about
//     12 KB.  Larger captures, or ones that may throw on move, allocate;
//   - callbacks are constructed straight into a slab of fixed-size chunks
//     that is never reallocated; freed slots are reused, so the slab only
//     grows to the peak pending depth.  Each chunk keeps, apart from its
//     line-aligned callbacks, a 16-byte node per slot: the event's time and
//     one word holding its seq and the link to the next slot of its list.
//     Four nodes share a cache line, so cancelling an event, or walking a
//     list past it, never reads a callback's line;
//   - the order is kept by a calendar queue (Brown, CACM 1988) that fires
//     in exactly the (time, seq) order.  Time is cut into buckets of 2^shift
//     ps.  The wheel holds the buckets from the cursor's on, each a list of
//     nodes sorted by (time, seq) with a head and a tail, and a bitmap (with
//     a summary word per 4,096 buckets) finds the next non-empty one.  Taking
//     the head is O(1): nothing sifts.  A push lands at its bucket's tail
//     unless it is earlier than the tail, and then walks the list;
//   - events beyond the wheel's span wait in a far set, a 4-ary heap of
//     16-byte {time, seq << 24 | slot} entries whose four children fill one
//     cache line, and move onto the wheel as the cursor reaches them;
//   - the bucket width and count are derived from the pending events and
//     never configured.  A rebuild sets the width to the mean gap between
//     the earliest quarter of the pending times and the count to span seven
//     eighths of them.  It runs when the pending count doubles, and when a
//     window of pushes walked more than one list node per push or sent more
//     than one in eight to the far set.  The first push allocates the wheel,
//     its bucket array untouched until used, at a 1 ps width that stands
//     until kFirstBuild events are pending or the first window ends.
//
// The cursor moves only when the head is looked for, and never past the
// horizon that stopped `fire_next`, so a callback, or a simulator resuming
// at its horizon, schedules at or after it.  A push behind the cursor (a
// queue driven directly with earlier times) moves the cursor back and sends
// the buckets that leave the span to the far set.
//
// Events kept outside the queue (the simulator's delay lines) take their
// seqs from the same counter with `take_seq`, and `fire_before` fires the
// head only if it precedes such an event's (time, seq).  Most of those
// calls are answered by a cached lower bound on the head's time: a push
// lowers it, and a look for the head raises it to the head's time.
//
// Limits, from the node's layout: fewer than 2^24 events pending at once,
// and at most 2^40 - 1 seqs (pushes and take_seq calls) over a queue's
// lifetime.  Exceeding either throws std::length_error.
//
// Firing is in place: `fire_next` takes the head out of the queue and calls
// its callback inside the slot it was constructed in, then frees the slot.
// While the callback runs its slot matches no EventId (so cancelling the
// running event returns false), is not counted by `size()` and is not on
// the free list; it is freed when the callback returns or throws.
//
// Cancellation is generation-checked: an EventId names its slot and the
// sequence number the slot must still hold, so `cancel` starts with an
// O(1) compare.  A wheel event is then unlinked from its bucket (a walk from
// the bucket's head) and its slot freed at once.  A far-set event's slot is
// freed too, but its heap entry stays behind and is dropped when it
// surfaces, which costs little because schedulers cancel far fewer events
// than they schedule.
#ifndef XDRS_SIM_EVENT_QUEUE_HPP
#define XDRS_SIM_EVENT_QUEUE_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
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

/// Exact-order calendar queue of timestamped callbacks with stable FIFO
/// tie-breaking.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts callable `f` (a lambda, functor or Callback) to fire at
  /// absolute time `at`.  O(1) into the wheel, plus a walk past the later
  /// events of its bucket; O(log n) into the far set.  The callable is
  /// constructed straight into its slot.
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

  /// Removes an event from the live set and frees its slot at once.  A
  /// wheel entry is unlinked from its bucket; a far-set entry is dropped
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
  /// `horizon`: takes it out of the queue, calls `on_fire(at, seq)` with its
  /// timestamp and seq, then calls the event's callback in place.  The slot is
  /// freed (and the callable destroyed) when the callback returns or
  /// throws.  Returns false, doing nothing, when no such event exists.
  template <class OnFire>
  bool fire_next(Time horizon, OnFire&& on_fire) {
    const std::uint32_t i = head_until(horizon.ps());
    if (i == kNone) return false;
    fire(i, on_fire);
    return true;
  }

  /// Like fire_next, but fires the earliest live event only if it precedes
  /// the key (`at`, `seq`) of an event kept outside the queue, which must
  /// be a seq taken with take_seq.  A cached lower bound on the head's time
  /// answers most calls where that key comes first without a seek.
  template <class OnFire>
  bool fire_before(Time at, std::uint64_t seq, OnFire&& on_fire) {
    if (low_ > at.ps()) return false;
    const std::uint32_t i = head_until(at.ps());
    if (i == kNone || (node(i).at == at.ps() && node(i).word >> kLinkBits > seq)) return false;
    fire(i, on_fire);
    return true;
  }

  /// Takes the next seq without pushing an event, for an event kept outside
  /// the queue that must fire in its place among the queue's events.
  std::uint64_t take_seq() {
    if (next_seq_ == kSeqLimit) throw std::length_error{"EventQueue: 2^40 pushes exhausted"};
    return next_seq_++;
  }

  /// Seqs handed out so far, by pushes and take_seq.  Seqs count from 1, so
  /// the next one is total_pushed() + 1.
  [[nodiscard]] std::uint64_t total_pushed() const noexcept { return next_seq_ - 1; }

 private:
  /// Per slot: the event's time and one word, seq << kLinkBits | link.  A
  /// pending event holds its seq and the next slot of its bucket list
  /// (kNone at the tail, and in the far set); a free slot holds seq 0 and
  /// the next free slot; a running one seq 0.  Seqs start at 1, so only a
  /// pending event's word matches an EventId.
  struct Node {
    std::int64_t at;
    std::uint64_t word;
  };
  static_assert(sizeof(Node) == 16);

  /// Far-set heap entry.  Live iff its slot's word still holds its seq.
  struct Entry {
    Time at;
    std::uint64_t key;  // seq << kLinkBits | slot
  };
  static_assert(sizeof(Entry) == 16);

  /// A wheel bucket's list, valid while its bitmap bit is set.
  struct Bucket {
    std::uint32_t head;
    std::uint32_t tail;
  };

  static constexpr unsigned kLinkBits = 24;
  static constexpr std::uint64_t kLinkMask = (std::uint64_t{1} << kLinkBits) - 1;
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(kLinkMask);  // no slot
  static constexpr std::uint64_t kMaxSlots = kLinkMask;  // slots 0 .. kNone - 1
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << (64 - kLinkBits);
  static constexpr std::uint32_t kChunkSlots = 256;
  /// The first push builds a wheel of kMinBuckets 1-ps buckets; the width
  /// is first derived once this many events are pending, or sooner if the
  /// first window of pushes shows the 1 ps width wrong.
  static constexpr std::size_t kFirstBuild = 32;
  static constexpr std::size_t kMinBuckets = 64;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 14;
  /// The root sits at storage index kHeapPad, so the children 4i+1..4i+4 of
  /// every node i start on a multiple of 4 entries: one 64-byte line.
  static constexpr std::size_t kHeapPad = 3;
  static constexpr std::size_t kLineBytes = 64;

  struct Chunk {
    Node node[kChunkSlots];
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
    return static_cast<std::uint32_t>(key & kLinkMask);
  }
  [[nodiscard]] static std::uint32_t next_of(const Node& n) noexcept { return slot_of(n.word); }
  static void set_next(Node& n, std::uint32_t next) noexcept {
    n.word = (n.word & ~kLinkMask) | next;
  }
  [[nodiscard]] Node& node(std::uint32_t i) noexcept {
    return chunks_[i / kChunkSlots]->node[i % kChunkSlots];
  }
  [[nodiscard]] const Node& node(std::uint32_t i) const noexcept {
    return chunks_[i / kChunkSlots]->node[i % kChunkSlots];
  }
  [[nodiscard]] Callback& callback(std::uint32_t i) noexcept {
    return chunks_[i / kChunkSlots]->cb[i % kChunkSlots];
  }
  [[nodiscard]] bool live(const Entry& e) const noexcept {
    return node(slot_of(e.key)).word >> kLinkBits == e.key >> kLinkBits;
  }

  /// Whether absolute bucket `b`, at or after the cursor's, is on the wheel.
  [[nodiscard]] bool in_span(std::int64_t b) const noexcept {
    return static_cast<std::uint64_t>(b) - static_cast<std::uint64_t>(cur_) < nb_;
  }
  [[nodiscard]] bool occupied(std::size_t b) const noexcept {
    return (bits_[b / 64] >> (b % 64) & 1) != 0;
  }

  /// The slot of the earliest live event if it is stamped at or before
  /// `horizon`, else kNone.  Moves the cursor to the head's bucket, or up to
  /// the horizon's when the head lies beyond it; the head's time, found
  /// either way, becomes the lower bound.
  [[nodiscard]] std::uint32_t head_until(std::int64_t horizon) {
    if (live_ == 0) return kNone;
    const std::size_t b = static_cast<std::size_t>(cur_) & (nb_ - 1);
    if (occupied(b)) {
      const std::uint32_t i = buckets_[b].head;
      if (node(i).at <= horizon) return i;
      low_ = node(i).at;
      return kNone;
    }
    return seek_head(horizon);
  }

  /// Takes head slot `i`, as returned by head_until, out of the queue and
  /// calls `on_fire(at, seq)`, then its callback in place.
  template <class OnFire>
  void fire(std::uint32_t i, OnFire& on_fire) {
    const Time at = Time::picoseconds(node(i).at);
    const std::uint64_t seq = node(i).word >> kLinkBits;
    take_head(i);
    const Release release{*this, i};
    on_fire(at, seq);
    callback(i)();
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t i) noexcept;
  /// Enters the callback stored in slot `i` into the queue; returns its id.
  EventId link(Time at, std::uint32_t i);
  /// Puts pending slot `i` on the wheel or in the far set.
  void place(std::uint32_t i) noexcept;
  /// Removes the head, slot `i` as returned by head_until, and marks its
  /// slot running; prefetches the next head's callback.
  void take_head(std::uint32_t i) noexcept;
  /// head_until's path when the cursor's bucket is empty.
  std::uint32_t seek_head(std::int64_t horizon);

  // The wheel.
  /// Rebuilds when the pending count has doubled since the last build, or
  /// when the window of pushes since the last check walked bucket lists or
  /// reached the far set too often; then starts the next window.
  void check_width();
  /// Re-derives the bucket width and count from the pending events and
  /// re-files every event.  Allocates before it changes anything.
  void rebuild();
  /// Moves the cursor forward to absolute bucket `b` if it is ahead, and
  /// pulls the far events the wheel then spans.
  void advance(std::int64_t b) noexcept;
  /// Moves the cursor back to absolute bucket `b`, sending the buckets that
  /// leave the span to the far set.  The far set must have room for them.
  void rewind(std::int64_t b) noexcept;
  /// Links slot `i` into bucket index `b`, keeping the list in (time, seq)
  /// order.
  void insert(std::uint32_t i, std::size_t b) noexcept;
  /// Unlinks pending slot `i` from bucket index `b`.
  void unlink(std::uint32_t i, std::size_t b) noexcept;
  void set_bit(std::size_t b) noexcept;
  void clear_bit(std::size_t b) noexcept;
  /// First occupied bucket index at or after the cursor's, wrapping; nb_
  /// when the wheel is empty.
  [[nodiscard]] std::size_t first_occupied() const noexcept;
  /// First occupied bucket index in [b, nb_), or nb_.
  [[nodiscard]] std::size_t first_occupied_from(std::size_t b) const noexcept;

  // The far set: a 4-ary heap of Entry, whose root is live when non-empty.
  /// Grows the heap to hold at least `entries`.
  void grow_heap(std::size_t entries);
  /// Appends an entry for pending slot `i`.  Precondition: room for it.
  void far_push(std::uint32_t i) noexcept;
  void sift_up(std::size_t i, Entry e) noexcept;
  void remove_root() noexcept;
  /// Removes dead entries from the top so the root, if any, is live.
  void drop_dead_head() noexcept;

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t slots_{0};  // slots handed out so far
  std::uint32_t free_head_{kNone};
  std::size_t live_{0};
  std::uint64_t next_seq_{1};
  std::uint64_t pushes_{0};  // pushes so far; take_seq does not count
  /// No live event is earlier: lowered by pushes, raised to the head's time
  /// by head_until and seek_head; firing and cancelling keep it a bound.
  std::int64_t low_{Time::max().ps()};

  // Wheel state, from the first push on.  Bucket index b holds absolute
  // bucket cur_ + ((b - cur_) mod nb_); an absolute bucket spans times
  // [k << shift_, (k + 1) << shift_).  Invariant: the wheel holds exactly
  // the pending events whose absolute bucket lies in [cur_, cur_ + nb_), and
  // no pending event lies before cur_.
  std::int64_t cur_{0};
  unsigned shift_{0};
  std::size_t nb_{0};
  std::unique_ptr<Bucket[]> buckets_;  // kMaxBuckets, from the first build on
  std::vector<std::uint64_t> bits_;     // bit b: bucket index b is non-empty
  std::vector<std::uint64_t> summary_;  // bit w: bits_[w] is non-zero
  std::size_t rebuild_at_live_{0};  // so the first push builds the wheel
  std::uint64_t check_at_{0};     // pushes_ of the next check_width
  std::uint64_t checked_at_{0};   // pushes_ at the last one
  std::uint64_t walked_{0};       // list steps of inserts since then
  std::uint64_t far_pushes_{0};   // pushes into the far set since then
  std::vector<std::int64_t> times_;   // rebuild scratch
  std::vector<std::uint32_t> order_;  // rebuild scratch

  std::unique_ptr<Entry[], AlignedDelete> heap_storage_;
  Entry* heap_{nullptr};  // heap_storage_ + kHeapPad
  std::size_t heap_size_{0};
  std::size_t heap_capacity_{0};  // entries that fit after the padding
};

}  // namespace xdrs::sim

#endif  // XDRS_SIM_EVENT_QUEUE_HPP
