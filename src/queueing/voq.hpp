// Virtual Output Queues — the buffering stage of the processing logic.
//
// An N-port input-queued switch keeps, at each input, one FIFO per output
// ("VOQ") so that a blocked head-of-line packet for one output never stalls
// traffic to another.  The bank tracks byte/packet occupancy exactly and
// records *peak* occupancy, which is the quantity Figure 1 of the paper is
// about: the peak decides whether buffers fit in a ToR switch (kilobytes,
// fast scheduling) or must live in the hosts (gigabytes, slow scheduling).
//
// Storage is one node pool per bank, not a container per VOQ: a 128-port
// bank has 16,384 VOQs, nearly all short or empty, and every packet passes
// through one.  A node is a packet's bytes and a 4-byte link, in
// fixed-size chunks that are never reallocated and are left unconstructed
// until a packet is copied in, so growing the pool writes nothing and moves
// nothing.  The links (the next node of a VOQ, or of the LIFO free list
// that dequeued nodes go on) live apart from the packets, in an array of
// `uint32_t` at the end of each chunk, so appending to a VOQ or taking a
// free node touches that array and not the cold packet behind the link.
// A VOQ is then just {head, tail, count, bytes}:
// building a bank allocates its cell array and nothing per VOQ, the pool
// grows only to the bank's peak occupancy, and steady-state
// enqueue/dequeue allocates nothing.
//
// `dequeue` hands back a pointer to the packet in its node, which is not
// overwritten until a later enqueue reuses that node, and it prefetches the
// VOQ's next head, whose service is usually the next thing asked of it.
#ifndef XDRS_QUEUEING_VOQ_HPP
#define XDRS_QUEUEING_VOQ_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "net/packet.hpp"

namespace xdrs::queueing {

/// Buffer-admission limits.  A value of 0 means "unlimited".
struct VoqLimits {
  std::int64_t max_bytes_per_voq{0};
  std::int64_t max_packets_per_voq{0};
  std::int64_t shared_buffer_bytes{0};  ///< across all VOQs of the bank
};

/// VOQ status transitions reported to the request generator.
enum class VoqStatus : std::uint8_t {
  kBecameNonEmpty,  ///< 0 -> >0 packets: emit a scheduling request
  kBecameEmpty,     ///< >0 -> 0 packets: demand for this pair vanished
};

/// Drop/occupancy counters for one bank.
struct VoqBankStats {
  std::uint64_t enqueued_packets{0};
  std::uint64_t dequeued_packets{0};
  std::uint64_t dropped_packets{0};
  std::int64_t dropped_bytes{0};
  std::int64_t peak_total_bytes{0};
};

/// A bank of `inputs x outputs` VOQs with exact occupancy accounting.
class VoqBank {
 public:
  using StatusCallback = std::function<void(net::PortId input, net::PortId output, VoqStatus)>;

  VoqBank(std::uint32_t inputs, std::uint32_t outputs, VoqLimits limits = {});

  [[nodiscard]] std::uint32_t inputs() const noexcept { return inputs_; }
  [[nodiscard]] std::uint32_t outputs() const noexcept { return outputs_; }

  /// Invoked on kBecameNonEmpty / kBecameEmpty transitions.
  void set_status_callback(StatusCallback cb) { status_cb_ = std::move(cb); }

  /// Admits `p` to VOQ(input, p.dst).  Returns false (and counts a drop)
  /// when an admission limit would be exceeded.
  bool enqueue(net::PortId input, const net::Packet& p);

  /// Removes the head-of-line packet of VOQ(input, output) and returns it,
  /// or null when that VOQ is empty.  The packet stays readable, whatever
  /// else is dequeued meanwhile, until the bank's next enqueue.
  const net::Packet* dequeue(net::PortId input, net::PortId output);

  /// Head-of-line packet without removal; the pointer stays valid until
  /// that packet is dequeued, whatever else the bank admits meanwhile.
  [[nodiscard]] const net::Packet* peek(net::PortId input, net::PortId output) const;

  [[nodiscard]] std::int64_t bytes(net::PortId input, net::PortId output) const;
  [[nodiscard]] std::size_t packets(net::PortId input, net::PortId output) const;
  [[nodiscard]] bool empty(net::PortId input, net::PortId output) const;

  /// Occupancy across all VOQs sharing input `input` (a host's buffer in
  /// host-buffered mode).
  [[nodiscard]] std::int64_t input_bytes(net::PortId input) const;
  [[nodiscard]] std::int64_t peak_input_bytes(net::PortId input) const;

  /// Whole-bank occupancy (the ToR buffer in switch-buffered mode).
  [[nodiscard]] std::int64_t total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::int64_t total_packets() const noexcept { return total_packets_; }

  [[nodiscard]] const VoqBankStats& stats() const noexcept { return stats_; }

  /// Longest queue (bytes) over the whole bank; used by max-weight tests.
  [[nodiscard]] std::int64_t max_voq_bytes() const;

  /// Resets peak-occupancy water marks (not the queues themselves); used to
  /// measure steady-state peaks after warm-up.
  void reset_peaks() noexcept;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::uint32_t kChunkNodes = 256;

  /// kChunkNodes nodes: raw storage for their packets, on a cache-line
  /// boundary so that each 96-byte packet spans two lines, never three,
  /// and after it their links.
  struct alignas(64) Chunk {
    std::byte packets[kChunkNodes * sizeof(net::Packet)];
    /// Per node: the next node of its VOQ (unset on a tail, which is never
    /// followed) or of the free list.
    std::uint32_t next[kChunkNodes];
  };
  struct Cell {
    std::uint32_t head{kNil};
    std::uint32_t tail{kNil};
    std::uint32_t count{0};
    std::int64_t bytes{0};
  };

  [[nodiscard]] Cell& cell(net::PortId input, net::PortId output);
  [[nodiscard]] const Cell& cell(net::PortId input, net::PortId output) const;
  void check_ports(net::PortId input, net::PortId output) const;

  [[nodiscard]] net::Packet* slot(std::uint32_t i) const noexcept {
    return reinterpret_cast<net::Packet*>(chunks_[i / kChunkNodes]->packets +
                                          i % kChunkNodes * sizeof(net::Packet));
  }
  [[nodiscard]] std::uint32_t& next(std::uint32_t i) const noexcept {
    return chunks_[i / kChunkNodes]->next[i % kChunkNodes];
  }
  /// The packet in node `i`, which an enqueue has constructed.
  [[nodiscard]] const net::Packet& packet(std::uint32_t i) const noexcept {
    return *std::launder(slot(i));
  }
  /// A free node: the free list's head, else a fresh one (adding a chunk
  /// when the last is full).
  std::uint32_t acquire_node();

  std::uint32_t inputs_;
  std::uint32_t outputs_;
  VoqLimits limits_;
  std::vector<Cell> cells_;                      // row-major [input][output]
  std::vector<std::unique_ptr<Chunk>> chunks_;  // the node pool
  std::uint32_t nodes_{0};                       // nodes handed out so far
  std::uint32_t free_head_{kNil};
  std::vector<std::int64_t> input_bytes_;        // per-input occupancy
  std::vector<std::int64_t> input_peaks_;        // per-input high-water mark
  std::int64_t total_bytes_{0};
  std::int64_t total_packets_{0};
  VoqBankStats stats_;
  StatusCallback status_cb_;
};

}  // namespace xdrs::queueing

#endif  // XDRS_QUEUEING_VOQ_HPP
