#include "queueing/voq.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

namespace xdrs::queueing {

// Nodes are raw bytes: a packet is copied in without ever being destroyed.
static_assert(std::is_trivially_copyable_v<net::Packet> &&
              std::is_trivially_destructible_v<net::Packet>);

VoqBank::VoqBank(std::uint32_t inputs, std::uint32_t outputs, VoqLimits limits)
    : inputs_{inputs},
      outputs_{outputs},
      limits_{limits},
      cells_(static_cast<std::size_t>(inputs) * outputs),
      input_bytes_(inputs, 0),
      input_peaks_(inputs, 0) {
  if (inputs == 0 || outputs == 0) {
    throw std::invalid_argument{"VoqBank: ports must be >= 1"};
  }
}

VoqBank::Cell& VoqBank::cell(net::PortId input, net::PortId output) {
  return cells_[static_cast<std::size_t>(input) * outputs_ + output];
}

const VoqBank::Cell& VoqBank::cell(net::PortId input, net::PortId output) const {
  return cells_[static_cast<std::size_t>(input) * outputs_ + output];
}

std::uint32_t VoqBank::acquire_node() {
  if (free_head_ != kNil) {
    const std::uint32_t i = free_head_;
    free_head_ = next(i);
    return i;
  }
  if (nodes_ == kNil) throw std::length_error{"VoqBank: node pool exhausted"};
  if (nodes_ % kChunkNodes == 0) chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
  return nodes_++;
}

void VoqBank::check_ports(net::PortId input, net::PortId output) const {
  if (input >= inputs_ || output >= outputs_) {
    throw std::out_of_range{"VoqBank: port index out of range"};
  }
}

bool VoqBank::enqueue(net::PortId input, const net::Packet& p) {
  check_ports(input, p.dst);
  Cell& c = cell(input, p.dst);

  const bool over_voq_bytes =
      limits_.max_bytes_per_voq > 0 && c.bytes + p.size_bytes > limits_.max_bytes_per_voq;
  const bool over_voq_packets =
      limits_.max_packets_per_voq > 0 &&
      static_cast<std::int64_t>(c.count) + 1 > limits_.max_packets_per_voq;
  const bool over_shared =
      limits_.shared_buffer_bytes > 0 && total_bytes_ + p.size_bytes > limits_.shared_buffer_bytes;
  if (over_voq_bytes || over_voq_packets || over_shared) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += p.size_bytes;
    return false;
  }

  const std::uint32_t n = acquire_node();
  ::new (slot(n)) net::Packet(p);  // its link is set when a later packet joins this VOQ
  const bool was_empty = c.count == 0;
  if (was_empty) {
    c.head = n;
  } else {
    next(c.tail) = n;
  }
  c.tail = n;
  ++c.count;
  c.bytes += p.size_bytes;
  input_bytes_[input] += p.size_bytes;
  input_peaks_[input] = std::max(input_peaks_[input], input_bytes_[input]);
  total_bytes_ += p.size_bytes;
  ++total_packets_;
  stats_.peak_total_bytes = std::max(stats_.peak_total_bytes, total_bytes_);
  ++stats_.enqueued_packets;

  if (was_empty && status_cb_) status_cb_(input, p.dst, VoqStatus::kBecameNonEmpty);
  return true;
}

const net::Packet* VoqBank::dequeue(net::PortId input, net::PortId output) {
  check_ports(input, output);
  Cell& c = cell(input, output);
  if (c.count == 0) return nullptr;

  const std::uint32_t n = c.head;
  const net::Packet& p = packet(n);
  c.head = next(n);
  next(n) = free_head_;
  free_head_ = n;
  if (--c.count != 0) {
    // The next head's two lines, for whoever serves this VOQ next.
    const auto* line = reinterpret_cast<const char*>(slot(c.head));
    __builtin_prefetch(line);
    __builtin_prefetch(line + sizeof(net::Packet) - 1);
  }
  c.bytes -= p.size_bytes;
  input_bytes_[input] -= p.size_bytes;
  total_bytes_ -= p.size_bytes;
  --total_packets_;
  ++stats_.dequeued_packets;

  if (c.count == 0 && status_cb_) status_cb_(input, output, VoqStatus::kBecameEmpty);
  return &p;
}

const net::Packet* VoqBank::peek(net::PortId input, net::PortId output) const {
  check_ports(input, output);
  const Cell& c = cell(input, output);
  return c.count == 0 ? nullptr : &packet(c.head);
}

std::int64_t VoqBank::bytes(net::PortId input, net::PortId output) const {
  check_ports(input, output);
  return cell(input, output).bytes;
}

std::size_t VoqBank::packets(net::PortId input, net::PortId output) const {
  check_ports(input, output);
  return cell(input, output).count;
}

bool VoqBank::empty(net::PortId input, net::PortId output) const {
  check_ports(input, output);
  return cell(input, output).count == 0;
}

std::int64_t VoqBank::input_bytes(net::PortId input) const {
  if (input >= inputs_) throw std::out_of_range{"VoqBank::input_bytes"};
  return input_bytes_[input];
}

std::int64_t VoqBank::peak_input_bytes(net::PortId input) const {
  if (input >= inputs_) throw std::out_of_range{"VoqBank::peak_input_bytes"};
  return input_peaks_[input];
}

std::int64_t VoqBank::max_voq_bytes() const {
  std::int64_t best = 0;
  for (const Cell& c : cells_) best = std::max(best, c.bytes);
  return best;
}

void VoqBank::reset_peaks() noexcept {
  stats_.peak_total_bytes = total_bytes_;
  for (std::uint32_t i = 0; i < inputs_; ++i) input_peaks_[i] = input_bytes_[i];
}

}  // namespace xdrs::queueing
