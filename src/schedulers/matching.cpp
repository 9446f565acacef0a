#include "schedulers/matching.hpp"

#include <stdexcept>

namespace xdrs::schedulers {

Matching::Matching(std::uint32_t inputs, std::uint32_t outputs)
    : out_of_(inputs, kUnmatched), in_of_(outputs, kUnmatched) {}

void Matching::match(net::PortId i, net::PortId j) {
  if (i >= out_of_.size() || j >= in_of_.size()) {
    throw std::out_of_range{"Matching::match: port out of range"};
  }
  if (out_of_[i] == j) return;  // already paired exactly so
  if (out_of_[i] != kUnmatched || in_of_[j] != kUnmatched) {
    throw std::logic_error{"Matching::match: conflicting pair"};
  }
  out_of_[i] = j;
  in_of_[j] = i;
  ++matched_;
}

void Matching::assign_permutation(std::span<const std::uint32_t> permutation) {
  const auto n = static_cast<std::uint32_t>(permutation.size());
  out_of_.assign(permutation.begin(), permutation.end());
  in_of_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) in_of_[permutation[i]] = i;
  matched_ = n;
}

void Matching::unmatch_input(net::PortId i) {
  if (i >= out_of_.size()) throw std::out_of_range{"Matching::unmatch_input"};
  if (out_of_[i] == kUnmatched) return;
  in_of_[out_of_[i]] = kUnmatched;
  out_of_[i] = kUnmatched;
  --matched_;
}

std::optional<net::PortId> Matching::output_of(net::PortId input) const {
  if (input >= out_of_.size()) throw std::out_of_range{"Matching::output_of"};
  if (out_of_[input] == kUnmatched) return std::nullopt;
  return net::PortId{out_of_[input]};
}

std::optional<net::PortId> Matching::input_of(net::PortId output) const {
  if (output >= in_of_.size()) throw std::out_of_range{"Matching::input_of"};
  if (in_of_[output] == kUnmatched) return std::nullopt;
  return net::PortId{in_of_[output]};
}

bool Matching::input_matched(net::PortId input) const {
  if (input >= out_of_.size()) throw std::out_of_range{"Matching::input_matched"};
  return out_of_[input] != kUnmatched;
}

bool Matching::output_matched(net::PortId output) const {
  if (output >= in_of_.size()) throw std::out_of_range{"Matching::output_matched"};
  return in_of_[output] != kUnmatched;
}

bool Matching::is_perfect() const noexcept {
  return matched_ == out_of_.size() && matched_ == in_of_.size();
}

void Matching::clear() noexcept {
  std::fill(out_of_.begin(), out_of_.end(), kUnmatched);
  std::fill(in_of_.begin(), in_of_.end(), kUnmatched);
  matched_ = 0;
}

void Matching::reset(std::uint32_t inputs, std::uint32_t outputs) {
  if (out_of_.size() == inputs && in_of_.size() == outputs) {
    clear();
    return;
  }
  out_of_.assign(inputs, kUnmatched);
  in_of_.assign(outputs, kUnmatched);
  matched_ = 0;
}

std::string Matching::to_string() const {
  std::string s = "{";
  bool first = true;
  for_each_pair([&](net::PortId i, net::PortId j) {
    if (!first) s += ", ";
    first = false;
    s += std::to_string(i) + ">" + std::to_string(j);
  });
  s += "}";
  return s;
}

Matching Matching::rotation(std::uint32_t ports, std::uint32_t shift) {
  Matching m{ports};
  for (std::uint32_t i = 0; i < ports; ++i) m.match(i, (i + shift) % ports);
  return m;
}

}  // namespace xdrs::schedulers
