// A FIFO on one vector and a head index, for the packet path's queues: the
// DrainQueue lanes and propagating packets, the OCS's in-flight packets and
// the ToR ingress hop.
//
// A pop only advances the head, so the element it returns stays readable
// until the next push; a push first erases the consumed prefix once that
// is half the storage.  An empty FIFO allocates nothing, and one that has
// reached its peak length allocates nothing more.
#ifndef XDRS_UTIL_FIFO_HPP
#define XDRS_UTIL_FIFO_HPP

#include <cstddef>
#include <utility>
#include <vector>

namespace xdrs::util {

template <class T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size() - head_; }

  /// Oldest and newest elements; the FIFO must not be empty.
  [[nodiscard]] T& front() noexcept { return items_[head_]; }
  [[nodiscard]] T& back() noexcept { return items_.back(); }

  /// Appends an element built from `args` and returns it.
  template <class... Args>
  T& push(Args&&... args) {
    if (head_ != 0 && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return items_.emplace_back(std::forward<Args>(args)...);
  }

  /// Removes the oldest element and returns it, readable until the next
  /// push.  The FIFO must not be empty.
  const T& pop_front() noexcept { return items_[head_++]; }

  /// Removes the newest element.  The FIFO must not be empty.
  void pop_back() noexcept { items_.pop_back(); }

 private:
  std::vector<T> items_;
  std::size_t head_{0};
};

}  // namespace xdrs::util

#endif  // XDRS_UTIL_FIFO_HPP
