// D-ary min-heap. The scheduler substrate's workhorse: 4-ary heaps have
// shallower trees and better cache behaviour than binary heaps for the
// pop-heavy access pattern of priority schedulers.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace relax::sched {

template <typename T, unsigned D = 4, typename Compare = std::less<T>>
class DaryHeap {
  static_assert(D >= 2, "heap arity must be at least 2");

 public:
  DaryHeap() = default;
  explicit DaryHeap(Compare cmp) : cmp_(std::move(cmp)) {}

  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  /// Smallest element. Precondition: !empty().
  [[nodiscard]] const T& top() const noexcept {
    assert(!data_.empty());
    return data_.front();
  }

  void push(T value) {
    data_.push_back(std::move(value));
    sift_up(data_.size() - 1);
  }

  T pop() {
    assert(!data_.empty());
    T out = std::move(data_.front());
    data_.front() = std::move(data_.back());
    data_.pop_back();
    if (!data_.empty()) sift_down(0);
    return out;
  }

  void clear() noexcept { data_.clear(); }
  void reserve(std::size_t n) { data_.reserve(n); }

  /// Hands over the backing array (in heap order, not sorted) and leaves
  /// the heap empty: lets an owner move every element out in O(1).
  [[nodiscard]] std::vector<T> release() noexcept {
    return std::exchange(data_, {});
  }

 private:
  void sift_up(std::size_t i) noexcept {
    while (i > 0) {
      const std::size_t parent = (i - 1) / D;
      if (!cmp_(data_[i], data_[parent])) break;
      std::swap(data_[i], data_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) noexcept {
    const std::size_t n = data_.size();
    for (;;) {
      const std::size_t first_child = i * D + 1;
      if (first_child >= n) return;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + D, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c)
        if (cmp_(data_[c], data_[best])) best = c;
      if (!cmp_(data_[best], data_[i])) return;
      std::swap(data_[i], data_[best]);
      i = best;
    }
  }

  std::vector<T> data_;
  Compare cmp_;
};

}  // namespace relax::sched
