// Wait-free FAA array queue — the exact concurrent scheduler (paper §4).
//
// Stand-in for the "Wait-free queue as fast as fetch-and-add" of Yang &
// Mellor-Crummey [27]. The paper's exact executor loads all n tasks in
// priority order up front and only ever dequeues afterwards (stragglers
// backoff-wait rather than re-insert), so the queue degenerates to a
// ticket dispenser over the priority-sorted task array: one wait-free
// fetch_add per dequeue, which is precisely the fast path of [27] and its
// contention profile. (A general-purpose MPMC ring such as Vyukov's also
// works here, but its CAS retry loop storms under a 24-thread dequeue-only
// load, which distorts the exact-scheduler series of Figure 2; the
// dispenser is the honest baseline.)
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/padded.h"

namespace relax::sched {

template <typename T>
class FaaArrayQueue {
 public:
  FaaArrayQueue() = default;
  explicit FaaArrayQueue(std::vector<T> items) : items_(std::move(items)) {}

  FaaArrayQueue(const FaaArrayQueue&) = delete;
  FaaArrayQueue& operator=(const FaaArrayQueue&) = delete;

  /// Single-threaded setup: replaces the backing array and resets the
  /// cursor. Must not race with try_dequeue.
  void load(std::vector<T> items) {
    items_ = std::move(items);
    next_->store(0, std::memory_order_release);
  }

  /// Wait-free: one fetch_add. nullopt once every item has been dispensed.
  std::optional<T> try_dequeue() {
    const std::size_t idx = next_->fetch_add(1, std::memory_order_acq_rel);
    if (idx >= items_.size()) return std::nullopt;
    return items_[idx];
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return items_.size();
  }

  /// Items not yet dispensed (racy snapshot; exact when quiescent).
  [[nodiscard]] std::size_t size_approx() const noexcept {
    const std::size_t n = next_->load(std::memory_order_acquire);
    return n < items_.size() ? items_.size() - n : 0;
  }

 private:
  std::vector<T> items_;
  util::Padded<std::atomic<std::size_t>> next_{0};
};

}  // namespace relax::sched
