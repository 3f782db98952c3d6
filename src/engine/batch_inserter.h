// Batched admission into a live scheduler.
//
// Loading a job's n initial keys one handle.insert() at a time pays a
// sub-queue lock + heap sift per key — measurable at admission rates of
// many jobs per second. BatchInserter buffers keys and flushes them
// through sched::insert_batch — the backend's native batched insert where
// one exists (the MultiQueue's chunked sorted merge, the lock-free list's
// CAS-spliced run, the SprayList's one-descent forward-linked run, one
// lock acquisition for LockedScheduler adapters), per-label inserts
// elsewhere. The RelaxedJob's re-insertion buffer drains through
// the same primitive, so admission and re-insertion share one batched
// insert path.
//
// The flush target is *live*: pops and inserts from other workers may be in
// flight, which is what lets the engine overlap a job's admission with its
// execution (and with other jobs entirely).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sched/scheduler.h"

namespace relax::engine {

template <typename Handle>
class BatchInserter {
 public:
  using Key = sched::key_type<Handle>;

  explicit BatchInserter(Handle& handle, std::size_t capacity = 1024)
      : handle_(&handle), capacity_(capacity == 0 ? 1 : capacity) {
    buffer_.reserve(capacity_);
  }

  ~BatchInserter() { flush(); }

  BatchInserter(const BatchInserter&) = delete;
  BatchInserter& operator=(const BatchInserter&) = delete;

  void push(Key key) {
    buffer_.push_back(key);
    if (buffer_.size() >= capacity_) flush();
  }

  void flush() {
    if (buffer_.empty()) return;
    sched::insert_batch(*handle_, std::span<const Key>(buffer_));
    buffer_.clear();
  }

 private:
  Handle* handle_;
  std::size_t capacity_;
  std::vector<Key> buffer_;
};

}  // namespace relax::engine
