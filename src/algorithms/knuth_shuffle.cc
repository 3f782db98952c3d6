#include "algorithms/knuth_shuffle.h"

#include <numeric>

#include "util/rng.h"

namespace relax::algorithms {

std::vector<std::uint32_t> shuffle_targets(std::uint32_t n,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> t(n);
  for (std::uint32_t i = 0; i < n; ++i)
    t[i] = static_cast<std::uint32_t>(util::uniform_in(rng, 0, i));
  return t;
}

std::vector<std::uint32_t> sequential_knuth_shuffle(
    std::span<const std::uint32_t> targets) {
  std::vector<std::uint32_t> a(targets.size());
  std::iota(a.begin(), a.end(), 0u);
  for (std::uint32_t i = 0; i < targets.size(); ++i)
    std::swap(a[i], a[targets[i]]);
  return a;
}

std::vector<std::uint32_t> sequential_knuth_shuffle(
    std::span<const std::uint32_t> targets, const graph::Priorities& pri) {
  std::vector<std::uint32_t> a(targets.size());
  std::iota(a.begin(), a.end(), 0u);
  for (std::uint32_t label = 0; label < targets.size(); ++label) {
    const std::uint32_t i = pri.order[label];
    std::swap(a[i], a[targets[i]]);
  }
  return a;
}

PositionIndex::PositionIndex(std::span<const std::uint32_t> targets,
                             const graph::Priorities& pri) {
  const auto n = static_cast<std::uint32_t>(targets.size());
  offsets_.assign(n + 1, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    ++offsets_[i + 1];
    if (targets[i] != i) ++offsets_[targets[i] + 1];
  }
  for (std::uint32_t p = 1; p <= n; ++p) offsets_[p] += offsets_[p - 1];
  tasks_.resize(offsets_[n]);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  // Inserting in ascending label order keeps each position's list sorted by
  // label, which is the order conflicts must resolve in (framework §2.2).
  for (std::uint32_t label = 0; label < n; ++label) {
    const std::uint32_t i = pri.order[label];
    tasks_[cursor[i]++] = i;
    if (targets[i] != i) tasks_[cursor[targets[i]]++] = i;
  }
}

KnuthShuffleProblem::KnuthShuffleProblem(
    std::span<const std::uint32_t> targets, const PositionIndex& index)
    : targets_(targets),
      index_(&index),
      array_(targets.size()),
      processed_(targets.size(), 0),
      head_(index.num_positions(), 0) {
  std::iota(array_.begin(), array_.end(), 0u);
}

bool KnuthShuffleProblem::is_min_unprocessed(core::Task i,
                                             std::uint32_t pos) {
  const auto tasks = index_->tasks_at(pos);
  std::uint32_t h = head_[pos];
  while (h < tasks.size() && processed_[tasks[h]]) ++h;
  head_[pos] = h;
  // i itself is unprocessed and in the list, so h indexes a task <= i.
  return h < tasks.size() && tasks[h] == i;
}

core::Outcome KnuthShuffleProblem::try_process(core::Task i) {
  if (!is_min_unprocessed(i, i)) return core::Outcome::kNotReady;
  if (targets_[i] != i && !is_min_unprocessed(i, targets_[i]))
    return core::Outcome::kNotReady;
  std::swap(array_[i], array_[targets_[i]]);
  processed_[i] = 1;
  return core::Outcome::kProcessed;
}

AtomicKnuthShuffleProblem::AtomicKnuthShuffleProblem(
    std::span<const std::uint32_t> targets, const PositionIndex& index)
    : targets_(targets),
      index_(&index),
      array_(targets.size()),
      processed_(targets.size()),
      head_(index.num_positions()) {
  std::iota(array_.begin(), array_.end(), 0u);
  for (auto& p : processed_) p.store(0, std::memory_order_relaxed);
  for (auto& h : head_) h.store(0, std::memory_order_relaxed);
}

bool AtomicKnuthShuffleProblem::is_min_unprocessed(core::Task i,
                                                   std::uint32_t pos) {
  const auto tasks = index_->tasks_at(pos);
  // Acquire: a cursor past task j stands in for j's processed flag, so it
  // must carry j's swap with it (the advancing thread read that flag with
  // acquire and publishes the cursor with release below).
  std::uint32_t h = head_[pos].load(std::memory_order_acquire);
  while (h < tasks.size() &&
         processed_[tasks[h]].load(std::memory_order_acquire)) {
    ++h;
  }
  // Monotonic cursor advance: harmless if several threads race, the cursor
  // only skips tasks that are already processed.
  std::uint32_t cur = head_[pos].load(std::memory_order_relaxed);
  while (cur < h && !head_[pos].compare_exchange_weak(
                        cur, h, std::memory_order_release,
                        std::memory_order_relaxed)) {
  }
  return h < tasks.size() && tasks[h] == i;
}

core::Outcome AtomicKnuthShuffleProblem::try_process(core::Task i) {
  if (!is_min_unprocessed(i, i)) return core::Outcome::kNotReady;
  if (targets_[i] != i && !is_min_unprocessed(i, targets_[i]))
    return core::Outcome::kNotReady;
  // Readiness in both position lists gives this thread exclusive ownership
  // of array_[i] and array_[t[i]] (every other task touching them is either
  // processed, or blocked behind i). The acquire loads above order the
  // previous owners' swaps before ours.
  std::swap(array_[i], array_[targets_[i]]);
  processed_[i].store(1, std::memory_order_release);
  return core::Outcome::kProcessed;
}

std::vector<std::uint32_t> AtomicKnuthShuffleProblem::array() const {
  return array_;
}

}  // namespace relax::algorithms
