// Scheduler interfaces (paper §2.1).
//
// A scheduler holds task *priorities*. Priorities in this library are dense
// 32-bit labels assigned by a permutation pi: label 0 is the highest
// priority. Because labels are unique per task and re-insertions reuse the
// original label (paper: Q.insert(v_t, pi(v_t))), the scheduler only needs
// to store the label itself; callers map labels back to tasks through
// graph::Priorities::order.
//
// Sequential schedulers implement:
//   insert(label)              -- paper's Insert(<task, priority>)
//   approx_get_min()           -- paper's ApproxGetMin(); nullopt == bottom
//   empty(), size()
//
// A (k, phi)-relaxed scheduler (Definition 1) additionally promises
// exponential tail bounds on the rank of returned elements (rank bound k)
// and on per-element priority inversions (fairness bound phi). The bounds
// are not enforceable by the type system; tests/sched_quality_test.cc and
// bench/scheduler_quality measure them empirically via RelaxationMonitor.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/spinlock.h"

namespace relax::sched {

using Priority = std::uint32_t;

template <typename S>
concept SequentialScheduler = requires(S s, Priority p) {
  { s.insert(p) } -> std::same_as<void>;
  { s.approx_get_min() } -> std::same_as<std::optional<Priority>>;
  { s.empty() } -> std::convertible_to<bool>;
  { s.size() } -> std::convertible_to<std::size_t>;
};

/// Concurrent schedulers use the same vocabulary but must be safe to call
/// from many threads. approx_get_min() returning nullopt means "observed
/// empty at some point during the call" — with in-flight re-insertions the
/// caller must use its own termination criterion (see core/parallel docs).
template <typename S>
concept ConcurrentScheduler = requires(S s, Priority p) {
  { s.insert(p) } -> std::same_as<void>;
  { s.approx_get_min() } -> std::same_as<std::optional<Priority>>;
};

/// Batched pop over any scheduler-like surface (a scheduler, a handle, a
/// view): appends up to `k` labels to `out` and returns how many were
/// appended; 0 means "observed empty". Uses the target's native
/// approx_get_min_batch when it has one (one coordination round trip for
/// the whole batch — the throughput lever), and degrades to k single pops
/// otherwise, so every backend supports batching with unchanged semantics.
///
/// Relaxation cost: a native batch claims k consecutive minima from ONE
/// sub-structure, so a (k_0)-rank-bounded scheduler serves batch element i
/// at rank O(k_0 + i * q)-ish — the batch-aware Definition 1 envelope is
/// O(k * k_0), not k_0 (see backend_registry.h's batched_rank_bound and
/// tests/sched_quality_test.cc).
///
/// Generic over the key type: framework jobs move 32-bit labels, SSSP moves
/// 64-bit (distance, vertex) keys through the same calls.
template <typename S, typename Key>
std::size_t pop_batch(S& s, std::size_t k, std::vector<Key>& out) {
  if constexpr (requires { s.approx_get_min_batch(k, out); }) {
    return s.approx_get_min_batch(k, out);
  } else {
    std::size_t got = 0;
    while (got < k) {
      const auto p = s.approx_get_min();
      if (!p) break;
      out.push_back(*p);
      ++got;
    }
    return got;
  }
}

/// Batched insert over any scheduler-like surface — the insert-side mirror
/// of pop_batch, so batching is a symmetric whole-system property instead
/// of a pop-only special case. Prefers the target's native insert_batch
/// (one coordination round trip — a sorted-run splice into one
/// sub-structure, or one lock for a serialized adapter), then a live
/// bulk_insert (the MultiQueue's strided append-or-heap deal), and
/// degrades to per-key inserts elsewhere, so every backend accepts batched
/// insertion with unchanged multiset semantics.
///
/// Relaxation cost: inserts carry no rank, so a batched insert never
/// loosens a Definition 1 envelope by itself — it only concentrates the
/// batch in one sub-structure, a transient skew of the same O(k) order the
/// batched pop already charges (see batched_rank_bound and
/// tests/sched_quality_test.cc's batched-insert leg).
template <typename S, typename Key>
void insert_batch(S& s, std::span<const Key> keys) {
  if (keys.size() == 1) {
    // Singleton runs take the plain insert path: a 1-run "batch" would pay
    // the sort/splice machinery for no amortization.
    s.insert(keys.front());
    return;
  }
  if constexpr (requires { s.insert_batch(keys); }) {
    s.insert_batch(keys);
  } else if constexpr (requires { s.bulk_insert(keys); }) {
    s.bulk_insert(keys);
  } else {
    for (const Key key : keys) s.insert(key);
  }
}

/// The key type a scheduler-like surface holds: what its approx_get_min()
/// yields (sched::Priority for every label scheduler, std::uint64_t for
/// SSSP's (distance, vertex) MultiQueue).
template <typename S>
using key_type =
    typename decltype(std::declval<S&>().approx_get_min())::value_type;

/// Base-from-member holder: lets a class own a scheduler that must be
/// constructed before, and destroyed after, a base class that points into
/// it (engine::OwningRelaxedJob, sched::AuditedScheduler).
template <typename T>
struct Owned {
  template <typename... Args>
  explicit Owned(Args&&... args) : owned(std::forward<Args>(args)...) {}
  T owned;
};

/// Adapts any SequentialScheduler into a ConcurrentScheduler by serializing
/// every operation through one spinlock. Deliberately unscalable — the use
/// cases are deterministic schedulers (KBoundedScheduler) and audit wrappers
/// (RelaxationMonitor) inside the concurrent engine, where correctness of
/// the single-threaded structure matters more than throughput.
template <SequentialScheduler S>
class LockedScheduler {
 public:
  template <typename... Args>
  explicit LockedScheduler(Args&&... args)
      : inner_(std::forward<Args>(args)...) {}

  void insert(Priority p) {
    std::lock_guard<util::Spinlock> guard(lock_);
    inner_.insert(p);
  }
  /// Batched insert under ONE lock acquisition — the insert-side twin of
  /// approx_get_min_batch: k inserts cost one lock round trip instead of k.
  void insert_batch(std::span<const Priority> keys) {
    std::lock_guard<util::Spinlock> guard(lock_);
    sched::insert_batch(inner_, keys);
  }
  std::optional<Priority> approx_get_min() {
    std::lock_guard<util::Spinlock> guard(lock_);
    return inner_.approx_get_min();
  }
  /// Batched pop under ONE lock acquisition — for the serialized adapters
  /// this is where batching pays: k pops cost one lock round trip instead
  /// of k.
  std::size_t approx_get_min_batch(std::size_t k, std::vector<Priority>& out) {
    std::lock_guard<util::Spinlock> guard(lock_);
    return pop_batch(inner_, k, out);
  }
  [[nodiscard]] bool empty() const {
    std::lock_guard<util::Spinlock> guard(lock_);
    return inner_.empty();
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<util::Spinlock> guard(lock_);
    return inner_.size();
  }

  /// The wrapped scheduler. Callers must be quiescent (no concurrent ops).
  [[nodiscard]] S& inner() noexcept { return inner_; }

 private:
  mutable util::Spinlock lock_;
  S inner_;
};

}  // namespace relax::sched
