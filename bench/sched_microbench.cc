// Experiment E9 — scheduler micro-throughput (google-benchmark).
//
// Measures raw insert/delete-min throughput of every scheduler in the
// library, sequential and concurrent, to quantify the operation-level
// speedup relaxation buys ("operation-level speedups provided by
// relaxation", §1). The concurrent MultiQueue is swept over thread counts;
// the FAA array queue gives the exact-scheduler baseline cost.
#include <benchmark/benchmark.h>

#include <atomic>
#include <optional>
#include <vector>

#include "sched/concurrent_multiqueue.h"
#include "sched/exact_heap.h"
#include "sched/faa_array_queue.h"
#include "sched/kbounded.h"
#include "sched/lockfree_multiqueue.h"
#include "sched/sim_multiqueue.h"
#include "sched/sim_spraylist.h"
#include "sched/topk_uniform.h"
#include "util/rng.h"

namespace {

constexpr std::uint32_t kUniverse = 1 << 20;

template <typename S>
void drain_mixed(S& sched, benchmark::State& state) {
  // 50/50 insert/pop mix over a pre-warmed scheduler. Priorities are
  // recycled through a shuffled free-list so every present priority is
  // distinct — the framework invariant the order-statistics-backed
  // schedulers rely on (labels are unique; re-insertion happens only after
  // removal).
  relax::util::Rng rng(42);
  std::vector<std::uint32_t> free_list =
      relax::util::random_permutation(kUniverse, rng);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    sched.insert(free_list.back());
    free_list.pop_back();
  }
  std::uint64_t ops = 0;
  for (auto _ : state) {
    if ((ops & 1) == 0 && !free_list.empty()) {
      sched.insert(free_list.back());
      free_list.pop_back();
    } else {
      const auto p = sched.approx_get_min();
      benchmark::DoNotOptimize(p);
      if (p) free_list.push_back(*p);
    }
    ++ops;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

void BM_ExactHeap(benchmark::State& state) {
  relax::sched::ExactHeapScheduler s;
  drain_mixed(s, state);
}
BENCHMARK(BM_ExactHeap);

void BM_TopKUniform(benchmark::State& state) {
  relax::sched::TopKUniformScheduler s(
      kUniverse, static_cast<std::uint32_t>(state.range(0)), 1);
  drain_mixed(s, state);
}
BENCHMARK(BM_TopKUniform)->Arg(8)->Arg(64);

void BM_SimMultiQueue(benchmark::State& state) {
  relax::sched::SimMultiQueue s(static_cast<std::uint32_t>(state.range(0)),
                                1);
  drain_mixed(s, state);
}
BENCHMARK(BM_SimMultiQueue)->Arg(8)->Arg(64);

void BM_SimSprayList(benchmark::State& state) {
  auto s = relax::sched::make_sim_spraylist(
      kUniverse, static_cast<std::uint32_t>(state.range(0)), 1);
  drain_mixed(s, state);
}
BENCHMARK(BM_SimSprayList)->Arg(8)->Arg(64);

void BM_KBounded(benchmark::State& state) {
  relax::sched::KBoundedScheduler s(
      static_cast<std::uint32_t>(state.range(0)));
  drain_mixed(s, state);
}
BENCHMARK(BM_KBounded)->Arg(8)->Arg(64);

// --- concurrent structures: thread sweep via google-benchmark threads ---
//
// google-benchmark runs the function body in every thread with no barrier
// around the code outside the `for (auto _ : state)` loop, so the naive
// thread_index()==0 setup/teardown pattern races: another thread can use
// the shared structure before construction finishes or after thread 0
// deletes it. SharedSetup spin-waits on an atomic pointer for setup and
// lets the *last* thread out run the teardown.

template <typename T>
struct SharedSetup {
  std::atomic<T*> ptr{nullptr};
  std::atomic<unsigned> finished{0};

  template <typename Make>
  T* acquire(benchmark::State& state, Make make) {
    if (state.thread_index() == 0) ptr.store(make(), std::memory_order_release);
    T* p;
    while ((p = ptr.load(std::memory_order_acquire)) == nullptr) {
    }
    return p;
  }

  void release(benchmark::State& state) {
    if (finished.fetch_add(1) + 1 ==
        static_cast<unsigned>(state.threads())) {
      delete ptr.exchange(nullptr, std::memory_order_acq_rel);
      finished.store(0, std::memory_order_release);
    }
  }
};

SharedSetup<relax::sched::ConcurrentMultiQueue> g_mq;
SharedSetup<relax::sched::LockFreeMultiQueue> g_lfmq;
SharedSetup<relax::sched::FaaArrayQueue<std::uint32_t>> g_faa;

void BM_ConcurrentMultiQueue(benchmark::State& state) {
  auto* mq = g_mq.acquire(state, [&] {
    auto* q = new relax::sched::ConcurrentMultiQueue(
        4 * static_cast<unsigned>(state.threads()), 1);
    auto handle = q->get_handle();
    for (std::uint32_t p = 0; p < 1 << 16; ++p) handle.insert(p);
    return q;
  });
  auto handle = mq->get_handle();
  relax::util::Rng rng(state.thread_index() + 7);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    if ((ops & 1) == 0) {
      handle.insert(static_cast<std::uint32_t>(
          relax::util::bounded(rng, kUniverse)));
    } else {
      benchmark::DoNotOptimize(handle.approx_get_min());
    }
    ++ops;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  g_mq.release(state);
}
BENCHMARK(BM_ConcurrentMultiQueue)->Threads(1)->Threads(4)->Threads(8)
    ->Threads(16)->UseRealTime();

void BM_LockFreeMultiQueue(benchmark::State& state) {
  auto* mq = g_lfmq.acquire(state, [&] {
    auto* q = new relax::sched::LockFreeMultiQueue(
        4 * static_cast<unsigned>(state.threads()), 1);
    std::vector<relax::sched::Priority> keys(1 << 16);
    for (std::uint32_t p = 0; p < keys.size(); ++p) keys[p] = p;
    q->bulk_load(keys);
    return q;
  });
  auto handle = mq->get_handle();
  std::uint64_t ops = 0;
  for (auto _ : state) {
    // Pop-mostly mix: re-insert every 8th popped key near the top, the
    // framework's actual traffic pattern for the sorted-list sub-queues.
    const auto p = handle.approx_get_min();
    benchmark::DoNotOptimize(p);
    if (p && (ops & 7) == 0) handle.insert(*p);
    ++ops;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  g_lfmq.release(state);
}
BENCHMARK(BM_LockFreeMultiQueue)->Threads(1)->Threads(4)->Threads(8)
    ->Threads(16)->UseRealTime();

void BM_FaaArrayQueue(benchmark::State& state) {
  auto* q = g_faa.acquire(state, [&] {
    std::vector<std::uint32_t> items(1 << 22);
    for (std::uint32_t i = 0; i < items.size(); ++i) items[i] = i;
    return new relax::sched::FaaArrayQueue<std::uint32_t>(std::move(items));
  });
  std::uint64_t ops = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q->try_dequeue());
    ++ops;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  g_faa.release(state);
}
BENCHMARK(BM_FaaArrayQueue)->Threads(1)->Threads(4)->Threads(8)->Threads(16)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
