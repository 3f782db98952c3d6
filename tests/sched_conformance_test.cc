// Cross-backend conformance: one fixture, every backend in the registry.
//
// A scheduler backend — whatever its internals — must behave like a relaxed
// priority multiset of labels: nothing lost, nothing duplicated, observed
// emptiness only when it may actually be empty. These tests run the same
// checks over every entry of sched::backend_registry() via
// dispatch_backend, so registering a new backend automatically subjects it
// to the full battery:
//
//   * fresh instance reports observed-empty (nullopt, empty(), size() 0);
//   * single-threaded insert/drain returns exactly the inserted label set
//     (a permutation — the relaxation may reorder, never drop or invent);
//   * labels can be re-inserted after a pop and are served again;
//   * multi-threaded insert/drain races preserve a per-label counting
//     invariant: every label popped exactly once, scheduler empty after.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "sched/backend_registry.h"
#include "sched/handles.h"
#include "sched/stripe_map.h"
#include "util/rng.h"

namespace relax::sched {
namespace {

BackendParams conformance_params(std::uint32_t capacity, unsigned threads) {
  BackendParams params;
  params.threads = threads;
  params.queue_factor = 4;
  params.seed = 12345;
  params.capacity = capacity;
  return params;
}

/// Runs f(info, queue) on a freshly constructed instance of every registry
/// backend, sized for `threads` workers and a label universe [0, capacity).
template <typename F>
void for_each_backend(std::uint32_t capacity, unsigned threads, F&& f) {
  for (const BackendInfo& info : backend_registry()) {
    SCOPED_TRACE(std::string("backend: ") + std::string(info.name));
    dispatch_backend(info, conformance_params(capacity, threads),
                     [&](auto tag, auto&&... args) {
                       using Queue = typename decltype(tag)::type;
                       Queue queue(std::forward<decltype(args)>(args)...);
                       f(info, queue);
                     });
  }
}

TEST(SchedConformance, RegistryIsNonEmptyAndNamesAreUnique) {
  const auto registry = backend_registry();
  ASSERT_GE(registry.size(), 7u);
  for (const auto& info : registry) {
    EXPECT_EQ(find_backend(info.name), &info);
  }
  EXPECT_EQ(find_backend("no-such-backend"), nullptr);
  EXPECT_THROW((void)backend_or_throw("no-such-backend"),
               std::invalid_argument);
  // The thrown message must carry the valid names (CLI relies on it).
  try {
    (void)backend_or_throw("no-such-backend");
  } catch (const std::invalid_argument& e) {
    for (const auto& info : registry) {
      EXPECT_NE(std::string(e.what()).find(std::string(info.name)),
                std::string::npos);
    }
  }
}

TEST(SchedConformance, FreshBackendIsObservedEmpty) {
  for_each_backend(256, 4, [](const BackendInfo&, auto& queue) {
    EXPECT_EQ(queue.approx_get_min(), std::nullopt);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
  });
}

TEST(SchedConformance, SingleThreadDrainIsAPermutationOfInserts) {
  constexpr std::uint32_t kN = 2048;
  for_each_backend(kN, 4, [&](const BackendInfo&, auto& queue) {
    std::vector<Priority> labels(kN);
    std::iota(labels.begin(), labels.end(), 0u);
    util::Rng rng(7);
    util::shuffle(std::span<Priority>(labels), rng);
    for (const Priority p : labels) queue.insert(p);
    EXPECT_EQ(queue.size(), kN);
    EXPECT_FALSE(queue.empty());

    std::vector<Priority> popped;
    popped.reserve(kN);
    while (const auto p = queue.approx_get_min()) popped.push_back(*p);
    ASSERT_EQ(popped.size(), kN);
    std::sort(popped.begin(), popped.end());
    for (std::uint32_t i = 0; i < kN; ++i) EXPECT_EQ(popped[i], i);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(queue.approx_get_min(), std::nullopt);
  });
}

TEST(SchedConformance, ReinsertedLabelIsServedAgain) {
  constexpr std::uint32_t kN = 32;
  for_each_backend(kN, 2, [&](const BackendInfo&, auto& queue) {
    for (Priority p = 0; p < kN; ++p) queue.insert(p);
    const auto first = queue.approx_get_min();
    ASSERT_TRUE(first.has_value());
    queue.insert(*first);  // the framework's failed-delete path
    std::vector<Priority> popped;
    while (const auto p = queue.approx_get_min()) popped.push_back(*p);
    ASSERT_EQ(popped.size(), kN);
    std::sort(popped.begin(), popped.end());
    for (Priority p = 0; p < kN; ++p) EXPECT_EQ(popped[p], p);
  });
}

// Batched acquisition conformance: pop_batch over every backend — native
// batched claims on the scalable structures, the one-at-a-time shim on the
// locked adapters — must still deliver exactly the inserted label multiset.
TEST(SchedConformance, BatchedDrainIsAPermutationOfInserts) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::size_t kBatch = 8;
  for_each_backend(kN, 4, [&](const BackendInfo&, auto& queue) {
    std::vector<Priority> labels(kN);
    std::iota(labels.begin(), labels.end(), 0u);
    util::Rng rng(11);
    util::shuffle(std::span<Priority>(labels), rng);
    for (const Priority p : labels) queue.insert(p);

    auto handle = make_handle(queue);
    std::vector<Priority> popped;
    std::vector<Priority> buf;
    for (;;) {
      buf.clear();
      const std::size_t got = pop_batch(handle, kBatch, buf);
      if (got == 0) break;
      ASSERT_EQ(got, buf.size());
      ASSERT_LE(got, kBatch);
      popped.insert(popped.end(), buf.begin(), buf.end());
    }
    ASSERT_EQ(popped.size(), kN);
    std::sort(popped.begin(), popped.end());
    for (std::uint32_t i = 0; i < kN; ++i) EXPECT_EQ(popped[i], i);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
  });
}

// Insert-side batching conformance: sched::insert_batch over every backend
// — native sorted-run splices on the scalable structures (MultiQueue
// strided append-or-heap, lock-free list CAS-splice, SprayList one-descent
// run),
// one lock per batch on the locked adapters, per-key shim elsewhere — must
// deliver exactly the inserted label multiset back out, whatever mix of
// batch sizes built it.
TEST(SchedConformance, InsertBatchDrainIsAPermutationOfInserts) {
  constexpr std::uint32_t kN = 2048;
  for_each_backend(kN, 4, [&](const BackendInfo&, auto& queue) {
    std::vector<Priority> labels(kN);
    std::iota(labels.begin(), labels.end(), 0u);
    util::Rng rng(23);
    util::shuffle(std::span<Priority>(labels), rng);

    auto handle = make_handle(queue);
    // Mixed batch sizes, including 1 and a run larger than any sub-queue
    // chunk, so both the splice and the degenerate paths are exercised.
    constexpr std::size_t kChunks[] = {1, 7, 64, 3, 200, 1, 500};
    std::size_t off = 0, chunk_ix = 0;
    while (off < kN) {
      const std::size_t len =
          std::min<std::size_t>(kChunks[chunk_ix++ % std::size(kChunks)],
                                kN - off);
      insert_batch(handle,
                   std::span<const Priority>(labels.data() + off, len));
      off += len;
    }
    EXPECT_EQ(queue.size(), kN);

    std::vector<Priority> popped;
    popped.reserve(kN);
    while (const auto p = queue.approx_get_min()) popped.push_back(*p);
    ASSERT_EQ(popped.size(), kN);
    std::sort(popped.begin(), popped.end());
    for (std::uint32_t i = 0; i < kN; ++i) EXPECT_EQ(popped[i], i);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
  });
}

// Regression for the biased kProbeLimit fallback: the full scan used to
// start at sub-queue 0 every time, so a near-empty queue funnelled every
// thread onto the lowest-index non-empty sub-queue (contention plus a pop
// bias toward whatever lived there). With probe_limit = 0 every pop takes
// the fallback path, and bulk_load's round-robin placement puts label i in
// sub-queue i — so the old scan provably drained labels in exactly
// ascending index order, while a randomized start makes that ordering
// astronomically unlikely (P = prod 1/remaining ~ 1/64!).
TEST(SchedConformance, FallbackScanStartsAtARandomOffset) {
  constexpr std::uint32_t kQ = 64;
  std::vector<Priority> labels(kQ);
  std::iota(labels.begin(), labels.end(), 0u);
  {
    ConcurrentMultiQueue q(kQ, 77, 2, /*probe_limit=*/0);
    q.bulk_load(labels);
    std::vector<Priority> popped;
    while (const auto p = q.approx_get_min()) popped.push_back(*p);
    ASSERT_EQ(popped.size(), kQ);
    EXPECT_FALSE(std::is_sorted(popped.begin(), popped.end()))
        << "fallback scan always started at sub-queue 0";
    std::sort(popped.begin(), popped.end());
    for (std::uint32_t i = 0; i < kQ; ++i) EXPECT_EQ(popped[i], i);
  }
  {
    LockFreeMultiQueue q(kQ, 77, 2, /*probe_limit=*/0);
    q.bulk_load(labels);
    std::vector<Priority> popped;
    while (const auto p = q.approx_get_min()) popped.push_back(*p);
    ASSERT_EQ(popped.size(), kQ);
    EXPECT_FALSE(std::is_sorted(popped.begin(), popped.end()))
        << "fallback scan always started at sub-list 0";
    std::sort(popped.begin(), popped.end());
    for (std::uint32_t i = 0; i < kQ; ++i) EXPECT_EQ(popped[i], i);
  }
}

// The concurrent counting invariant: kThreads workers interleave inserts of
// disjoint label ranges with pops, then drain to a global target. No label
// may be lost (the count would never reach kN) or duplicated (a per-label
// counter would exceed one). nullopt results mid-race are legitimate
// ("observed empty at some point") and simply retried.
TEST(SchedConformance, ConcurrentInsertDrainKeepsEveryLabelExactlyOnce) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint32_t kPerThread = 2500;
  constexpr std::uint32_t kN = kThreads * kPerThread;
  for_each_backend(kN, kThreads, [&](const BackendInfo&, auto& queue) {
    std::vector<std::atomic<std::uint8_t>> seen(kN);
    std::atomic<std::uint32_t> popped{0};
    std::atomic<std::uint32_t> duplicates{0};
    std::atomic<std::uint32_t> out_of_range{0};

    auto record = [&](Priority p) {
      if (p >= kN) {
        out_of_range.fetch_add(1, std::memory_order_relaxed);
      } else if (seen[p].fetch_add(1, std::memory_order_relaxed) != 0) {
        duplicates.fetch_add(1, std::memory_order_relaxed);
      }
      popped.fetch_add(1, std::memory_order_relaxed);
    };

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        auto handle = make_handle(queue);
        for (std::uint32_t i = 0; i < kPerThread; ++i) {
          handle.insert(t * kPerThread + i);
          // Interleave pops with inserts to race the two paths.
          if ((i & 7) == 0) {
            if (const auto p = handle.approx_get_min()) record(*p);
          }
        }
        // Deadline-bounded drain: a lost label must fail the popped-count
        // assertion below, not hang CI in this loop. The clock is only
        // consulted on a stretch of failed pops — successful pops are
        // progress.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        std::uint32_t dry_polls = 0;
        while (popped.load(std::memory_order_relaxed) < kN) {
          if (const auto p = handle.approx_get_min()) {
            record(*p);
            dry_polls = 0;
          } else if ((++dry_polls & 0xfff) == 0 &&
                     std::chrono::steady_clock::now() > deadline) {
            break;
          }
        }
      });
    }
    for (auto& w : workers) w.join();

    EXPECT_EQ(popped.load(), kN);
    EXPECT_EQ(duplicates.load(), 0u);
    EXPECT_EQ(out_of_range.load(), 0u);
    for (std::uint32_t p = 0; p < kN; ++p) {
      ASSERT_EQ(seen[p].load(), 1u) << "label " << p;
    }
    // Quiescent now: emptiness must be definitive.
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(queue.approx_get_min(), std::nullopt);
  });
}

// Same counting invariant under *batched* acquisition: racing batched
// claims (multiqueue sub-queue drains, lock-free head-claim runs, spray
// walk claims) must never deliver a label twice or strand one.
TEST(SchedConformance, ConcurrentBatchedDrainKeepsEveryLabelExactlyOnce) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint32_t kPerThread = 2500;
  constexpr std::uint32_t kN = kThreads * kPerThread;
  constexpr std::size_t kBatch = 8;
  for_each_backend(kN, kThreads, [&](const BackendInfo&, auto& queue) {
    std::vector<std::atomic<std::uint8_t>> seen(kN);
    std::atomic<std::uint32_t> popped{0};
    std::atomic<std::uint32_t> duplicates{0};
    std::atomic<std::uint32_t> out_of_range{0};

    auto record = [&](Priority p) {
      if (p >= kN) {
        out_of_range.fetch_add(1, std::memory_order_relaxed);
      } else if (seen[p].fetch_add(1, std::memory_order_relaxed) != 0) {
        duplicates.fetch_add(1, std::memory_order_relaxed);
      }
      popped.fetch_add(1, std::memory_order_relaxed);
    };

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        auto handle = make_handle(queue);
        std::vector<Priority> buf;
        for (std::uint32_t i = 0; i < kPerThread; ++i) {
          handle.insert(t * kPerThread + i);
          if ((i & 31) == 0) {
            buf.clear();
            pop_batch(handle, kBatch, buf);
            for (const Priority p : buf) record(p);
          }
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        std::uint32_t dry_polls = 0;
        while (popped.load(std::memory_order_relaxed) < kN) {
          buf.clear();
          if (pop_batch(handle, kBatch, buf) > 0) {
            for (const Priority p : buf) record(p);
            dry_polls = 0;
          } else if ((++dry_polls & 0xfff) == 0 &&
                     std::chrono::steady_clock::now() > deadline) {
            break;
          }
        }
      });
    }
    for (auto& w : workers) w.join();

    EXPECT_EQ(popped.load(), kN);
    EXPECT_EQ(duplicates.load(), 0u);
    EXPECT_EQ(out_of_range.load(), 0u);
    for (std::uint32_t p = 0; p < kN; ++p) {
      ASSERT_EQ(seen[p].load(), 1u) << "label " << p;
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(queue.approx_get_min(), std::nullopt);
  });
}

// Full batching symmetry under concurrency: workers admit their label
// ranges through insert_batch runs while draining through pop_batch —
// racing sorted-run splices against batched head claims on every backend.
// The counting invariant must survive: every label delivered exactly once,
// scheduler definitively empty after.
TEST(SchedConformance, ConcurrentMixedBatchedOpsKeepEveryLabelExactlyOnce) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint32_t kPerThread = 2500;
  constexpr std::uint32_t kN = kThreads * kPerThread;
  constexpr std::size_t kInsertRun = 16;
  constexpr std::size_t kBatch = 8;
  for_each_backend(kN, kThreads, [&](const BackendInfo&, auto& queue) {
    std::vector<std::atomic<std::uint8_t>> seen(kN);
    std::atomic<std::uint32_t> popped{0};
    std::atomic<std::uint32_t> duplicates{0};
    std::atomic<std::uint32_t> out_of_range{0};

    auto record = [&](Priority p) {
      if (p >= kN) {
        out_of_range.fetch_add(1, std::memory_order_relaxed);
      } else if (seen[p].fetch_add(1, std::memory_order_relaxed) != 0) {
        duplicates.fetch_add(1, std::memory_order_relaxed);
      }
      popped.fetch_add(1, std::memory_order_relaxed);
    };

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        auto handle = make_handle(queue);
        std::vector<Priority> run;
        std::vector<Priority> buf;
        // Shuffle this worker's range so the sorted-run splice sees
        // non-trivial runs instead of pre-sorted input.
        std::vector<Priority> mine(kPerThread);
        std::iota(mine.begin(), mine.end(), t * kPerThread);
        util::Rng rng(1000 + t);
        util::shuffle(std::span<Priority>(mine), rng);
        for (std::uint32_t i = 0; i < kPerThread; i += kInsertRun) {
          const std::size_t len =
              std::min<std::size_t>(kInsertRun, kPerThread - i);
          insert_batch(handle,
                       std::span<const Priority>(mine.data() + i, len));
          buf.clear();
          pop_batch(handle, kBatch, buf);
          for (const Priority p : buf) record(p);
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        std::uint32_t dry_polls = 0;
        while (popped.load(std::memory_order_relaxed) < kN) {
          buf.clear();
          if (pop_batch(handle, kBatch, buf) > 0) {
            for (const Priority p : buf) record(p);
            dry_polls = 0;
          } else if ((++dry_polls & 0xfff) == 0 &&
                     std::chrono::steady_clock::now() > deadline) {
            break;
          }
        }
      });
    }
    for (auto& w : workers) w.join();

    EXPECT_EQ(popped.load(), kN);
    EXPECT_EQ(duplicates.load(), 0u);
    EXPECT_EQ(out_of_range.load(), 0u);
    for (std::uint32_t p = 0; p < kN; ++p) {
      ASSERT_EQ(seen[p].load(), 1u) << "label " << p;
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(queue.approx_get_min(), std::nullopt);
  });
}

// The counting invariant under topology-striped placement (virtual:2):
// backends carrying a StripeMap serve claims domain-locally with bounded
// cross-domain steals, and handle inserts land in the inserting worker's
// block — none of which may lose, duplicate, or strand a label. Workers
// split across two domains exactly as util::plan_workers would place
// them; backends without the placement surface run flat, so the whole
// registry stays under the same battery. (This test is in the TSan row's
// ctest filter — it is the data-race coverage for the striped claim and
// steal paths.)
TEST(SchedConformance, StripedConcurrentDrainKeepsEveryLabelExactlyOnce) {
  constexpr unsigned kThreads = 4;
  constexpr unsigned kDomains = 2;
  constexpr std::uint32_t kPerThread = 2500;
  constexpr std::uint32_t kN = kThreads * kPerThread;
  for_each_backend(kN, kThreads, [&](const BackendInfo&, auto& queue) {
    using Queue = std::remove_reference_t<decltype(queue)>;
    if constexpr (requires(Queue& q, const StripeMap& m) {
                    q.num_queues();
                    q.set_stripe_map(m);
                  }) {
      queue.set_stripe_map(StripeMap(queue.num_queues(), kDomains));
    }

    std::vector<std::atomic<std::uint8_t>> seen(kN);
    std::atomic<std::uint32_t> popped{0};
    std::atomic<std::uint32_t> duplicates{0};
    std::atomic<std::uint32_t> out_of_range{0};

    auto record = [&](Priority p) {
      if (p >= kN) {
        out_of_range.fetch_add(1, std::memory_order_relaxed);
      } else if (seen[p].fetch_add(1, std::memory_order_relaxed) != 0) {
        duplicates.fetch_add(1, std::memory_order_relaxed);
      }
      popped.fetch_add(1, std::memory_order_relaxed);
    };

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        auto handle = make_handle(queue);
        if constexpr (requires { handle.set_domain(0u); }) {
          // Block split, exactly as plan_workers maps virtual:2.
          handle.set_domain(t * kDomains / kThreads);
        }
        std::vector<Priority> buf;
        for (std::uint32_t i = 0; i < kPerThread; ++i) {
          handle.insert(t * kPerThread + i);
          if ((i & 15) == 0) {
            buf.clear();
            pop_batch(handle, 4, buf);
            for (const Priority p : buf) record(p);
          }
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        std::uint32_t dry_polls = 0;
        while (popped.load(std::memory_order_relaxed) < kN) {
          if (const auto p = handle.approx_get_min()) {
            record(*p);
            dry_polls = 0;
          } else if ((++dry_polls & 0xfff) == 0 &&
                     std::chrono::steady_clock::now() > deadline) {
            break;
          }
        }
      });
    }
    for (auto& w : workers) w.join();

    EXPECT_EQ(popped.load(), kN);
    EXPECT_EQ(duplicates.load(), 0u);
    EXPECT_EQ(out_of_range.load(), 0u);
    for (std::uint32_t p = 0; p < kN; ++p) {
      ASSERT_EQ(seen[p].load(), 1u) << "label " << p;
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(queue.approx_get_min(), std::nullopt);
  });
}

}  // namespace
}  // namespace relax::sched
