#include "sched/concurrent_multiqueue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "sched/order_stat_set.h"
#include "util/rng.h"
#include "util/timer.h"

namespace relax::sched {
namespace {

TEST(ConcurrentMultiQueue, SingleThreadDrainsAll) {
  ConcurrentMultiQueue q(8, 1);
  for (Priority p = 0; p < 1000; ++p) q.insert(p);
  EXPECT_EQ(q.size(), 1000u);
  std::vector<char> seen(1000, 0);
  std::uint32_t n = 0;
  while (auto p = q.approx_get_min()) {
    ASSERT_FALSE(seen[*p]);
    seen[*p] = 1;
    ++n;
  }
  EXPECT_EQ(n, 1000u);
  EXPECT_TRUE(q.empty());
}

TEST(ConcurrentMultiQueue, EmptyReturnsNullopt) {
  ConcurrentMultiQueue q(4, 1);
  EXPECT_FALSE(q.approx_get_min().has_value());
}

TEST(ConcurrentMultiQueue, MinimumQueueCountEnforced) {
  ConcurrentMultiQueue q(0, 1);
  EXPECT_GE(q.num_queues(), 2u);
}

TEST(ConcurrentMultiQueue, RoughPriorityBias) {
  // Two-choice over q heaps: the first pops should be strongly biased
  // toward small priorities. Pop a tenth of the universe and check the
  // mean popped value is far below the universe mean.
  ConcurrentMultiQueue q(8, 3);
  constexpr std::uint32_t kN = 10000;
  for (Priority p = 0; p < kN; ++p) q.insert(p);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto p = q.approx_get_min();
    ASSERT_TRUE(p.has_value());
    sum += *p;
  }
  EXPECT_LT(sum / 1000.0, kN * 0.2);  // exact would be ~500; universe mean 5000
}

TEST(ConcurrentMultiQueue, ConcurrentExactlyOnce) {
  constexpr std::uint32_t kN = 100000;
  constexpr unsigned kThreads = 8;
  ConcurrentMultiQueue q(4 * kThreads, 5);
  std::vector<std::atomic<int>> got(kN);
  for (auto& g : got) g.store(0);
  std::atomic<std::uint32_t> produced{0};
  std::atomic<std::uint32_t> consumed{0};
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        auto handle = q.get_handle();
        // Each thread produces a slice and consumes until global drain.
        for (;;) {
          const auto i = produced.fetch_add(1);
          if (i >= kN) break;
          handle.insert(i);
        }
        while (consumed.load() < kN) {
          const auto p = handle.approx_get_min();
          if (!p) continue;
          got[*p].fetch_add(1);
          consumed.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(consumed.load(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) ASSERT_EQ(got[i].load(), 1);
}

TEST(ConcurrentMultiQueue, ConcurrentReinsertionSafe) {
  // Threads pop and re-insert half the time; ensure nothing is lost.
  constexpr std::uint32_t kN = 20000;
  ConcurrentMultiQueue q(16, 7);
  for (Priority p = 0; p < kN; ++p) q.insert(p);
  std::atomic<std::uint32_t> retired{0};
  std::vector<std::atomic<int>> done(kN);
  for (auto& d : done) d.store(0);
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        util::Rng rng(t + 100);
        auto handle = q.get_handle();
        while (retired.load() < kN) {
          const auto p = handle.approx_get_min();
          if (!p) continue;
          if (done[*p].load() == 0 && util::bounded(rng, 2) == 0) {
            handle.insert(*p);  // simulate a failed delete
          } else {
            ASSERT_EQ(done[*p].fetch_add(1), 0);
            retired.fetch_add(1);
          }
        }
      });
    }
  }
  for (std::uint32_t i = 0; i < kN; ++i) ASSERT_EQ(done[i].load(), 1);
}

TEST(ConcurrentMultiQueue, SixtyFourBitKeys) {
  BasicConcurrentMultiQueue<std::uint64_t> q(4, 1);
  const std::uint64_t big = (0x12345678ULL << 32) | 0x9abcdef0ULL;
  q.insert(big);
  q.insert(1);
  std::uint64_t seen_big = 0, count = 0;
  while (auto v = q.approx_get_min()) {
    if (*v == big) seen_big = 1;
    ++count;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_TRUE(seen_big);
}

TEST(ConcurrentMultiQueue, SequentialRankErrorBoundedByQueueSpread) {
  // Single-threaded: the rank error should concentrate below a small
  // multiple of the queue count (PODC'17 analysis).
  constexpr std::uint32_t kQueues = 8, kN = 20000;
  ConcurrentMultiQueue q(kQueues, 11);
  OrderStatSet mirror(kN);
  for (Priority p = 0; p < kN; ++p) {
    q.insert(p);
    mirror.insert(p);
  }
  std::uint64_t violations = 0;
  while (auto p = q.approx_get_min()) {
    if (mirror.rank_of(*p) >= 16 * kQueues) ++violations;
    mirror.erase(*p);
  }
  EXPECT_LT(violations, kN / 100);
}


TEST(ConcurrentMultiQueue, BulkLoadDrainsAllExactlyOnce) {
  ConcurrentMultiQueue q(8, 7);
  constexpr std::uint32_t kN = 5000;
  std::vector<Priority> labels(kN);
  for (Priority p = 0; p < kN; ++p) labels[p] = p;
  q.bulk_load(labels);
  EXPECT_EQ(q.size(), kN);
  std::vector<char> seen(kN, 0);
  std::uint32_t n = 0;
  while (auto p = q.approx_get_min()) {
    ASSERT_FALSE(seen[*p]);
    seen[*p] = 1;
    ++n;
  }
  EXPECT_EQ(n, kN);
}

TEST(ConcurrentMultiQueue, BulkLoadMixesWithDynamicInserts) {
  // The two-part sub-queue must interleave base-array pops and heap pops in
  // priority order: bulk-load the evens, insert the odds dynamically, then
  // check pops are biased-small and complete.
  ConcurrentMultiQueue q(4, 9);
  constexpr std::uint32_t kN = 2000;
  std::vector<Priority> evens;
  for (Priority p = 0; p < kN; p += 2) evens.push_back(p);
  q.bulk_load(evens);
  for (Priority p = 1; p < kN; p += 2) q.insert(p);
  EXPECT_EQ(q.size(), kN);
  std::vector<char> seen(kN, 0);
  std::uint32_t n = 0;
  while (auto p = q.approx_get_min()) {
    ASSERT_FALSE(seen[*p]);
    seen[*p] = 1;
    ++n;
  }
  EXPECT_EQ(n, kN);
}

TEST(ConcurrentMultiQueue, BulkInsertOnLiveQueueDrainsExactly) {
  // Unlike bulk_load, bulk_insert targets a queue that is already serving
  // pops: interleave batched inserts with partial drains and verify every
  // key is delivered exactly once, in spite of base-array compaction.
  ConcurrentMultiQueue q(4, 13);
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint32_t kBatch = 256;
  std::vector<char> seen(kN, 0);
  std::uint32_t popped = 0;
  for (std::uint32_t lo = 0; lo < kN; lo += kBatch) {
    std::vector<Priority> batch;
    for (Priority p = lo; p < lo + kBatch; ++p) batch.push_back(p);
    q.bulk_insert(batch);
    // Drain roughly half of what is present before the next batch lands.
    for (std::size_t target = q.size() / 2; q.size() > target;) {
      const auto p = q.approx_get_min();
      ASSERT_TRUE(p.has_value());
      ASSERT_LT(*p, kN);
      ASSERT_FALSE(seen[*p]);
      seen[*p] = 1;
      ++popped;
    }
  }
  while (auto p = q.approx_get_min()) {
    ASSERT_FALSE(seen[*p]);
    seen[*p] = 1;
    ++popped;
  }
  EXPECT_EQ(popped, kN);
  EXPECT_TRUE(q.empty());
}

TEST(ConcurrentMultiQueue, ConcurrentBulkInsertAndPopLosesNothing) {
  ConcurrentMultiQueue q(8, 17);
  constexpr std::uint32_t kN = 1 << 15;
  constexpr unsigned kProducers = 2;
  std::vector<std::atomic<std::uint8_t>> seen(kN);
  std::atomic<std::uint32_t> popped{0};
  // A detected duplicate must abort the consumer loops, not just mark the
  // test failed — otherwise `popped` never reaches kN and the join hangs
  // the binary instead of reporting.
  std::atomic<bool> failed{false};
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < kProducers; ++t) {
      threads.emplace_back([&, t] {
        auto handle = q.get_handle();
        std::vector<Priority> batch;
        for (Priority p = t; p < kN; p += kProducers) {
          batch.push_back(p);
          if (batch.size() == 512) {
            handle.bulk_insert(batch);
            batch.clear();
          }
        }
        handle.bulk_insert(batch);
      });
    }
    for (unsigned t = 0; t < 2; ++t) {
      threads.emplace_back([&] {
        auto handle = q.get_handle();
        while (popped.load(std::memory_order_acquire) < kN &&
               !failed.load(std::memory_order_acquire)) {
          const auto p = handle.approx_get_min();
          if (!p) continue;  // producers may still be inserting
          if (seen[*p].fetch_add(1) != 0) {
            ADD_FAILURE() << "duplicate pop of " << *p;
            failed.store(true, std::memory_order_release);
            return;
          }
          popped.fetch_add(1, std::memory_order_release);
        }
      });
    }
  }
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(popped.load(), kN);
  EXPECT_TRUE(q.empty());
}

TEST(ConcurrentMultiQueue, BatchPopDrainsAllExactlyOnce) {
  ConcurrentMultiQueue q(8, 31);
  constexpr std::uint32_t kN = 5000;
  for (Priority p = 0; p < kN; ++p) q.insert(p);
  std::vector<char> seen(kN, 0);
  std::uint32_t n = 0;
  std::vector<Priority> batch;
  for (;;) {
    batch.clear();
    const std::size_t got = q.approx_get_min_batch(8, batch);
    if (got == 0) break;
    ASSERT_EQ(got, batch.size());
    ASSERT_LE(got, 8u);
    for (const Priority p : batch) {
      ASSERT_LT(p, kN);
      ASSERT_FALSE(seen[p]);
      seen[p] = 1;
      ++n;
    }
  }
  EXPECT_EQ(n, kN);
  EXPECT_TRUE(q.empty());
}

TEST(ConcurrentMultiQueue, BatchPopReturnsSortedRunsFromOneSubQueue) {
  // A batch drains one sub-queue's prefix, so within a batch the labels
  // must come out in ascending order (base cursor advances + heap pops).
  ConcurrentMultiQueue q(4, 33);
  constexpr std::uint32_t kN = 2000;
  std::vector<Priority> labels(kN);
  for (Priority p = 0; p < kN; ++p) labels[p] = p;
  q.bulk_load(labels);
  std::vector<Priority> batch;
  while (q.approx_get_min_batch(16, batch) > 0) {
    for (std::size_t i = 1; i < batch.size(); ++i)
      EXPECT_LE(batch[i - 1], batch[i]);
    batch.clear();
  }
  EXPECT_TRUE(q.empty());
}

TEST(ConcurrentMultiQueue, ConcurrentBatchPopExactlyOnce) {
  constexpr std::uint32_t kN = 60000;
  constexpr unsigned kThreads = 4;
  ConcurrentMultiQueue q(4 * kThreads, 35);
  std::vector<std::atomic<int>> got(kN);
  for (auto& g : got) g.store(0);
  std::atomic<std::uint32_t> produced{0};
  std::atomic<std::uint32_t> consumed{0};
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        auto handle = q.get_handle();
        for (;;) {
          const auto i = produced.fetch_add(1);
          if (i >= kN) break;
          handle.insert(i);
        }
        std::vector<Priority> batch;
        while (consumed.load() < kN) {
          batch.clear();
          if (handle.approx_get_min_batch(8, batch) == 0) continue;
          for (const Priority p : batch) {
            got[p].fetch_add(1);
            consumed.fetch_add(1);
          }
        }
      });
    }
  }
  EXPECT_EQ(consumed.load(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) ASSERT_EQ(got[i].load(), 1);
  EXPECT_TRUE(q.empty());
}

TEST(ConcurrentMultiQueue, SmallBulkInsertSpreadsOverSubQueues) {
  // Regression: batches below 2 * kMinBulkChunk used to collapse into a
  // single chunk aimed at one random sub-queue, transiently skewing that
  // queue (and the two-choice rank distribution) until pops rebalanced it.
  static_assert(ConcurrentMultiQueue::kMinBulkChunk >= 2);
  constexpr auto kSmall =
      static_cast<std::uint32_t>(2 * ConcurrentMultiQueue::kMinBulkChunk - 2);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ConcurrentMultiQueue q(8, seed);
    std::vector<Priority> batch(kSmall);
    for (Priority p = 0; p < kSmall; ++p) batch[p] = p;
    q.bulk_insert(batch);
    const auto sizes = q.per_queue_sizes();
    std::size_t nonempty = 0, largest = 0;
    for (const std::size_t s : sizes) {
      nonempty += s > 0 ? 1 : 0;
      largest = std::max(largest, s);
    }
    EXPECT_GE(nonempty, 2u) << "seed " << seed;
    EXPECT_LT(largest, kSmall) << "seed " << seed;
  }
}

TEST(ConcurrentMultiQueue, TinyBulkInsertStillDeliversEverything) {
  // Degenerate sizes around the new >=2-chunk floor: nothing lost, nothing
  // duplicated, even for 1-key batches (which necessarily fill one chunk).
  ConcurrentMultiQueue q(4, 41);
  std::uint32_t next = 0;
  for (const std::uint32_t size : {1u, 2u, 3u, 63u, 64u, 65u, 127u}) {
    std::vector<Priority> batch;
    for (std::uint32_t i = 0; i < size; ++i) batch.push_back(next++);
    q.bulk_insert(batch);
  }
  std::vector<char> seen(next, 0);
  std::uint32_t n = 0;
  while (auto p = q.approx_get_min()) {
    ASSERT_LT(*p, next);
    ASSERT_FALSE(seen[*p]);
    seen[*p] = 1;
    ++n;
  }
  EXPECT_EQ(n, next);
}

TEST(ConcurrentMultiQueue, BulkInsertCompactionTriggersAndLosesNothing) {
  // Drive the consumed-prefix compaction path (cursor * 2 >= base.size()
  // erase) hard: rounds of live batched inserts interleaved with partial
  // drains grow each sub-queue's consumed prefix until bulk_insert must
  // compact. The compactions() counter proves the path actually ran; the
  // exactly-once ledger proves it dropped and duplicated nothing.
  ConcurrentMultiQueue q(2, 43);
  constexpr std::uint32_t kBatch = 256;
  constexpr std::uint32_t kRounds = 48;
  constexpr std::uint32_t kN = kBatch * kRounds;
  std::vector<char> seen(kN, 0);
  std::uint32_t popped = 0;
  Priority next = 0;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    std::vector<Priority> batch;
    for (std::uint32_t i = 0; i < kBatch; ++i) batch.push_back(next++);
    q.bulk_insert(batch);
    // Pop 3/4 of the batch so a live tail survives in base across the next
    // insert's merge (and, periodically, its compaction).
    for (std::uint32_t i = 0; i < kBatch - kBatch / 4; ++i) {
      const auto p = q.approx_get_min();
      ASSERT_TRUE(p.has_value());
      ASSERT_LT(*p, kN);
      ASSERT_FALSE(seen[*p]);
      seen[*p] = 1;
      ++popped;
    }
  }
  EXPECT_GT(q.compactions(), 0u);
  while (auto p = q.approx_get_min()) {
    ASSERT_FALSE(seen[*p]);
    seen[*p] = 1;
    ++popped;
  }
  EXPECT_EQ(popped, kN);
  EXPECT_TRUE(q.empty());
  for (std::uint32_t i = 0; i < kN; ++i) ASSERT_TRUE(seen[i]) << "label " << i;
}

TEST(ConcurrentMultiQueue, AppendingRunsCostsAmortizedNotLiveSize) {
  // A batched insert that lands above a sub-queue's tail is a plain append.
  // Its cost must not scale with the live elements already there: many
  // small runs have to take about as long as the same keys in one run.
  // Reserving the exact new size on every call defeats the vector's
  // geometric growth: each small run then copies the whole array, which
  // is hundreds of times slower than the single run at this size.
  constexpr Priority kLive = 1'000'000;
  constexpr std::uint32_t kRuns = 2000;
  constexpr std::uint32_t kRunLength = 64;
  std::vector<Priority> keys(kLive);
  for (Priority p = 0; p < kLive; ++p) keys[p] = p;
  std::vector<Priority> appended(kRuns * kRunLength);
  for (std::uint32_t i = 0; i < appended.size(); ++i) appended[i] = kLive + i;

  const auto timed = [&](bool one_call) {
    ConcurrentMultiQueue q(2, 7);
    q.bulk_load(keys);
    util::Timer timer;
    if (one_call) {
      q.bulk_insert(appended);
    } else {
      for (std::uint32_t r = 0; r < kRuns; ++r)
        q.bulk_insert(std::span<const Priority>(
            appended.data() + r * kRunLength, kRunLength));
    }
    const double seconds = timer.seconds();
    EXPECT_EQ(q.size(), kLive + appended.size());
    return seconds;
  };
  double runs = 1e9;
  double single = 1e9;
  for (int trial = 0; trial < 5; ++trial) {
    runs = std::min(runs, timed(false));
    single = std::min(single, timed(true));
  }
  EXPECT_LE(runs, 10.0 * single)
      << "runs " << runs << " s vs one call " << single << " s";
}

TEST(ConcurrentMultiQueue, BelowTailRunsCostAmortizedNotLiveSize) {
  // Re-insertions (SSSP's relaxed distances) land below a sub-queue's
  // tail. Merging each such run into the sorted base costs O(live) per
  // call, hundreds of times the cost of the same runs above the tail at
  // this size. Below-tail keys go to the heap and spill back into base
  // only once per live/16 keys, so the two must cost about the same.
  constexpr Priority kLive = 1'000'000;
  constexpr std::uint32_t kRuns = 2000;
  constexpr std::uint32_t kRunLength = 64;
  std::vector<Priority> evens(kLive);
  for (Priority p = 0; p < kLive; ++p) evens[p] = 2 * p;
  // Distinct odd keys drawn uniformly below the tail, sorted per run.
  std::vector<Priority> odds(kLive);
  for (Priority p = 0; p < kLive; ++p) odds[p] = 2 * p + 1;
  util::Rng rng(17);
  util::shuffle(std::span<Priority>(odds), rng);
  odds.resize(kRuns * kRunLength);
  for (std::uint32_t r = 0; r < kRuns; ++r)
    std::sort(odds.begin() + r * kRunLength,
              odds.begin() + (r + 1) * kRunLength);
  std::vector<Priority> above(kRuns * kRunLength);
  for (std::uint32_t i = 0; i < above.size(); ++i) above[i] = 2 * kLive + i;

  const auto timed = [&](ConcurrentMultiQueue& q,
                         const std::vector<Priority>& runs) {
    q.bulk_load(evens);
    util::Timer timer;
    for (std::uint32_t r = 0; r < kRuns; ++r)
      q.bulk_insert(std::span<const Priority>(runs.data() + r * kRunLength,
                                              kRunLength));
    const double seconds = timer.seconds();
    EXPECT_EQ(q.size(), kLive + runs.size());
    return seconds;
  };
  double below = 1e9;
  double tail = 1e9;
  for (int trial = 0; trial < 5; ++trial) {
    ConcurrentMultiQueue below_q(2, 7);
    below = std::min(below, timed(below_q, odds));
    ConcurrentMultiQueue tail_q(2, 7);
    tail = std::min(tail, timed(tail_q, above));
  }
  EXPECT_LE(below, 10.0 * tail)
      << "below-tail runs " << below << " s vs above-tail runs " << tail
      << " s";

  // Exactly once: the spills moved every key, and lost or doubled none.
  ConcurrentMultiQueue q(2, 7);
  timed(q, odds);
  EXPECT_GT(q.spills(), 0u);
  std::vector<char> seen(2 * kLive, 0);
  std::vector<Priority> batch;
  std::size_t popped = 0;
  while (q.approx_get_min_batch(64, batch) > 0) {
    for (const Priority p : batch) {
      ASSERT_LT(p, 2 * kLive);
      ASSERT_FALSE(seen[p]) << "key " << p << " popped twice";
      seen[p] = 1;
    }
    popped += batch.size();
    batch.clear();
  }
  EXPECT_EQ(popped, kLive + odds.size());
  for (const Priority p : evens) ASSERT_TRUE(seen[p]) << "key " << p;
  for (const Priority p : odds) ASSERT_TRUE(seen[p]) << "key " << p;
}

TEST(ConcurrentMultiQueue, SingleSubQueuePairPopsExactWithBulkLoad) {
  // With 2 sub-queues and two-choice sampling, every pop compares both
  // tops, so the global minimum is always returned: exact behaviour.
  ConcurrentMultiQueue q(2, 11);
  std::vector<Priority> labels(500);
  for (Priority p = 0; p < 500; ++p) labels[p] = p;
  q.bulk_load(labels);
  for (Priority expect = 0; expect < 500; ++expect)
    EXPECT_EQ(q.approx_get_min(), expect);
}

}  // namespace
}  // namespace relax::sched
