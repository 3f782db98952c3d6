// Empirical validation of Definition 1: rank-error and inversion tails.
// These are statistical sanity checks with generous margins (the benches
// print the full tail tables). The first half drives the sequential
// simulations directly; the BackendQuality suite at the bottom drives
// every backend registered in sched/backend_registry.h through
// RelaxationMonitor, so each one's empirical rank-error envelope is pinned
// against its nominal Definition 1 bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "sched/backend_registry.h"
#include "sched/concurrent_multiqueue.h"
#include "sched/exact_heap.h"
#include "sched/handles.h"
#include "sched/kbounded.h"
#include "sched/lockfree_multiqueue.h"
#include "sched/relaxation_monitor.h"
#include "sched/sim_multiqueue.h"
#include "sched/sim_spraylist.h"
#include "sched/stripe_map.h"
#include "sched/topk_uniform.h"
#include "util/rng.h"

#include <utility>

namespace relax::sched {
namespace {

template <typename S>
void drain_full_universe(RelaxationMonitor<S>& mon, std::uint32_t n) {
  for (Priority p = 0; p < n; ++p) mon.insert(p);
  while (mon.approx_get_min()) {
  }
}

TEST(RelaxationMonitor, ExactSchedulerHasZeroRankError) {
  RelaxationMonitor<ExactHeapScheduler> mon(ExactHeapScheduler{}, 1000, 1);
  drain_full_universe(mon, 1000);
  EXPECT_EQ(mon.rank_histogram().total(), 1000u);
  EXPECT_EQ(mon.rank_histogram().max_value(), 0u);
  EXPECT_EQ(mon.inversion_histogram().max_value(), 0u);
}

TEST(RelaxationMonitor, CountsMatchDeliveries) {
  RelaxationMonitor<SimMultiQueue> mon(SimMultiQueue(4, 1), 500, 10);
  drain_full_universe(mon, 500);
  EXPECT_EQ(mon.rank_histogram().total(), 500u);
  // Tracked priorities: 0, 10, 20, ..., 490 -> 50 inversion samples.
  EXPECT_EQ(mon.inversion_histogram().total(), 50u);
}

TEST(RelaxationMonitor, TopKRankCappedAtKMinusOne) {
  constexpr std::uint32_t kK = 16;
  RelaxationMonitor<TopKUniformScheduler> mon(
      TopKUniformScheduler(2000, kK, 3), 2000, 1);
  drain_full_universe(mon, 2000);
  EXPECT_LT(mon.rank_histogram().max_value(), kK);
  // Mean rank of uniform-top-k is ~ (k-1)/2.
  const double tail_half = mon.rank_histogram().tail_fraction_at_least(kK / 2);
  EXPECT_GT(tail_half, 0.3);
  EXPECT_LT(tail_half, 0.7);
}

TEST(RelaxationMonitor, MultiQueueRankTailDecaysExponentially) {
  constexpr std::uint32_t kQueues = 8;
  RelaxationMonitor<SimMultiQueue> mon(SimMultiQueue(kQueues, 7), 20000, 1);
  drain_full_universe(mon, 20000);
  const auto& h = mon.rank_histogram();
  // The PODC'17 analysis gives Pr[rank >= l] <= exp(-l/O(q)). Check the
  // empirical tail at a few multiples of q with generous constants.
  EXPECT_LT(h.tail_fraction_at_least(4 * kQueues), 0.25);
  EXPECT_LT(h.tail_fraction_at_least(16 * kQueues), 0.01);
  EXPECT_GT(h.tail_fraction_at_least(1), 0.1);  // it IS relaxed
}

TEST(RelaxationMonitor, MultiQueueFairnessTailDecays) {
  constexpr std::uint32_t kQueues = 8;
  RelaxationMonitor<SimMultiQueue> mon(SimMultiQueue(kQueues, 9), 20000, 1);
  drain_full_universe(mon, 20000);
  const auto& h = mon.inversion_histogram();
  EXPECT_EQ(h.total(), 20000u);
  // phi = O(q log q); tails beyond ~8*q*log(q) should be tiny.
  EXPECT_LT(h.tail_fraction_at_least(200), 0.02);
}

TEST(RelaxationMonitor, SprayListStaysWithinReach) {
  auto spray = make_sim_spraylist(5000, 8, 3);
  const auto reach = spray.reach();
  RelaxationMonitor<SimSprayList> mon(std::move(spray), 5000, 1);
  drain_full_universe(mon, 5000);
  EXPECT_LE(mon.rank_histogram().max_value(), reach);
}

TEST(RelaxationMonitor, KBoundedDeterministicRankCap) {
  constexpr std::uint32_t kK = 8;
  RelaxationMonitor<KBoundedScheduler> mon(KBoundedScheduler(kK), 4096, 1);
  drain_full_universe(mon, 4096);
  EXPECT_LT(mon.rank_histogram().max_value(), kK);
  // Worst-case-within-window service: all pops land at rank k-1, except
  // the periodic fairness valve (1/k of pops, rank 0) and the final
  // window drain — so a (k-1)/k fraction, minus the tail.
  const double at_back = mon.rank_histogram().tail_fraction_at_least(kK - 1);
  EXPECT_GT(at_back, 0.85);
  EXPECT_LT(at_back, 0.9);
  // The fairness valve serves the exact minimum every k-th pop.
  const double exact = 1.0 - mon.rank_histogram().tail_fraction_at_least(1);
  EXPECT_GT(exact, 0.1);
  EXPECT_LT(exact, 0.15);
}

TEST(RelaxationMonitor, LargerKMeansLargerMeanRank) {
  auto mean_rank = [](std::uint32_t k) {
    RelaxationMonitor<TopKUniformScheduler> mon(
        TopKUniformScheduler(10000, k, 5), 10000, 1);
    for (Priority p = 0; p < 10000; ++p) mon.insert(p);
    while (mon.approx_get_min()) {
    }
    double sum = 0;
    const auto& b = mon.rank_histogram().buckets();
    for (std::size_t i = 0; i < b.size(); ++i)
      sum += static_cast<double>(b[i]) * static_cast<double>((1u << i) - 1);
    return sum / 10000.0;
  };
  EXPECT_LT(mean_rank(4), mean_rank(64));
}

// ---------------------------------------------------------------------------
// Registry-wide quality: every concurrent backend, driven through
// RelaxationMonitor via its quiescent SequentialView, must keep its
// empirical rank errors within a generous multiple of the nominal
// Definition 1 bound expected_rank_bound() reports for it. Seeded and
// single-threaded, so these are deterministic — no flaky tight constants.
// ---------------------------------------------------------------------------

TEST(BackendQuality, EveryRegistryBackendStaysWithinItsRankEnvelope) {
  constexpr std::uint32_t kN = 20000;
  for (const BackendInfo& info : backend_registry()) {
    SCOPED_TRACE(std::string("backend: ") + std::string(info.name));
    BackendParams params;
    params.threads = 8;
    params.queue_factor = 4;
    params.seed = 99;
    params.capacity = kN;
    const std::uint64_t bound = expected_rank_bound(info, params);
    ASSERT_GE(bound, 1u);
    dispatch_backend(info, params, [&](auto tag, auto&&... args) {
      using Queue = typename decltype(tag)::type;
      Queue queue(std::forward<decltype(args)>(args)...);
      RelaxationMonitor<SequentialView<Queue>> mon(SequentialView<Queue>(queue),
                                                   kN, 16);
      for (Priority p = 0; p < kN; ++p) mon.insert(p);
      while (mon.approx_get_min()) {
      }
      const auto& ranks = mon.rank_histogram();
      // Counting: the monitor saw every pop exactly once.
      ASSERT_EQ(ranks.total(), kN);
      EXPECT_EQ(mon.inversion_histogram().total(), kN / 16);
      // Mean rank error is O(bound); 2x is a generous constant for every
      // backend in the registry (the deterministic window averages
      // ~(k-1)(1 - 1/k), the randomized structures well under bound).
      EXPECT_LE(ranks.mean(), 2.0 * static_cast<double>(bound));
      // Definition 1 tail: Pr[rank >= 8k] <= e^-8 ~ 3e-4 for a
      // (k, phi)-relaxed scheduler; allow two orders of magnitude slack.
      EXPECT_LT(ranks.tail_fraction_at_least(8 * bound), 0.02);
      if (info.deterministic) {
        // Window/exact backends honour the rank bound strictly.
        EXPECT_LT(ranks.max_value(), bound);
      }
    });
  }
}

TEST(BackendQuality, ExactBackendIsExact) {
  constexpr std::uint32_t kN = 5000;
  const BackendInfo& exact = backend_or_throw("exact");
  BackendParams params;
  params.threads = 8;
  params.capacity = kN;
  dispatch_backend(exact, params, [&](auto tag, auto&&... args) {
    using Queue = typename decltype(tag)::type;
    Queue queue(std::forward<decltype(args)>(args)...);
    RelaxationMonitor<SequentialView<Queue>> mon(SequentialView<Queue>(queue),
                                                 kN, 1);
    for (Priority p = 0; p < kN; ++p) mon.insert(p);
    while (mon.approx_get_min()) {
    }
    EXPECT_EQ(mon.rank_histogram().total(), kN);
    EXPECT_EQ(mon.rank_histogram().max_value(), 0u);
    EXPECT_EQ(mon.inversion_histogram().max_value(), 0u);
  });
}

// Batch-aware Definition 1 envelopes: a native batched pop claims k
// consecutive minima from ONE best-of-c sub-structure, so batch element i
// is served ~i sub-structure spacings past the single-pop bound — the rank
// scale becomes O(k * k_0) (batched_rank_bound), NOT the single-pop k_0.
// This test certifies both directions at once: the batched path's measured
// envelope stays within the k-scaled bound for every registry backend
// (including the one-at-a-time shim backends, whose per-pop bound the
// scaled envelope dominates), and the monitor's counting shows every
// batched pop was recorded exactly once. bench/backend_matrix's quality
// columns report the same quantity for concurrent runs.
TEST(BackendQuality, BatchedPopsStayWithinBatchAwareEnvelope) {
  constexpr std::uint32_t kN = 20000;
  constexpr std::size_t kBatch = 8;
  for (const BackendInfo& info : backend_registry()) {
    SCOPED_TRACE(std::string("backend: ") + std::string(info.name));
    BackendParams params;
    params.threads = 8;
    params.queue_factor = 4;
    params.seed = 101;
    params.capacity = kN;
    const std::uint64_t bound = batched_rank_bound(info, params, kBatch);
    ASSERT_GE(bound, expected_rank_bound(info, params));
    dispatch_backend(info, params, [&](auto tag, auto&&... args) {
      using Queue = typename decltype(tag)::type;
      Queue queue(std::forward<decltype(args)>(args)...);
      RelaxationMonitor<SequentialView<Queue>> mon(SequentialView<Queue>(queue),
                                                   kN, 16);
      for (Priority p = 0; p < kN; ++p) mon.insert(p);
      std::vector<Priority> buf;
      while (mon.approx_get_min_batch(kBatch, buf) > 0) buf.clear();
      const auto& ranks = mon.rank_histogram();
      // Counting: the monitor accounted every batched pop exactly once.
      ASSERT_EQ(ranks.total(), kN);
      EXPECT_EQ(mon.inversion_histogram().total(), kN / 16);
      EXPECT_LE(ranks.mean(), 2.0 * static_cast<double>(bound));
      EXPECT_LT(ranks.tail_fraction_at_least(8 * bound), 0.02);
      if (info.deterministic) {
        // Shim-batched deterministic backends still honour their strict
        // per-pop cap: batching must not loosen a hard rank guarantee.
        EXPECT_LT(ranks.max_value(), expected_rank_bound(info, params));
      }
    });
  }
}

// The batched Definition 1 envelope must also hold when the *insert* side
// is batched: labels enter through RelaxationMonitor::insert_batch (the
// backend's native sorted-run splice where one exists) in mixed-size runs,
// and leave through batched pops. A batched insert concentrates its run in
// one sub-structure, so this pins down that the transient skew never blows
// the k-scaled rank envelope — the whole-system symmetry claim of the
// insert-side batching work.
TEST(BackendQuality, BatchedInsertsStayWithinBatchAwareEnvelope) {
  constexpr std::uint32_t kN = 20000;
  constexpr std::size_t kBatch = 8;
  for (const BackendInfo& info : backend_registry()) {
    SCOPED_TRACE(std::string("backend: ") + std::string(info.name));
    BackendParams params;
    params.threads = 8;
    params.queue_factor = 4;
    params.seed = 103;
    params.capacity = kN;
    const std::uint64_t bound = batched_rank_bound(info, params, kBatch);
    dispatch_backend(info, params, [&](auto tag, auto&&... args) {
      using Queue = typename decltype(tag)::type;
      Queue queue(std::forward<decltype(args)>(args)...);
      RelaxationMonitor<SequentialView<Queue>> mon(SequentialView<Queue>(queue),
                                                   kN, 16);
      std::vector<Priority> labels(kN);
      for (Priority p = 0; p < kN; ++p) labels[p] = p;
      util::Rng rng(29);
      util::shuffle(std::span<Priority>(labels), rng);
      // Mixed run lengths: single inserts, engine-style re-insertion runs,
      // and admission-sized chunks.
      constexpr std::size_t kRuns[] = {1, 8, 64, 3, 256};
      std::size_t off = 0, run_ix = 0;
      while (off < kN) {
        const std::size_t len = std::min<std::size_t>(
            kRuns[run_ix++ % std::size(kRuns)], kN - off);
        mon.insert_batch(std::span<const Priority>(labels.data() + off, len));
        off += len;
      }
      std::vector<Priority> buf;
      while (mon.approx_get_min_batch(kBatch, buf) > 0) buf.clear();
      const auto& ranks = mon.rank_histogram();
      // Counting: every batched insert reached the mirror and the backend
      // exactly once — nothing lost or invented by the splice paths.
      ASSERT_EQ(ranks.total(), kN);
      EXPECT_EQ(mon.inversion_histogram().total(), kN / 16);
      EXPECT_LE(ranks.mean(), 2.0 * static_cast<double>(bound));
      EXPECT_LT(ranks.tail_fraction_at_least(8 * bound), 0.02);
    });
  }
}

// The inversion (fairness) tail for the MultiQueue family: phi is
// O(q log q), so mass beyond ~40q must be negligible. Restricted to the
// two-choice structures — the deterministic window's fairness guarantee is
// k*r + k per element (not a uniform exponential tail), and spray-family
// inversions concentrate at the p polylog p scale with weaker constants.
TEST(BackendQuality, MultiQueueFamilyInversionTailDecays) {
  constexpr std::uint32_t kN = 20000;
  for (const BackendInfo& info : backend_registry()) {
    if (info.kind != BackendKind::kMultiQueue &&
        info.kind != BackendKind::kLockFreeMultiQueue &&
        info.kind != BackendKind::kSimMultiQueue) {
      continue;
    }
    SCOPED_TRACE(std::string("backend: ") + std::string(info.name));
    BackendParams params;
    params.threads = 8;
    params.queue_factor = 4;
    params.seed = 7;
    params.capacity = kN;
    const std::uint64_t bound = expected_rank_bound(info, params);
    dispatch_backend(info, params, [&](auto tag, auto&&... args) {
      using Queue = typename decltype(tag)::type;
      Queue queue(std::forward<decltype(args)>(args)...);
      // Stride 8: tracking cost is O(kN^2 / stride) across the drain; 2500
      // inversion samples are plenty for a 2% tail assertion.
      RelaxationMonitor<SequentialView<Queue>> mon(SequentialView<Queue>(queue),
                                                   kN, 8);
      for (Priority p = 0; p < kN; ++p) mon.insert(p);
      while (mon.approx_get_min()) {
      }
      const auto& inversions = mon.inversion_histogram();
      EXPECT_EQ(inversions.total(), kN / 8);
      EXPECT_LT(inversions.tail_fraction_at_least(40 * bound), 0.02);
    });
  }
}

// Dijkstra-shaped re-insertion: every pop "relaxes" a few neighbours whose
// keys land a short way above the popped key, far below the tails of the
// sub-queues' sorted base arrays. Those runs take the MultiQueue's heap
// path and, in bulk, spill back into base. Moving keys between heap and
// base keeps each sub-queue's order, so the rank envelope of multiqueue-c2
// must hold exactly as it does for plain inserts.
TEST(BackendQuality, BelowTailReinsertsWithSpillsStayWithinEnvelope) {
  constexpr std::uint32_t kN = 1u << 16;
  constexpr std::uint32_t kWindow = 1u << 14;  // neighbour key spread
  constexpr std::uint32_t kFanout = 8;         // relaxations per pop
  BackendParams params;
  params.threads = 2;
  params.queue_factor = 4;
  params.capacity = kN;
  const std::uint64_t bound =
      expected_rank_bound(backend_or_throw("multiqueue-c2"), params);

  ConcurrentMultiQueue queue(params.threads * params.queue_factor,
                             /*seed=*/105);
  RelaxationMonitor<SequentialView<ConcurrentMultiQueue>> mon(
      SequentialView<ConcurrentMultiQueue>(queue), kN, 64);
  // The "sources": every even key, admitted as one run.
  std::vector<Priority> run;
  for (Priority p = 0; p < kN; p += 2) run.push_back(p);
  mon.insert_batch(run);
  std::size_t inserted = run.size();
  // The "tentative distances": odd keys, each inserted once, drawn just
  // above the key whose pop relaxes them.
  std::vector<char> issued(kN, 0);
  util::Rng rng(31);
  while (const auto p = mon.approx_get_min()) {
    run.clear();
    for (std::uint32_t i = 0; i < kFanout; ++i) {
      const Priority o =
          (*p + 1 + static_cast<Priority>(util::bounded(rng, kWindow))) | 1u;
      if (o < kN && issued[o] == 0) {
        issued[o] = 1;
        run.push_back(o);
      }
    }
    std::sort(run.begin(), run.end());
    mon.insert_batch(run);
    inserted += run.size();
  }
  EXPECT_GT(queue.spills(), 0u) << "the leg never reached the spill path";
  const auto& ranks = mon.rank_histogram();
  ASSERT_EQ(ranks.total(), inserted);  // counting: every key popped once
  EXPECT_TRUE(queue.empty());
  EXPECT_LE(ranks.mean(), 2.0 * static_cast<double>(bound));
  EXPECT_LT(ranks.tail_fraction_at_least(8 * bound), 0.02);
}

// ---------------------------------------------------------------------------
// Topology-striped sampling quality. The rank analysis behind Definition 1
// is oblivious to WHICH sub-queues a sampler probes, so the StripeMap's
// domain-biased sampling (own block best-of-c, every kStealPeriod-th
// sample stealing cross-domain) must keep the same empirical envelope as
// the flat process as long as every domain's workers keep draining — that
// is what the engine guarantees by giving every domain workers. The
// flip side is pinned too: with stealing ablated (steal_period 0), a
// domain whose workers stall simply stops being served — the regression
// the bounded steal exists to prevent.
// ---------------------------------------------------------------------------

/// A quiescently-driven "pool" of one handle per domain, round-robin over
/// ops — models workers on every domain taking turns, the placement the
/// engine sets up, narrowed to the SequentialScheduler concept so
/// RelaxationMonitor can mirror it exactly.
template <typename Queue>
class StripedPoolView {
 public:
  StripedPoolView(Queue& queue, unsigned domains) : queue_(&queue) {
    for (unsigned d = 0; d < domains; ++d) {
      handles_.push_back(queue.get_handle());
      handles_.back().set_domain(d);
    }
  }
  void insert(Priority p) { next().insert(p); }
  std::optional<Priority> approx_get_min() { return next().approx_get_min(); }
  [[nodiscard]] bool empty() const { return queue_->empty(); }
  [[nodiscard]] std::size_t size() const { return queue_->size(); }

  [[nodiscard]] StripeStats stripe_stats() const {
    StripeStats total;
    for (const auto& h : handles_) {
      const StripeStats s = h.stripe_stats();
      total.local_claims += s.local_claims;
      total.steal_claims += s.steal_claims;
    }
    return total;
  }

 private:
  auto& next() { return handles_[ix_++ % handles_.size()]; }
  Queue* queue_;
  std::vector<decltype(std::declval<Queue&>().get_handle())> handles_;
  std::size_t ix_ = 0;
};

template <typename Queue>
void striped_envelope_leg() {
  constexpr std::uint32_t kN = 20000;
  constexpr std::uint32_t kQueues = 32;  // 8 threads x factor 4
  // The nominal Definition 1 bound for the matching flat configuration:
  // striped sampling must live inside the SAME envelope.
  BackendParams params;
  params.threads = 8;
  params.queue_factor = 4;
  params.capacity = kN;
  const std::uint64_t bound =
      expected_rank_bound(backend_or_throw("multiqueue-c2"), params);

  Queue queue(kQueues, /*seed=*/77);
  queue.set_stripe_map(StripeMap(kQueues, 2));
  RelaxationMonitor<StripedPoolView<Queue>> mon(
      StripedPoolView<Queue>(queue, 2), kN, 16);
  for (Priority p = 0; p < kN; ++p) mon.insert(p);
  while (mon.approx_get_min()) {
  }
  const auto& ranks = mon.rank_histogram();
  ASSERT_EQ(ranks.total(), kN);  // counting: nothing lost to the stripes
  EXPECT_LE(ranks.mean(), 2.0 * static_cast<double>(bound));
  EXPECT_LT(ranks.tail_fraction_at_least(8 * bound), 0.02);
  // The bias is real: claims are overwhelmingly domain-local, and the
  // steal cadence actually fired (one sample in kStealPeriod).
  const StripeStats stats = mon.inner().stripe_stats();
  EXPECT_EQ(stats.local_claims + stats.steal_claims, kN);
  EXPECT_GT(stats.steal_claims, 0u);
  EXPECT_GT(stats.local_claims, stats.steal_claims);
}

TEST(StripedQuality, MultiQueueBiasedSamplingHoldsTheEnvelope) {
  striped_envelope_leg<ConcurrentMultiQueue>();
}

TEST(StripedQuality, LockFreeMultiQueueBiasedSamplingHoldsTheEnvelope) {
  striped_envelope_leg<LockFreeMultiQueue>();
}

TEST(StripedQuality, DisabledStealStarvesAnIdleDomain) {
  // Two domains, but only domain 1's worker drains — the stalled-domain
  // scenario. Evens live in domain 0's block, odds in domain 1's.
  constexpr Priority kN = 8192;
  constexpr std::uint32_t kQueues = 16;
  const auto fill = [](auto& h0, auto& h1) {
    for (Priority p = 0; p < kN; ++p) {
      if (p % 2 == 0) {
        h0.insert(p);
      } else {
        h1.insert(p);
      }
    }
  };

  // Steal ablated: while its own block has work, the draining handle
  // NEVER serves domain 0 — the global minimum (priority 0) starves for
  // the entire first half of the drain.
  {
    ConcurrentMultiQueue queue(kQueues, /*seed=*/5);
    queue.set_stripe_map(StripeMap(kQueues, 2, /*steal_period=*/0));
    auto h0 = queue.get_handle();
    auto h1 = queue.get_handle();
    h0.set_domain(0);
    h1.set_domain(1);
    fill(h0, h1);
    for (Priority i = 0; i < kN / 2; ++i) {
      const auto got = h1.approx_get_min();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got % 2, 1u) << "steal-disabled drain served a foreign key";
    }
    EXPECT_EQ(h1.stripe_stats().steal_claims, 0u);
    EXPECT_EQ(queue.size(), kN / 2);  // every even key still waiting
  }

  // Bounded steal on: the same drain serves domain 0 on the kStealPeriod
  // cadence, so the starved block's minima keep flowing.
  {
    ConcurrentMultiQueue queue(kQueues, /*seed=*/5);
    queue.set_stripe_map(StripeMap(kQueues, 2));
    auto h0 = queue.get_handle();
    auto h1 = queue.get_handle();
    h0.set_domain(0);
    h1.set_domain(1);
    fill(h0, h1);
    Priority evens_served = 0;
    for (Priority i = 0; i < kN / 2; ++i) {
      const auto got = h1.approx_get_min();
      ASSERT_TRUE(got.has_value());
      if (*got % 2 == 0) ++evens_served;
    }
    const StripeStats stats = h1.stripe_stats();
    EXPECT_EQ(stats.steal_claims, evens_served);
    // One sample in kStealPeriod targets the foreign block and every
    // claim lands (quiescent drive): within rounding, 1/8 of the pops.
    EXPECT_GE(evens_served, kN / 2 / (2 * StripeMap::kStealPeriod));
  }
}

}  // namespace
}  // namespace relax::sched
