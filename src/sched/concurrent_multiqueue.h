// Concurrent MultiQueue (Rihani, Sanders, Dementiev, SPAA'15), the relaxed
// scheduler used for the paper's concurrent MIS experiments (§4).
//
// Layout: q = queue_factor * num_threads sub-queues (the paper uses factor
// 4), each a cache-line-padded {spinlock, two-part priority queue (sorted
// `base` array consumed by a cursor + 8-ary min-heap for keys that arrive
// below base's tail), atomic top cache}. Every insert follows one rule
// (SubQueue::insert_run): runs at or above the tail append to base, runs
// below it go to the heap, and a heap grown past 1/16 of the live base
// spills back into base in one merge.
//
//   Insert(p):        lock a uniformly random sub-queue (retrying with a new
//                     victim on contention), insert, refresh the top cache.
//   ApproxGetMin():   sample two distinct sub-queues, compare their atomic
//                     top caches without locking, lock the apparent smaller
//                     one, re-verify, pop. On contention or a lost race,
//                     resample.
//
// The top cache makes the two-choice comparison lock-free; staleness only
// perturbs the choice distribution, never correctness (the popped element is
// re-read under the lock). Alistarh et al. [2] prove the two-choice process
// is (O(q), O(q log q))-relaxed; concurrent executions preserve the bounds
// under the analytic assumptions of [1].
//
// Emptiness: approx_get_min falls back to a full top-cache scan after
// `probe_limit` consecutive empty samples and returns nullopt only when the
// scan sees every sub-queue empty. With concurrent re-insertions in flight
// this is necessarily heuristic — executors must use their own termination
// criterion (retirement counting; see core/parallel_executor.h) and treat
// nullopt as "retry or check termination".
//
// Scalability note: there is deliberately *no* global element counter — a
// shared atomic touched by every insert/pop serializes the whole scheduler
// through one cache line and flattens the Figure 2 thread sweep. Counts are
// striped per sub-queue (updated under that queue's lock, whose line the
// owner already holds exclusively); size() sums the stripes and is racy
// under concurrency, exact when quiescent.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>
#include <limits>
#include <mutex>
#include <optional>
#include <vector>

#include "sched/dary_heap.h"
#include "sched/sampling.h"
#include "sched/scheduler.h"
#include "sched/stripe_map.h"
#include "util/padded.h"
#include "util/rng.h"
#include "util/spinlock.h"

namespace relax::sched {

/// Key type must be an unsigned integer; the maximum value is reserved as
/// the "empty" sentinel for the lock-free top cache. The framework uses
/// Key = Priority (dense labels); SSSP packs (distance << 32 | vertex) into
/// 64-bit keys.
template <typename Key = Priority>
class BasicConcurrentMultiQueue {
  static_assert(std::is_unsigned_v<Key>);

 public:
  static constexpr Key kEmptyTop = std::numeric_limits<Key>::max();

  /// num_queues should be queue_factor * num_threads; seed derives
  /// per-thread RNG streams deterministically. choices selects the number
  /// of sampled sub-queues per pop: 2 is the classic power-of-two-choices
  /// MultiQueue; 1 degrades to uniform single sampling (no rank bound —
  /// exposed for the ablation bench). probe_limit is the number of
  /// consecutive empty samples before approx_get_min falls back to a full
  /// top-cache scan (0 scans on every pop — a testing/near-empty-workload
  /// seam, not a production setting).
  explicit BasicConcurrentMultiQueue(std::uint32_t num_queues,
                                     std::uint64_t seed = 1,
                                     unsigned choices = 2,
                                     int probe_limit = kProbeLimit)
      : queues_(std::max<std::uint32_t>(num_queues, 2)),
        seed_(seed),
        choices_(choices < 1 ? 1 : choices),
        probe_limit_(probe_limit < 0 ? 0 : probe_limit) {}

  BasicConcurrentMultiQueue(const BasicConcurrentMultiQueue&) = delete;
  BasicConcurrentMultiQueue& operator=(const BasicConcurrentMultiQueue&) =
      delete;

  /// Thread-local handle. Each thread must obtain its own (cheap, just an
  /// RNG stream + pointer); handles may not be shared across threads.
  class Handle {
   public:
    void insert(Key p) { mq_->insert(p, rng_, &ctx_); }
    /// Batched live insert: amortizes locking over the whole batch (one
    /// sub-queue lock per chunk instead of per key). Safe concurrently with
    /// any handle operation; see bulk_insert below.
    void bulk_insert(std::span<const Key> keys) {
      mq_->bulk_insert(keys, rng_, &ctx_);
    }
    /// Native batched insert (the uniform name sched::insert_batch
    /// dispatches on): bulk_insert's strided deal — sort the run once, one
    /// lock per target sub-queue, each share inserted by the sub-queue's
    /// append-or-heap rule.
    void insert_batch(std::span<const Key> keys) {
      mq_->bulk_insert(keys, rng_, &ctx_);
    }
    std::optional<Key> approx_get_min() {
      return mq_->approx_get_min(rng_, &ctx_);
    }
    /// Batched pop: one best-of-c sample + one sub-queue lock, then up to
    /// `k` pops (O(1) cursor advances while the sorted base lasts). Appends
    /// to `out`, returns the number claimed; 0 means observed empty. May
    /// return fewer than k when the chosen sub-queue holds fewer — callers
    /// just process what they got. Rank cost is O(k * q) per batch (the
    /// batch drains one sub-queue's prefix); see batched_rank_bound.
    std::size_t approx_get_min_batch(std::size_t k, std::vector<Key>& out) {
      return mq_->approx_get_min_batch(k, out, rng_, &ctx_);
    }

    /// The owning worker's topology domain (engine session state sets this
    /// right after make_handle). Only meaningful once the queue carries a
    /// StripeMap with > 1 domain; otherwise placement stays flat.
    void set_domain(unsigned domain) { ctx_.domain = domain; }
    /// Cumulative local/steal claim tally for this handle (a steal = a
    /// claim served from a stripe outside the handle's domain while the
    /// queue runs with > 1 domain). The engine flushes per-slice deltas of
    /// these into obs metrics.
    [[nodiscard]] StripeStats stripe_stats() const noexcept {
      return StripeStats{ctx_.local_claims, ctx_.steal_claims};
    }

   private:
    friend class BasicConcurrentMultiQueue;
    Handle(BasicConcurrentMultiQueue* mq, std::uint64_t stream)
        : mq_(mq), rng_(stream) {}
    BasicConcurrentMultiQueue* mq_;
    util::Rng rng_;
    StripeContext ctx_;
  };

  [[nodiscard]] Handle get_handle() {
    const std::uint64_t id =
        next_handle_.fetch_add(1, std::memory_order_relaxed);
    return Handle(this, seed_ ^ (0x9e3779b97f4a7c15ULL * (id + 1)));
  }

  /// Pre-loads `keys` round-robin across the sub-queues into their sorted
  /// base arrays (single-threaded; call before spawning workers). Pops from
  /// the base are O(1) cursor advances; use this for the framework's
  /// initial task load instead of n heap pushes.
  void bulk_load(std::span<const Key> keys) {
    const std::size_t q = queues_.size();
    for (auto& padded : queues_) {
      padded->base.reserve(keys.size() / q + 1);
    }
    for (std::size_t i = 0; i < keys.size(); ++i)
      queues_[i % q]->base.push_back(keys[i]);
    for (auto& padded : queues_) {
      auto& sq = *padded;
      std::sort(sq.base.begin() + static_cast<std::ptrdiff_t>(sq.cursor),
                sq.base.end());
      sq.refresh_top();
    }
  }

  /// Single-threaded convenience form of the live batched insert.
  void bulk_insert(std::span<const Key> keys) {
    util::Rng rng(seed_ ^ sequential_ops_++);
    bulk_insert(keys, rng);
  }
  /// Uniform-name alias for the generic sched::insert_batch dispatch.
  void insert_batch(std::span<const Key> keys) { bulk_insert(keys); }

  /// Single-threaded convenience interface (satisfies SequentialScheduler
  /// modulo seeding); used by tests. Not for concurrent use — use handles.
  void insert(Key p) {
    util::Rng rng(seed_ ^ sequential_ops_++);
    insert(p, rng);
  }
  std::optional<Key> approx_get_min() {
    util::Rng rng(seed_ ^ sequential_ops_++);
    return approx_get_min(rng);
  }
  std::size_t approx_get_min_batch(std::size_t k, std::vector<Key>& out) {
    util::Rng rng(seed_ ^ sequential_ops_++);
    return approx_get_min_batch(k, out, rng);
  }

  /// Sum of the per-sub-queue stripes: exact when quiescent, a snapshot
  /// under concurrency.
  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t total = 0;
    for (const auto& q : queues_)
      total += q->count.load(std::memory_order_acquire);
    return total;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::uint32_t num_queues() const noexcept {
    return static_cast<std::uint32_t>(queues_.size());
  }

  /// Engages topology-aware placement: handle claims prefer their domain's
  /// stripe block with a bounded cross-domain steal, handle inserts land in
  /// the own block (sched/stripe_map.h). Call while quiescent, before
  /// workers touch the queue; map.stripes() must equal num_queues(). A map
  /// with one domain (or never calling this) keeps the flat path
  /// byte-for-byte unchanged.
  void set_stripe_map(const StripeMap& map) { stripe_map_ = map; }
  [[nodiscard]] const StripeMap& stripe_map() const noexcept {
    return stripe_map_;
  }

  /// Per-sub-queue element counts (the striped size): exact when quiescent,
  /// a racy snapshot under concurrency. Monitoring/test seam — this is how
  /// the bulk_insert spread regression observes placement.
  [[nodiscard]] std::vector<std::size_t> per_queue_sizes() const {
    std::vector<std::size_t> sizes;
    sizes.reserve(queues_.size());
    for (const auto& q : queues_)
      sizes.push_back(q->count.load(std::memory_order_acquire));
    return sizes;
  }

  /// Number of consumed-prefix compactions inserts have performed across
  /// all sub-queues (exact when quiescent). Lets tests prove the compaction
  /// path actually ran instead of asserting around it.
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    std::uint64_t total = 0;
    for (const auto& q : queues_)
      total += q->compactions.load(std::memory_order_acquire);
    return total;
  }

  /// Number of heap-into-base spills across all sub-queues (exact when
  /// quiescent); the same kind of test seam as compactions().
  [[nodiscard]] std::uint64_t spills() const noexcept {
    std::uint64_t total = 0;
    for (const auto& q : queues_)
      total += q->spills.load(std::memory_order_acquire);
    return total;
  }

  /// Minimum keys per bulk_insert chunk: below this the sort and lock
  /// overhead stops amortizing and the batch targets fewer sub-queues
  /// (never fewer than two — see bulk_insert).
  static constexpr std::size_t kMinBulkChunk = 64;
  /// Spill rule for keys inserted below a sub-queue's base tail: they wait
  /// in the heap until it holds at least kSpillMinKeys keys and at least
  /// 1/kSpillDivisor of the live base, then merge into base in one pass.
  /// A spill costs O(live) once per live/16 such keys, so each key pays
  /// about 16 moves plus its share of a sort, while the heap stays small
  /// enough that pops remain mostly cursor advances.
  static constexpr std::size_t kSpillMinKeys = 256;
  static constexpr std::size_t kSpillDivisor = 16;

 private:
  struct SubQueue {
    util::Spinlock lock;
    std::atomic<Key> top{kEmptyTop};
    std::atomic<std::size_t> count{0};  // updated under lock: same line
    // Two-part priority queue. `base` is sorted and consumed front-to-back
    // by `cursor`: pops from it are O(1) and stream sequentially through
    // memory instead of sifting a multi-megabyte heap (heap pops on cold
    // memory dominate per-op cost and are what makes a naive 1-thread
    // MultiQueue several times slower than the sequential baseline — the
    // paper reports the two should be close). It holds the bulk-loaded
    // task set plus every run that arrived at or above its tail. `heap`
    // (8-ary: each sift level is one cache line of children) holds keys
    // that arrived below the tail until they spill back into base (see
    // insert_run), so it stays small and hot.
    std::vector<Key> base;
    std::size_t cursor = 0;
    DaryHeap<Key, 8> heap;
    // Consumed-prefix compactions and heap spills performed on this
    // sub-queue (stored under the lock, atomic so quiescent readers need no
    // lock).
    std::atomic<std::uint64_t> compactions{0};
    std::atomic<std::uint64_t> spills{0};

    [[nodiscard]] Key current_min() const noexcept {
      const Key b = cursor < base.size() ? base[cursor] : kEmptyTop;
      const Key h = heap.empty() ? kEmptyTop : heap.top();
      return b < h ? b : h;
    }

    /// Pre: current_min() != kEmptyTop. Under lock.
    Key pop_min() noexcept {
      const Key b = cursor < base.size() ? base[cursor] : kEmptyTop;
      const Key h = heap.empty() ? kEmptyTop : heap.top();
      if (b <= h) {
        ++cursor;
        return b;
      }
      return heap.pop();
    }

    /// The one insert rule, under lock. Inserts the sorted keys
    /// run[first], run[first + stride], ... (bulk_insert's strided share;
    /// a single insert is a run of one).
    ///  - At or above the tail, or into a fully consumed base: append to
    ///    base, O(run).
    ///  - Below the tail: push into the heap, O(log h) per key; once the
    ///    heap passes the spill rule (kSpillMinKeys, kSpillDivisor), merge
    ///    it into base in one pass.
    void insert_run(std::span<const Key> run, std::size_t first,
                    std::size_t stride) {
      if (cursor == base.size() || run[first] >= base.back()) {
        // Long-lived queues accumulate a consumed prefix in base; drop it
        // before growing so memory stays proportional to live elements.
        if (cursor > 0 && cursor * 2 >= base.size()) drop_consumed();
        for (std::size_t i = first; i < run.size(); i += stride)
          base.push_back(run[i]);
        return;
      }
      for (std::size_t i = first; i < run.size(); i += stride)
        heap.push(run[i]);
      if (heap.size() >= kSpillMinKeys &&
          heap.size() * kSpillDivisor >= base.size() - cursor)
        spill();
    }

    void drop_consumed() {
      base.erase(base.begin(),
                 base.begin() + static_cast<std::ptrdiff_t>(cursor));
      cursor = 0;
      compactions.fetch_add(1, std::memory_order_release);
    }

    /// Merges the whole heap into base: sort the heap's array, drop the
    /// consumed prefix, then merge in place from the back, so the merge
    /// needs no buffer beyond the heap's own array.
    void spill() {
      std::vector<Key> run = heap.release();
      std::sort(run.begin(), run.end());
      if (cursor > 0) drop_consumed();
      std::size_t b = base.size();
      std::size_t h = run.size();
      base.resize(b + h);
      for (std::size_t out = b + h; h > 0;) {
        if (b > 0 && base[b - 1] > run[h - 1]) {
          base[--out] = base[--b];
        } else {
          base[--out] = run[--h];
        }
      }
      spills.fetch_add(1, std::memory_order_release);
    }

    void refresh_top() noexcept {
      top.store(current_min(), std::memory_order_release);
      count.store(base.size() - cursor + heap.size(),
                  std::memory_order_release);
    }
  };

  /// Live-queue batched insert, the admission + re-insertion fast path for
  /// the engine: unlike bulk_load (quiescent-only), this may run
  /// concurrently with any number of handle inserts/pops and other
  /// bulk_inserts. The batch is sorted once and dealt *round-robin*
  /// (strided) over its target sub-queues starting at a random offset —
  /// each target receives the still-sorted subsequence c, c+chunks, ...,
  /// takes its lock once, and inserts it by SubQueue::insert_run: an
  /// append to base when the share lands at or above base's tail (the
  /// admission case), heap pushes with an amortized spill back into base
  /// when it lands below (the re-insertion case). No insert pays O(live)
  /// on its own, and pops stay mostly O(1) cursor advances.
  ///
  /// The strided deal (rather than contiguous slices) is load-bearing for
  /// relaxation quality: contiguous slices put each sub-queue's share ~one
  /// whole slice apart in priority, so every two-choice pop during the
  /// batch's lifetime is off by O(slice) ranks — the audited mean rank
  /// error scales with the admission chunk (hundreds at chunk 1024).
  /// Interleaving keeps neighbouring keys in different sub-queues, exactly
  /// like bulk_load's round-robin placement, so the batch perturbs the
  /// two-choice process by O(chunks), not O(batch).
  void bulk_insert(std::span<const Key> keys, util::Rng& rng,
                   StripeContext* ctx = nullptr) {
    if (keys.empty()) return;
    // Under a StripeMap the whole run stays in the inserting handle's
    // domain block (placement is the point); targets and the start offset
    // are then drawn from that block instead of all of [0, q).
    const bool striped = ctx != nullptr && stripe_map_.domains() > 1;
    const std::size_t block_begin =
        striped ? stripe_map_.domain_begin(ctx->domain) : 0;
    const std::size_t q =
        striped ? stripe_map_.domain_size(ctx->domain) : queues_.size();
    // Never fewer than two targets: dumping a whole small batch into a
    // single random sub-queue transiently skews that queue (and the rank
    // distribution every two-choice pop samples from) until pops rebalance
    // it. q >= 2 always holds flat, so small batches still spread (a
    // 1-stripe domain block necessarily takes the whole run).
    const std::size_t chunks = std::min<std::size_t>(
        q, std::max<std::size_t>(
               2, (keys.size() + kMinBulkChunk - 1) / kMinBulkChunk));
    // Already-sorted runs (the common case: admission streams labels in
    // ascending order) are dealt straight from the caller's span; only
    // unsorted runs pay a copy + sort.
    std::span<const Key> sorted = keys;
    std::vector<Key> scratch;
    if (!std::is_sorted(keys.begin(), keys.end())) {
      scratch.assign(keys.begin(), keys.end());
      std::sort(scratch.begin(), scratch.end());
      sorted = scratch;
    }
    const std::size_t start = util::bounded(rng, q);
    for (std::size_t c = 0; c < chunks; ++c) {
      if (c >= sorted.size()) break;  // more targets than keys
      auto& sq = *queues_[block_begin + (start + c) % q];
      sq.lock.lock();
      std::lock_guard<util::Spinlock> guard(sq.lock, std::adopt_lock);
      sq.insert_run(sorted, c, chunks);
      sq.refresh_top();
    }
  }

  void insert(Key p, util::Rng& rng, StripeContext* ctx = nullptr) {
    const bool striped = ctx != nullptr && stripe_map_.domains() > 1;
    for (;;) {
      const std::size_t victim =
          striped ? sampling::pick_uniform_in_domain(TopPolicy{this},
                                                     stripe_map_, ctx->domain,
                                                     rng)
                  : sampling::pick_uniform(TopPolicy{this}, rng);
      auto& sq = *queues_[victim];
      if (!sq.lock.try_lock()) continue;  // pick a fresh victim instead
      std::lock_guard<util::Spinlock> guard(sq.lock, std::adopt_lock);
      sq.insert_run(std::span<const Key>(&p, 1), 0, 1);
      sq.refresh_top();
      return;
    }
  }

  /// Sampling policy over the lock-free top caches (sched/sampling.h): the
  /// probe is one atomic load, nullopt iff the cached top is the empty
  /// sentinel. Staleness only perturbs the choice distribution — claims
  /// re-verify under the sub-queue lock.
  struct TopPolicy {
    const BasicConcurrentMultiQueue* mq;
    [[nodiscard]] std::size_t count() const noexcept {
      return mq->queues_.size();
    }
    [[nodiscard]] std::optional<Key> peek(std::size_t i) const {
      const Key t = mq->queues_[i]->top.load(std::memory_order_acquire);
      if (t == kEmptyTop) return std::nullopt;
      return t;
    }
  };

  std::optional<Key> approx_get_min(util::Rng& rng,
                                    StripeContext* ctx = nullptr) {
    if (ctx != nullptr && stripe_map_.domains() > 1) {
      return sampling::select_and_claim_striped(
          TopPolicy{this}, stripe_map_, *ctx, rng, choices_, probe_limit_,
          std::optional<Key>{},
          [this](std::size_t idx) { return try_pop(*queues_[idx]); });
    }
    return sampling::select_and_claim(
        TopPolicy{this}, rng, choices_, probe_limit_, std::optional<Key>{},
        [this](std::size_t idx) { return try_pop(*queues_[idx]); });
  }

  /// Batched pop: same victim selection as approx_get_min, but the winning
  /// sub-queue is drained of up to `k` elements under its single lock
  /// acquisition — pops from the sorted base are O(1) cursor advances, and
  /// the top cache / count stripe refresh is paid once per batch instead of
  /// once per element. Returns the number appended to `out` (0 = observed
  /// empty; fewer than k when the victim ran short or a later caller should
  /// resample anyway).
  std::size_t approx_get_min_batch(std::size_t k, std::vector<Key>& out,
                                   util::Rng& rng,
                                   StripeContext* ctx = nullptr) {
    if (k == 0) return 0;
    if (ctx != nullptr && stripe_map_.domains() > 1) {
      return sampling::select_and_claim_striped(
          TopPolicy{this}, stripe_map_, *ctx, rng, choices_, probe_limit_,
          std::size_t{0}, [&](std::size_t idx) {
            return try_pop_batch(*queues_[idx], k, out);
          });
    }
    return sampling::select_and_claim(
        TopPolicy{this}, rng, choices_, probe_limit_, std::size_t{0},
        [&](std::size_t idx) { return try_pop_batch(*queues_[idx], k, out); });
  }

  std::optional<Key> try_pop(SubQueue& sq) {
    if (!sq.lock.try_lock()) return std::nullopt;
    std::lock_guard<util::Spinlock> guard(sq.lock, std::adopt_lock);
    if (sq.current_min() == kEmptyTop) return std::nullopt;
    const Key p = sq.pop_min();
    sq.refresh_top();
    return p;
  }

  std::size_t try_pop_batch(SubQueue& sq, std::size_t k,
                            std::vector<Key>& out) {
    if (!sq.lock.try_lock()) return 0;
    std::lock_guard<util::Spinlock> guard(sq.lock, std::adopt_lock);
    std::size_t got = 0;
    while (got < k && sq.current_min() != kEmptyTop) {
      out.push_back(sq.pop_min());
      ++got;
    }
    if (got > 0) sq.refresh_top();
    return got;
  }

  static constexpr int kProbeLimit = 16;

  std::vector<util::Padded<SubQueue>> queues_;
  StripeMap stripe_map_;  // 1 domain until set_stripe_map engages placement
  std::uint64_t seed_;
  unsigned choices_ = 2;
  int probe_limit_ = kProbeLimit;
  std::atomic<std::uint64_t> next_handle_{0};
  std::uint64_t sequential_ops_ = 0;
};

/// The framework's scheduler: dense-label keys.
using ConcurrentMultiQueue = BasicConcurrentMultiQueue<Priority>;

}  // namespace relax::sched
