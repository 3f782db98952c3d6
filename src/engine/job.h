// Multi-tenant job layer: type-erased units of work for SchedulingEngine.
//
// A Job wraps one execution behind a uniform slice interface so a pool of
// persistent workers can multiplex many jobs:
//
//   activate(width)          engine admits the job; size per-worker stripes
//   run_slice(worker, b)     run up to b scheduler iterations for `worker`
//   finished()               every key the job created has retired
//   collect()                merged ExecutionStats (only after finished())
//
// The relaxed loop (RelaxedJob) is generic over a small *key policy*
// (KeyPolicy below), which supplies the key type, the initial keys, and the
// per-key step. Two policies exist: TaskKeys, the paper's framework (§4) —
// dense 32-bit labels of pi over a core::Problem, where a kNotReady task
// goes back under its own label — and SSSP's label-correcting step over
// 64-bit (distance, vertex) keys (algorithms/sssp.cc), where a popped key
// either is stale or relaxes edges into new keys. Everything else —
// sessions, batching, admission, placement, termination, telemetry — is
// one loop for both.
//
// Slices keep every worker responsive: instead of looping to termination as
// core/parallel_executor.h's executors did, a worker runs a bounded burst,
// returns, and visits the other in-flight jobs. Determinism is untouched —
// the framework property (decided outcome == sequential execution under pi
// for any schedule, paper §2.2) covers arbitrary interleaving, including
// interleaving with unrelated jobs; label-correcting SSSP converges to the
// exact distances under any pop order.
//
// Admission is batched and cooperative: the submitting thread does not load
// the initial keys. Workers claim chunks of the initial-key range from an
// atomic cursor inside run_slice and insert each chunk as one
// sched::insert_batch run, so a large job's admission is spread over the
// pool and overlaps both its own execution and other jobs.
//
// Termination is striped counting over key *instances*: every popped key
// retires, and every key a step puts back into the scheduler (a kNotReady
// label, a relaxed SSSP vertex) is counted as created before it is
// inserted. The job is done when the retirement sum reaches the initial
// keys plus the created sum — no instance is queued, buffered or being
// processed, and none can appear, since only a live key's step creates
// more. For the framework the target is n plus the re-inserts; for SSSP,
// the source key plus every relaxation. Each worker counts into its own
// padded tally once per claim, so no shared counter is touched per key.
//
// Task acquisition is batched as well (JobConfig::pop_batch): run_slice
// claims up to k keys per scheduler touch via sched::pop_batch — the
// backend's native batched claim where one exists, a one-at-a-time shim
// elsewhere — into a worker-local buffer. The buffer is always fully
// drained before the next termination check or slice return.
//
// Re-insertion is batched symmetrically: each touch's new keys accumulate
// in a worker-local buffer and flush through sched::insert_batch (the
// backend's native batched insert where one exists) once per scheduler
// touch — one batched claim out, one batched insert back. Flushing per
// touch (not per slice) keeps the captivity window short: a buffered key is
// invisible to every other worker, and holding a dependency chain across a
// whole slice lets an ill-timed OS preemption stall the peers into
// failed-delete churn.
//
// Scheduler access is organized as per-worker *sessions*: each worker's
// first slice for a job creates that worker's handle via sched::make_handle
// and parks it in WorkerState; every later slice reuses it, so a job costs
// at most one handle construction per worker instead of one per slice. The
// session is torn down by retire(), which the engine calls exactly once
// after the job finishes and all slices have returned — no handle ever
// outlives the job's execution, so a caller may destroy a caller-owned
// queue as soon as the ticket's wait() returns, exactly as before. The
// caching is sound because a worker id maps to one pool thread for the
// pool's whole lifetime (engine/worker_pool.h), so a cached handle is only
// ever driven by the thread that created it.
//
// With JobConfig::pop_batch_auto the claimed batch size adapts per worker
// through a sched::BatchController session: a full batch doubles the next
// claim (up to the pop_batch cap — sustained load), a short or empty claim
// resets it to 1 (the chosen sub-structure is running dry; near drain,
// large batches only buy rank error, see sched::batched_rank_bound), and
// every few dozen claims the controller consults the backend's striped
// size() to set the claim from *global* occupancy — a deep backlog jumps
// straight to the cap, a near-drained scheduler pins single pops.
//
// Variants:
//   RelaxedJob<Keys, Queue>        relaxed loop over a caller-owned scheduler
//                                  (anything with per-thread handles or a
//                                  plain sched::ConcurrentScheduler surface)
//   OwningRelaxedJob<Keys, Queue>  the same job owning its scheduler,
//                                  constructed in place from forwarded args —
//                                  how the engine's default MultiQueue, every
//                                  registry backend (engine/backend_jobs.h)
//                                  and SSSP's 64-bit-key MultiQueue run. With
//                                  Queue = sched::AuditedScheduler<Q> it is
//                                  the audit mode (make_owning_job): every op
//                                  goes through a lock-serialized
//                                  RelaxationMonitor and collect() reports
//                                  Definition 1 rank-error / inversion
//                                  statistics
//   ExactJob<P>                    the exact baseline (FAA ticket dispenser +
//                                  bounded backoff-wait, never re-inserts)
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/execution_stats.h"
#include "core/problem.h"
#include "graph/permutation.h"
#include "obs/metrics.h"
#include "obs/trace_ring.h"
#include "sched/batch_controller.h"
#include "sched/concurrent_multiqueue.h"
#include "sched/faa_array_queue.h"
#include "sched/handles.h"
#include "sched/relaxation_monitor.h"
#include "sched/scheduler.h"
#include "util/padded.h"
#include "util/spinlock.h"
#include "util/timer.h"

namespace relax::engine {

/// Per-job knobs. core::ParallelOptions extends this struct with the pool
/// knobs of a one-shot run, so the one-shot entry points pass their options
/// straight through. queue_factor/choices/seed parameterize schedulers the
/// job owns; they are ignored for caller-owned queues (submit_relaxed_on).
struct JobConfig {
  /// Ceiling on QoS weights; far above any sensible tenant ratio, this
  /// only bounds the weighted-share arithmetic against nonsense values.
  static constexpr std::uint32_t kMaxWeight = 1024;
  /// Multi-tenant QoS weight (engine/qos.h). Under contention a weight-2
  /// tenant receives ~2x the slice budget of a weight-1 tenant; solo
  /// tenants always get the full budget. Clamped to [1, kMaxWeight] by
  /// the jobs; 0 is treated as 1.
  std::uint32_t weight = 1;
  unsigned queue_factor = 4;       // MultiQueue sub-queues per pool worker
  unsigned choices = 2;            // sampled sub-queues per pop; only the
                                   // default submit_relaxed MultiQueue path
                                   // reads it — registry backends pin their
                                   // own sampling (multiqueue-c2/-c4/-c8)
  std::uint64_t seed = 1;          // scheduler randomness
  std::uint32_t relaxation_k = 0;  // k for window/sim backends (0 = derive
                                   // queue_factor * pool width)
  /// Initial keys a worker admits per claimed chunk of the job's cursor.
  static constexpr std::uint32_t kAdmissionBatch = 1024;
  /// Upper bound on pop_batch (64Ki labels = 256 KiB of worker buffer).
  /// Far above any useful batch — the rank envelope scales with k — this
  /// only bounds memory against nonsense values. RelaxedJob clamps to it;
  /// CLI front-ends clamp at parse time so reported == effective.
  static constexpr std::uint32_t kMaxPopBatch = 1u << 16;
  std::uint32_t pop_batch = 1;     // labels claimed per scheduler touch: k>1
                                   // amortizes the sample/lock/CAS round
                                   // trip over k pops at an O(k * q) rank
                                   // cost (see sched::batched_rank_bound)
  /// Adaptive batch sizing (CLI: --pop-batch=auto[:max]): pop_batch becomes
  /// the cap and each worker's sched::BatchController picks its claim size
  /// from observed occupancy — full batches double the next claim toward
  /// the cap, short or empty claims (the sampled sub-structure ran dry: the
  /// near-drain signal) reset it to 1 so a draining queue is not charged
  /// the O(k*q) rank cost for throughput it can no longer deliver, and an
  /// occasional consult of the backend's striped size() jumps straight to
  /// the cap under a deep backlog (or pins 1 when the whole scheduler is
  /// near drain, whatever the per-worker feedback says).
  bool pop_batch_auto = false;
  /// Cap used by --pop-batch=auto when no explicit max is given.
  static constexpr std::uint32_t kDefaultAutoPopBatch = 64;
  bool monitor_relaxation = false;  // audit mode: serialize + measure
                                    // quality (label keys; make_owning_job)
  std::uint32_t monitor_stride = 64;  // inversion tracking sample stride

  /// Topology placement, normally injected by the engine from its own
  /// WorkerPlacement (SchedulingEngine::with_observability) — callers leave
  /// both at their defaults. numa_domains > 1 makes the job configure any
  /// owned/attached backend that supports it with a sched::StripeMap during
  /// activate() (the queue is quiescent there) and open each worker's
  /// session with that worker's domain, so same-domain stripes are
  /// preferred and cross-domain traffic becomes the bounded steal schedule.
  /// worker_domains maps pool worker id -> domain and must outlive the job
  /// when set (the engine's placement table does); when null, workers fall
  /// back to a contiguous block split over numa_domains.
  unsigned numa_domains = 1;
  const std::vector<unsigned>* worker_domains = nullptr;

  /// Telemetry sinks. Normally left null by callers and injected by the
  /// engine from EngineOptions (SchedulingEngine::with_observability), so
  /// every job submitted to an observed engine reports into the same
  /// registry; a caller-set sink wins over the engine's. The hot path
  /// accumulates into worker-locals and flushes once per slice, so an
  /// attached registry costs a handful of relaxed adds per ~slice_budget
  /// iterations (pinned by the obs overhead guard test). Both sinks must be
  /// sized for the pool (width() >= pool width) and outlive the job.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRing* trace = nullptr;
};

/// Parsed form of a --pop-batch CLI value. `batch` is the fixed size, or
/// the adaptive cap when `adaptive` is set. `valid` is false when the
/// input was unparseable or an explicit zero — `batch` still carries a
/// safe degraded value (1, or the default auto cap) so library callers
/// keep working, but CLI front-ends must reject the flag with a clear
/// error instead of silently running a batch size the user never asked
/// for; engine::flags::parse_pop_batch (engine/flags.h) does that.
struct PopBatchFlag {
  std::uint32_t batch = 1;
  bool adaptive = false;
  bool valid = true;
};

/// Parses --pop-batch=<k>|auto|auto:<max>. Unparseable or zero values
/// degrade to the unbatched default (batch 1, or the default auto cap)
/// with `valid` cleared; in-range numbers above kMaxPopBatch are clamped
/// (and stay valid) so reported == effective.
inline PopBatchFlag parse_pop_batch_flag(std::string_view value) {
  PopBatchFlag flag;
  if (value == "auto") {
    return PopBatchFlag{JobConfig::kDefaultAutoPopBatch, true, true};
  }
  if (value.starts_with("auto:")) {
    flag.adaptive = true;
    value.remove_prefix(5);
  }
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc{} || ptr != value.data() + value.size() ||
      parsed == 0) {
    return PopBatchFlag{flag.adaptive ? JobConfig::kDefaultAutoPopBatch : 1,
                        flag.adaptive, /*valid=*/false};
  }
  flag.batch = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(parsed, JobConfig::kMaxPopBatch));
  return flag;
}

/// What one run_slice visit accomplished. `iterations` is the scheduler
/// iterations actually consumed of the granted budget — the QoS governor
/// settles the tenant's deficit ledger from it; `progress` keeps the old
/// boolean meaning (popped a task or admitted labels) the engine's
/// idle-backoff reads.
struct SliceResult {
  std::uint32_t iterations = 0;
  bool progress = false;
};

class Job {
 public:
  virtual ~Job() = default;

  /// Called once, by the engine, when the job becomes active; `pool_width`
  /// is the number of workers that may call run_slice. No slice runs before
  /// activation returns.
  virtual void activate(unsigned pool_width) = 0;

  /// Runs up to `budget` scheduler iterations on behalf of `worker`
  /// (a stable id < pool_width). Reports the iterations consumed and
  /// whether the slice made progress (popped a task or admitted labels;
  /// false lets the caller back off).
  virtual SliceResult run_slice(unsigned worker, std::uint32_t budget) = 0;

  /// The job's QoS weight (JobConfig::weight), read once at admission by
  /// the engine's QosGovernor. Virtual because the type-erased
  /// submit(shared_ptr<Job>) path never sees a JobConfig.
  [[nodiscard]] virtual std::uint32_t weight() const noexcept { return 1; }

  [[nodiscard]] virtual bool finished() const noexcept = 0;

  /// Called exactly once by the engine when the job is reaped: after
  /// finished() is true and after every in-flight slice has returned, but
  /// before the ticket is fulfilled. Jobs release their per-worker
  /// scheduler sessions here (cached handles into a possibly caller-owned
  /// queue), so no handle outlives the job's execution — the submitter may
  /// destroy the queue the moment wait() returns.
  virtual void retire() noexcept {}

  /// Merged statistics. Valid only after finished() is true and all slices
  /// have returned (the engine guarantees both before reaping).
  virtual core::ExecutionStats collect() = 0;
};

/// Shared machinery for the engine's jobs: per-worker stat stripes and
/// retired/created key tallies, the striped-sum termination check, and
/// wall-time stamping of the admit -> done interval.
class TaskJobBase : public Job {
 public:
  void activate(unsigned pool_width) override {
    tally_ = std::vector<util::Padded<Tally>>(pool_width);
    stats_ = std::vector<util::Padded<core::ExecutionStats>>(pool_width);
    timer_.reset();
    if (n_ == 0) {
      done_seconds_ = 0.0;
      done_.store(true, std::memory_order_release);
    }
  }

  [[nodiscard]] bool finished() const noexcept override {
    return done_.load(std::memory_order_acquire);
  }

  core::ExecutionStats collect() override {
    // Stripes carry busy time (the sum of that worker's slice latencies) in
    // `seconds`; merged_wall() accumulates everything and then overrides
    // the total's seconds with the job's wall clock — the contract its name
    // encodes. The stripes themselves become the per-worker breakdown.
    std::vector<core::ExecutionStats> stripes;
    stripes.reserve(stats_.size());
    for (const auto& s : stats_) {
      stripes.push_back(*s);
      stripes.back().seconds =
          static_cast<double>(stripes.back().slice_latency_ns.sum()) / 1e9;
    }
    core::ExecutionStats total = core::ExecutionStats::merged_wall(
        std::span<const core::ExecutionStats>(stripes), done_seconds_);
    total.per_worker = std::move(stripes);
    return total;
  }

 protected:
  /// One worker's key tally, written only by that worker. `created` counts
  /// keys the worker put back into the scheduler and is bumped before they
  /// are inserted; `retired` counts keys it popped and finished with.
  struct Tally {
    std::atomic<std::uint64_t> retired{0};
    std::atomic<std::uint64_t> created{0};
  };

  /// `initial_keys` is how many keys the job starts with (n tasks).
  explicit TaskJobBase(std::uint32_t initial_keys) : n_(initial_keys) {}

  /// Sums the tallies — every `retired` first, then every `created` — and
  /// finishes the job when retired == n + created. The order makes the
  /// check safe without a consistent snapshot: a key is created before it
  /// is inserted and retired only after its pop, so every retirement read
  /// in the first pass has its creation visible to the second, hence
  /// retired <= n + created always; equality means no key is live, and
  /// none can appear, because only a live key's step creates more. The
  /// first thread to observe it stamps the wall time and raises the done
  /// flag (the release store orders the stamp before any acquire load that
  /// sees the flag).
  void check_done() noexcept {
    std::uint64_t retired = 0;
    for (const auto& t : tally_)
      retired += t->retired.load(std::memory_order_acquire);
    std::uint64_t target = n_;
    for (const auto& t : tally_)
      target += t->created.load(std::memory_order_acquire);
    if (retired < target || done_.load(std::memory_order_relaxed)) return;
    std::lock_guard<util::Spinlock> guard(finish_lock_);
    if (!done_.load(std::memory_order_relaxed)) {
      done_seconds_ = timer_.seconds();
      done_.store(true, std::memory_order_release);
    }
  }

  const std::uint32_t n_;
  std::vector<util::Padded<Tally>> tally_;
  std::vector<util::Padded<core::ExecutionStats>> stats_;
  std::atomic<bool> done_{false};
  util::Spinlock finish_lock_;
  util::Timer timer_;
  double done_seconds_ = 0.0;
};

/// What RelaxedJob schedules. A key policy names its key type, the keys the
/// job starts with (admitted cooperatively by the workers), and the step
/// run on each popped key: step() does the key's work, counts it in
/// `stats` (processed / failed_deletes / dead_skips) and appends every key
/// it wants scheduled in its place to `out`. Policies are small copyable
/// views over caller-owned state, safe to step from many workers at once.
template <typename K>
concept KeyPolicy = requires(const K& keys, typename K::Key key,
                             std::vector<typename K::Key>& out,
                             core::ExecutionStats& stats) {
  { keys.initial_keys() } -> std::convertible_to<std::uint32_t>;
  { keys.initial_key(std::uint32_t{0}) } -> std::same_as<typename K::Key>;
  keys.step(key, out, stats);
};

/// The paper's framework (§4) as a key policy: the keys are the n dense
/// labels of pi, and a popped label runs its task's try_process; a
/// kNotReady task goes back under its own label (Q.insert(v_t, pi(v_t))).
template <core::Problem P>
struct TaskKeys {
  using Key = sched::Priority;

  TaskKeys(P& problem, const graph::Priorities& pri)
      : problem(&problem), pri(&pri) {}

  [[nodiscard]] std::uint32_t initial_keys() const {
    return problem->num_tasks();
  }
  [[nodiscard]] Key initial_key(std::uint32_t i) const { return i; }

  void step(Key label, std::vector<Key>& out,
            core::ExecutionStats& stats) const {
    switch (problem->try_process(pri->order[label])) {
      case core::Outcome::kProcessed:
        ++stats.processed;
        break;
      case core::Outcome::kNotReady:
        ++stats.failed_deletes;
        out.push_back(label);
        break;
      case core::Outcome::kRetired:
        ++stats.dead_skips;
        break;
    }
  }

  P* problem;
  const graph::Priorities* pri;
};

/// The paper's relaxed concurrent loop (§4) as a multiplexable job, over
/// any key policy. The policy's state and the queue are caller-owned and
/// must outlive the job.
template <KeyPolicy Keys, typename Queue>
class RelaxedJob : public TaskJobBase {
 public:
  using Key = typename Keys::Key;
  /// The per-worker scheduler access point: the backend's own handle when
  /// it has one, a DirectHandle shim otherwise (sched/handles.h). Cached
  /// in WorkerState for the job's lifetime — one make_handle per
  /// (worker, job), not per slice.
  using Handle = decltype(sched::make_handle(std::declval<Queue&>()));
  static_assert(std::is_same_v<sched::key_type<Handle>, Key>,
                "the queue must hold the key policy's key type");

  RelaxedJob(const Keys& keys, Queue& queue, const JobConfig& cfg = {})
      : TaskJobBase(keys.initial_keys()),
        keys_(keys),
        queue_(&queue),
        // Clamp defensively: a negative CLI value cast to uint32 would
        // otherwise make activate() reserve a multi-GiB buffer per worker.
        // The slice budget caps the effective batch per claim anyway.
        pop_batch_(std::clamp<std::uint32_t>(cfg.pop_batch, 1,
                                             JobConfig::kMaxPopBatch)),
        adaptive_(cfg.pop_batch_auto),
        weight_(std::clamp<std::uint32_t>(cfg.weight, 1,
                                          JobConfig::kMaxWeight)),
        numa_domains_(std::max(cfg.numa_domains, 1u)),
        worker_domains_(cfg.worker_domains),
        metrics_(cfg.metrics),
        trace_(cfg.trace) {}

  void activate(unsigned pool_width) override {
    TaskJobBase::activate(pool_width);
    // Worker-local session state. Popped keys only ever live in `popped`
    // between a pop_batch claim and the processing loop a few lines below
    // it — never across a run_slice return. New keys accumulate in
    // `reinsert` and are always flushed back into the scheduler before the
    // slice returns. The handle slot starts empty; each worker fills its
    // own on its first slice (activation runs on the submitting thread,
    // which must not construct handles the pool threads will drive).
    pool_width_ = pool_width;
    workers_ = std::vector<util::Padded<WorkerState>>(pool_width);
    for (auto& ws : workers_) {
      ws->popped.reserve(pop_batch_);
      ws->reinsert.reserve(pop_batch_);
      // Watermarks scale with the pool: occupancy is global, and
      // pool_width workers drain up to width * cap keys per claim round.
      // Measured mode re-derives them from the observed drain rate once a
      // consult window of claim feedback exists; the static width-scaled
      // marks remain the cold-start values.
      ws->controller = sched::BatchController(
          pop_batch_, adaptive_, /*high_watermark=*/0,
          sched::BatchController::kDefaultConsultPeriod, pool_width,
          /*measured_watermarks=*/true);
    }
    // Topology-aware striping: when the engine placed workers into more
    // than one domain and the backend partitions into sub-queues, hand it
    // the matching StripeMap now — activation runs before any slice, so
    // the quiescence requirement on set_stripe_map holds even for
    // caller-owned queues. Backends without the surface (SprayList's is a
    // documented no-op; monitors/wrappers lack it entirely) stay flat.
    if constexpr (requires(Queue& q, const sched::StripeMap& m) {
                    q.num_queues();
                    q.set_stripe_map(m);
                  }) {
      if (numa_domains_ > 1) {
        queue_->set_stripe_map(sched::StripeMap(
            static_cast<std::size_t>(queue_->num_queues()), numa_domains_));
      }
    }
    // Schedulers with a quiescent bulk_load but no live bulk_insert
    // (LockFreeMultiQueue, whose sorted sub-lists degrade to O(n) per
    // ascending insert) get their whole initial load here, while the job is
    // still unpublished and the queue guaranteed quiescent. Everything else
    // is loaded cooperatively by the workers via admit_chunk.
    if constexpr (requires(Queue& q, std::span<const Key> s) {
                    q.bulk_load(s);
                  } && !requires(Handle h, std::span<const Key> s) {
                    h.bulk_insert(s);
                  }) {
      std::vector<Key> initial(n_);
      for (std::uint32_t i = 0; i < n_; ++i) initial[i] = keys_.initial_key(i);
      queue_->bulk_load(std::span<const Key>(initial));
      load_cursor_.store(n_, std::memory_order_release);
    }
  }

  /// Session teardown: drops every worker's cached handle (and with it the
  /// last pointer a worker holds into a caller-owned queue). Called by the
  /// engine after all slices have returned, so no handle is in use.
  void retire() noexcept override {
    for (auto& ws : workers_) ws->handle.reset();
  }

  [[nodiscard]] std::uint32_t weight() const noexcept override {
    return weight_;
  }

  /// The merged stats, plus the Definition 1 rank-error / inversion numbers
  /// when the queue is an audited one (sched::AuditedScheduler).
  core::ExecutionStats collect() override {
    core::ExecutionStats total = TaskJobBase::collect();
    if constexpr (requires(Queue& q) { q.inner().rank_histogram(); }) {
      auto& monitor = queue_->inner();
      const auto& ranks = monitor.rank_histogram();
      const auto& inversions = monitor.inversion_histogram();
      total.rank_samples = ranks.total();
      total.mean_rank_error = ranks.mean();
      total.max_rank_error = ranks.max_value();
      total.inversion_samples = inversions.total();
      total.mean_inversions = inversions.mean();
    }
    return total;
  }

  SliceResult run_slice(unsigned worker, std::uint32_t budget) override {
    if (finished()) return {};
    util::Timer slice_timer;  // slice latency -> this worker's stripe
    auto& ws = *workers_[worker];
    // First slice for this worker: open its session. Later slices reuse
    // the cached handle — handle construction off the per-slice path.
    if (!ws.handle) {
      ws.handle.emplace(sched::make_handle(*queue_));
      // Session state carries the worker's topology domain: every claim
      // and batched insert this handle issues prefers that domain's
      // stripes (engine placement table when present, contiguous block
      // split otherwise). Flat (single-domain) jobs skip the call — the
      // backends treat domain 0 of a 1-domain map as the flat path anyway.
      if constexpr (requires(Handle& h) { h.set_domain(0u); }) {
        if (numa_domains_ > 1) {
          ws.handle->set_domain(
              worker_domains_ != nullptr &&
                      worker < worker_domains_->size()
                  ? (*worker_domains_)[worker]
                  : worker * numa_domains_ / std::max(pool_width_, 1u));
        }
      }
    }
    auto& handle = *ws.handle;
    bool progress = admit_chunk(handle);
    auto& stats = *stats_[worker];
    auto& tally = *tally_[worker];
    auto& buffer = ws.popped;
    // Telemetry is accumulated in plain locals and flushed once at slice
    // end, so the per-claim cost with a registry attached is plain-integer
    // arithmetic, not atomics. Snapshot the stripe counters and controller
    // tally now; the deltas at slice end are this slice's contribution.
    obs::WorkerMetrics* wm =
        metrics_ != nullptr && worker < metrics_->width()
            ? &metrics_->worker(worker)
            : nullptr;
    obs::TraceRing* trace =
        trace_ != nullptr && worker < trace_->width() ? trace_ : nullptr;
    const std::uint64_t processed0 = stats.processed;
    const std::uint64_t failed0 = stats.failed_deletes;
    const std::uint64_t dead0 = stats.dead_skips;
    const std::uint64_t empty0 = stats.empty_polls;
    const sched::BatchController::Transitions trans0 =
        ws.controller.transitions();
    // Stripe-placement tallies live in the handle's session context (plain
    // uint64s — the handle is worker-private); snapshot them so the slice's
    // delta can be flushed into the registry like every other counter.
    sched::StripeStats stripe0{};
    if constexpr (requires(Handle& h) { h.stripe_stats(); }) {
      stripe0 = handle.stripe_stats();
    }
    std::uint64_t keys_claimed = 0;
    std::uint64_t keys_reinserted = 0;
    std::uint64_t claims_made = 0;
    obs::Histogram claim_sizes;  // worker-local; merged into wm at slice end
    std::uint32_t last_regime_claim = ws.controller.current();
    std::uint32_t iters = 0;
    while (!done_.load(std::memory_order_acquire) && iters < budget) {
      // Claim up to pop_batch keys (or the session controller's adaptive
      // size — claim feedback plus an occasional striped-size() occupancy
      // consult) in one scheduler touch, capped by the remaining budget so
      // the buffer is always fully drained before the slice returns.
      buffer.clear();
      const std::uint32_t want =
          ws.controller.next_claim(sched::QueueOccupancy<Queue>{queue_});
      const std::uint32_t claim = std::min<std::uint32_t>(want, budget - iters);
      const std::size_t got = sched::pop_batch(handle, claim, buffer);
      ws.controller.feedback(claim, static_cast<std::uint32_t>(got));
      ++claims_made;
      if (trace != nullptr) {
        trace->record(worker, obs::EventKind::kClaim, trace->now_ns(), 0,
                      static_cast<std::uint32_t>(got));
        const std::uint32_t regime_claim = ws.controller.current();
        if (regime_claim != last_regime_claim) {
          trace->record(worker, obs::EventKind::kRegime, trace->now_ns(), 0,
                        regime_claim);
          last_regime_claim = regime_claim;
        }
      }
      if (buffer.empty()) {
        ++stats.empty_polls;
        check_done();
        // Prefer feeding the queue over spinning when admission is still
        // in flight; otherwise yield the worker to other jobs.
        if (admit_chunk(handle)) {
          progress = true;
          continue;
        }
        break;
      }
      progress = true;
      keys_claimed += got;
      claim_sizes.record(got);
      ++stats.claims;
      stats.max_claim = std::max<std::uint64_t>(stats.max_claim, want);
      stats.min_claim = stats.min_claim == 0
                            ? want
                            : std::min<std::uint64_t>(stats.min_claim, want);
      // Step the whole buffer before the next done_/budget check. A
      // buffered key is unretired, so termination cannot fire while keys
      // sit here, provided none survive this loop.
      iters += static_cast<std::uint32_t>(got);
      stats.iterations += got;
      for (const Key key : buffer) keys_.step(key, ws.reinsert, stats);
      // The step's new keys count as created before they are inserted, and
      // the claimed keys retire only after both (see check_done). The
      // touch's run flushes before the next claim: one batched insert per
      // batched pop (the symmetric round trip). Holding the run any longer
      // makes those keys invisible to every other worker — on an
      // oversubscribed host a descheduled worker mid-slice would hold
      // dependency chains captive for a scheduler quantum while its peers
      // churn failed deletes against them.
      if (!ws.reinsert.empty()) {
        keys_reinserted += ws.reinsert.size();
        tally.created.fetch_add(ws.reinsert.size(), std::memory_order_relaxed);
        sched::insert_batch(handle, std::span<const Key>(ws.reinsert));
        ws.reinsert.clear();
      }
      tally.retired.fetch_add(got, std::memory_order_release);
    }
    check_done();
    // Slice telemetry: always into this worker's stripe (per-job slice
    // latency percentiles — the starvation metric), and the slice's deltas
    // into the engine registry when one is attached.
    const std::uint64_t slice_ns =
        static_cast<std::uint64_t>(slice_timer.seconds() * 1e9);
    ++stats.slices;
    stats.slice_latency_ns.record(slice_ns);
    if (wm != nullptr) {
      wm->claims.add(claims_made);
      wm->pops.add(keys_claimed);
      wm->claim_size.merge_from(claim_sizes);
      wm->processed.add(stats.processed - processed0);
      wm->failed_deletes.add(stats.failed_deletes - failed0);
      wm->dead_skips.add(stats.dead_skips - dead0);
      wm->empty_polls.add(stats.empty_polls - empty0);
      wm->reinserts.add(keys_reinserted);
      const sched::BatchController::Transitions& tr =
          ws.controller.transitions();
      wm->regime_ramps.add(tr.ramps - trans0.ramps);
      wm->regime_resets.add(tr.resets - trans0.resets);
      wm->regime_backlog_jumps.add(tr.backlog_jumps - trans0.backlog_jumps);
      wm->regime_drain_pins.add(tr.drain_pins - trans0.drain_pins);
      if constexpr (requires(Handle& h) { h.stripe_stats(); }) {
        const sched::StripeStats stripe = handle.stripe_stats();
        wm->numa_local_claims.add(stripe.local_claims - stripe0.local_claims);
        wm->numa_steal_claims.add(stripe.steal_claims - stripe0.steal_claims);
      }
      wm->current_claim.set(ws.controller.current());
    }
    return {iters, progress};
  }

 private:
  /// One worker's scheduler session for this job: the cached handle, the
  /// batched-path buffers, and the adaptive claim controller. Owned by the
  /// job, keyed by the pool's stable worker id, and only ever touched by
  /// that worker's thread (run_slice) or by the reaper after quiescence
  /// (retire).
  struct WorkerState {
    std::optional<Handle> handle;   // created on first slice,
                                    // dropped by retire()
    std::vector<Key> popped;        // batched-pop landing buffer
    std::vector<Key> reinsert;      // new keys awaiting their flush
    sched::BatchController controller;  // claim sizing (auto mode)
  };

  /// Claims one chunk of the initial-key range and inserts it. Multiple
  /// workers admit concurrently; the queue is live throughout.
  bool admit_chunk(Handle& handle) {
    if (load_cursor_.load(std::memory_order_relaxed) >= n_) return false;
    const std::uint64_t lo = load_cursor_.fetch_add(
        JobConfig::kAdmissionBatch, std::memory_order_acq_rel);
    if (lo >= n_) return false;
    const auto hi = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(n_, lo + JobConfig::kAdmissionBatch));
    std::vector<Key> chunk;
    chunk.reserve(hi - static_cast<std::uint32_t>(lo));
    for (auto i = static_cast<std::uint32_t>(lo); i < hi; ++i)
      chunk.push_back(keys_.initial_key(i));
    sched::insert_batch(handle, std::span<const Key>(chunk));
    return true;
  }

  Keys keys_;
  Queue* queue_;
  std::uint32_t pop_batch_;
  bool adaptive_;
  std::uint32_t weight_;           // QoS tenant weight (clamped)
  unsigned numa_domains_;          // > 1 enables topology-aware striping
  const std::vector<unsigned>* worker_domains_;  // engine placement table
  unsigned pool_width_ = 0;        // set by activate()
  obs::MetricsRegistry* metrics_;  // optional engine telemetry sink
  obs::TraceRing* trace_;          // optional Chrome-trace event ring
  std::vector<util::Padded<WorkerState>> workers_;
  std::atomic<std::uint64_t> load_cursor_{0};
};

/// A relaxed job that owns its scheduler, constructed in place from the
/// forwarded constructor arguments before the job and destroyed after it.
/// Backend-generic: any registered backend (ConcurrentMultiQueue,
/// LockFreeMultiQueue, SprayList, LockedScheduler wrappers, ...), SSSP's
/// 64-bit-key MultiQueue, and the audit adaptor sched::AuditedScheduler all
/// become first-class engine jobs through this one class.
template <KeyPolicy Keys, typename Queue>
class OwningRelaxedJob : private sched::Owned<Queue>,
                         public RelaxedJob<Keys, Queue> {
 public:
  template <typename... QueueArgs>
  OwningRelaxedJob(const Keys& keys, const JobConfig& cfg,
                   QueueArgs&&... queue_args)
      : sched::Owned<Queue>(std::forward<QueueArgs>(queue_args)...),
        RelaxedJob<Keys, Queue>(keys, this->owned, cfg) {}
};

/// A relaxed job owning a fresh `Queue` built from queue_args. For label
/// keys, cfg.monitor_relaxation wraps the backend in the audit adaptor
/// (sched::AuditedScheduler), so the job's stats carry Definition 1
/// rank-error / inversion measurements; the monitor's exact mirror covers a
/// label universe, so other key types run unaudited.
template <typename Queue, KeyPolicy Keys, typename... QueueArgs>
std::shared_ptr<Job> make_owning_job(const Keys& keys, const JobConfig& cfg,
                                     QueueArgs&&... queue_args) {
  if constexpr (std::is_same_v<typename Keys::Key, sched::Priority>) {
    if (cfg.monitor_relaxation) {
      return std::make_shared<
          OwningRelaxedJob<Keys, sched::AuditedScheduler<Queue>>>(
          keys, cfg, keys.initial_keys(), cfg.monitor_stride,
          std::forward<QueueArgs>(queue_args)...);
    }
  }
  return std::make_shared<OwningRelaxedJob<Keys, Queue>>(
      keys, cfg, std::forward<QueueArgs>(queue_args)...);
}

/// The exact baseline (§4) as a job: tasks pre-loaded in strict priority
/// order into a wait-free FAA ticket dispenser. A dequeued task whose
/// predecessor is still undecided is *held* by the dequeuing worker (never
/// re-inserted) with exponential backoff; unlike the one-shot executor, the
/// backoff is bounded per slice so the worker stays available to other
/// in-flight jobs and retries the held task on its next visit.
template <core::Problem P>
class ExactJob : public TaskJobBase {
 public:
  ExactJob(P& problem, const graph::Priorities& pri,
           const JobConfig& cfg = {})
      : TaskJobBase(problem.num_tasks()),
        problem_(&problem),
        pri_(&pri),
        weight_(std::clamp<std::uint32_t>(cfg.weight, 1,
                                          JobConfig::kMaxWeight)) {}

  [[nodiscard]] std::uint32_t weight() const noexcept override {
    return weight_;
  }

  void activate(unsigned pool_width) override {
    // Load inside activation, after the timer reset in the base activate:
    // the n-label load is charged to the timed window exactly like the
    // relaxed jobs' batched admission — keeping relaxed-vs-exact wall-time
    // comparisons symmetric.
    TaskJobBase::activate(pool_width);
    std::vector<std::uint32_t> labels(n_);
    std::iota(labels.begin(), labels.end(), 0u);
    queue_.load(std::move(labels));
    slots_ = std::vector<util::Padded<Slot>>(pool_width);
  }

  SliceResult run_slice(unsigned worker, std::uint32_t budget) override {
    if (finished()) return {};
    util::Timer slice_timer;  // slice latency -> this worker's stripe
    auto& stats = *stats_[worker];
    auto& tally = *tally_[worker];
    auto& slot = *slots_[worker];
    bool progress = false;
    std::uint32_t iters = 0;
    while (iters < budget) {
      if (!slot.has_pending) {
        const auto label = queue_.try_dequeue();
        if (!label) break;  // drained; held tasks may still be in flight
        slot.pending = *label;
        slot.has_pending = true;
        slot.pause = 1;
        ++stats.iterations;
        ++iters;
      }
      const core::Task task = pri_->order[slot.pending];
      const core::Outcome outcome = problem_->try_process(task);
      if (outcome == core::Outcome::kNotReady) {
        ++stats.failed_deletes;  // wasted work while waiting
        for (unsigned i = 0; i < slot.pause; ++i) util::cpu_relax();
        if (slot.pause >= kMaxPause) break;  // hold the task, free the worker
        slot.pause <<= 1;
        continue;
      }
      if (outcome == core::Outcome::kProcessed) {
        ++stats.processed;
      } else {
        ++stats.dead_skips;
      }
      tally.retired.fetch_add(1, std::memory_order_release);
      slot.has_pending = false;
      progress = true;
    }
    check_done();
    ++stats.slices;
    stats.slice_latency_ns.record(
        static_cast<std::uint64_t>(slice_timer.seconds() * 1e9));
    return {iters, progress};
  }

 private:
  static constexpr unsigned kMaxPause = 4096;

  struct Slot {
    std::uint32_t pending = 0;
    bool has_pending = false;
    unsigned pause = 1;
  };

  P* problem_;
  const graph::Priorities* pri_;
  std::uint32_t weight_;  // QoS tenant weight (clamped)
  sched::FaaArrayQueue<std::uint32_t> queue_;
  std::vector<util::Padded<Slot>> slots_;
};

}  // namespace relax::engine
