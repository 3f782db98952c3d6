// SchedulingEngine — a persistent, multi-tenant execution service over the
// relaxed-scheduling framework.
//
// One engine owns one pinned WorkerPool for its whole lifetime and
// multiplexes a stream of independent jobs over it:
//
//   submit(job) -> JobTicket      bounded admission queue; BLOCKS when
//                                 max_pending jobs are already waiting
//                                 (backpressure, never drops)
//   JobTicket::wait()             blocks until that job completes, returns
//                                 its ExecutionStats
//
// Up to max_in_flight admitted jobs are active at once; every worker visits
// each active job round-robin (rotated by worker id so workers start on
// different jobs) and runs a bounded slice of its scheduler loop. Workers
// park when no job is active and are woken by the next submission — an idle
// engine burns no CPU, unlike the one-shot executors' spin loops.
//
// The per-run entry points in core/parallel_executor.h are now thin
// wrappers: they stand up a single-job engine, submit, and wait. Services
// should instead keep one engine alive and stream jobs through it (see
// examples/job_server.cpp and bench/engine_throughput.cc).
//
// Lifetime: the problem, priorities, and any caller-owned queue passed to a
// submit call must stay alive until that job's ticket is waited on (or the
// engine is destroyed — the destructor drains all submitted jobs first).
// Jobs hold per-worker scheduler *sessions* (cached handles, see
// engine/job.h); the reap path calls Job::retire() after the last slice
// returns and before the ticket is fulfilled, so no session outlives the
// wait() that releases the caller's queue.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/execution_stats.h"
#include "core/problem.h"
#include "engine/backend_jobs.h"
#include "engine/job.h"
#include "engine/qos.h"
#include "engine/worker_pool.h"
#include "graph/permutation.h"
#include "sched/backend_registry.h"
#include "util/padded.h"
#include "util/topology.h"

namespace relax::engine {

struct EngineOptions {
  unsigned num_threads = 0;      // 0 = all available hardware threads
  bool pin_threads = true;       // pin worker i to the i-th allowed CPU
  std::size_t max_pending = 64;  // admission queue bound (submit blocks)
  unsigned max_in_flight = 4;    // jobs multiplexed over the pool at once
  std::uint32_t slice_budget = 256;  // scheduler iterations per job visit

  /// Topology-aware placement (util/topology.h). kOff (the default) keeps
  /// the historical flat layout: worker i pinned to the i-th allowed CPU,
  /// every scheduler treated as one domain. kAuto discovers sockets from
  /// sysfs (flat fallback when the container hides them), pins workers in
  /// socket-fill order, and stripes every owned scheduler by domain.
  /// kVirtual (--numa=virtual:K) splits the workers into K synthetic
  /// domains regardless of hardware — same placement code paths, fully
  /// deterministic, which is what CI exercises.
  util::TopologySpec topology;

  /// Optional engine-wide telemetry sinks, caller-owned and off by default
  /// (nullptr == zero overhead on every hot path). The engine resizes both
  /// to its worker count before the pool starts, threads them into the
  /// pool's park instrumentation, times every job slice into the registry
  /// and trace ring, and injects them into each submitted job's JobConfig
  /// (unless the caller already set per-job sinks there — caller wins).
  /// Both must outlive the engine.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRing* trace = nullptr;

  [[nodiscard]] unsigned threads() const;
};

class SchedulingEngine;

/// Completion callback attached to a submission (the callback-completion
/// alternative to blocking on JobTicket::wait()). Invoked exactly once, by
/// the worker that reaps the job, after the ticket is fulfilled — so a
/// concurrent wait() on the same job is guaranteed to return. Runs on an
/// engine worker thread: it must be lightweight (hand the stats off to
/// another thread — a channel, a queue, an eventfd — rather than doing real
/// work), must not call wait() on any ticket of the same engine, and must
/// not call the blocking submit() (both can deadlock the pool against
/// itself). Resources the job borrows (problem storage, caller-owned
/// queues) may be released from inside the callback: the engine is done
/// with the job before it fires.
using CompletionFn = std::function<void(const core::ExecutionStats&)>;

/// Handle to one submitted job. Copyable; wait() may be called from any
/// thread except the engine's own workers, any number of times.
class JobTicket {
 public:
  JobTicket() = default;

  /// Blocks until the job completes; returns its merged stats.
  core::ExecutionStats wait();

  [[nodiscard]] bool ready() const;

 private:
  friend class SchedulingEngine;

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;                    // guarded by mu
    core::ExecutionStats stats;           // guarded by mu
    std::atomic<bool> reaped{false};      // reaper election
    std::atomic<bool> sealed{false};      // no new slices may start
    std::atomic<unsigned> in_slice{0};    // workers currently inside a slice
    CompletionFn on_complete;             // set before publication, fired by
                                          // the reaper after the ticket
  };

  explicit JobTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

class SchedulingEngine {
 public:
  explicit SchedulingEngine(EngineOptions opts = {});

  /// Drains every submitted job, then stops and joins the pool.
  ~SchedulingEngine();

  SchedulingEngine(const SchedulingEngine&) = delete;
  SchedulingEngine& operator=(const SchedulingEngine&) = delete;

  /// Submits a type-erased job. Blocks while the admission queue holds
  /// max_pending jobs (backpressure; nothing is ever dropped). With a
  /// callback, completion additionally fires `on_complete` (see
  /// CompletionFn for the threading contract) — the ticket stays valid
  /// either way, so callers may mix both completion styles.
  JobTicket submit(std::shared_ptr<Job> job, CompletionFn on_complete = {});

  /// Non-blocking admission: like submit(), but when the admission queue
  /// already holds max_pending jobs it returns nullopt immediately instead
  /// of blocking — the caller decides what backpressure means (the network
  /// front-end in src/server/ sheds load with an explicit BUSY response).
  /// Never drops an accepted job: a returned ticket is a submitted job.
  std::optional<JobTicket> try_submit(std::shared_ptr<Job> job,
                                      CompletionFn on_complete = {});

  /// Non-blocking, callback-completed form of submit_relaxed_backend — the
  /// request path of the network front-end. nullopt == admission full
  /// (nothing was enqueued; the problem may be freed immediately).
  template <core::Problem P>
  std::optional<JobTicket> try_submit_relaxed_backend(
      P& problem, const graph::Priorities& pri,
      const sched::BackendInfo& backend, const JobConfig& cfg,
      CompletionFn on_complete) {
    return try_submit(
        make_backend_job(backend, problem, pri, width(),
                         with_observability(cfg)),
        std::move(on_complete));
  }

  /// Relaxed execution over an engine-owned ConcurrentMultiQueue sized
  /// cfg.queue_factor sub-queues per worker — the production default. With
  /// cfg.monitor_relaxation the job runs in audit mode and its stats carry
  /// Definition 1 rank-error / inversion measurements.
  template <core::Problem P>
  JobTicket submit_relaxed(P& problem, const graph::Priorities& pri,
                           const JobConfig& cfg = {}) {
    return submit_keys(TaskKeys<P>(problem, pri), cfg);
  }

  /// The same over any key policy (engine/job.h): the job owns a
  /// BasicConcurrentMultiQueue of the policy's key type — how
  /// algorithms::parallel_relaxed_sssp runs its (distance, vertex) keys.
  template <KeyPolicy Keys>
  JobTicket submit_keys(const Keys& keys, const JobConfig& cfg = {}) {
    const JobConfig jc = with_observability(cfg);
    return submit(
        make_owning_job<sched::BasicConcurrentMultiQueue<typename Keys::Key>>(
            keys, jc, jc.queue_factor * width(), jc.seed, jc.choices));
  }

  /// Relaxed execution over any backend in the registry
  /// (sched/backend_registry.h): the job owns a fresh instance of the named
  /// backend sized for this pool. With cfg.monitor_relaxation the backend
  /// is additionally driven through a RelaxationMonitor and the stats carry
  /// Definition 1 quality measurements.
  template <core::Problem P>
  JobTicket submit_relaxed_backend(P& problem, const graph::Priorities& pri,
                                   const sched::BackendInfo& backend,
                                   const JobConfig& cfg = {}) {
    return submit(
        make_backend_job(backend, problem, pri, width(), with_observability(cfg)));
  }

  /// Name-based form; throws std::invalid_argument (listing the valid
  /// names) when `backend_name` is not in the registry.
  template <core::Problem P>
  JobTicket submit_relaxed_backend(P& problem, const graph::Priorities& pri,
                                   std::string_view backend_name,
                                   const JobConfig& cfg = {}) {
    return submit_relaxed_backend(problem, pri,
                                  sched::backend_or_throw(backend_name), cfg);
  }

  /// Relaxed execution over a caller-owned scheduler (MultiQueue, SprayList,
  /// LockFreeMultiQueue, or any sched::ConcurrentScheduler such as a
  /// LockedScheduler-wrapped KBoundedScheduler).
  template <core::Problem P, typename Queue>
  JobTicket submit_relaxed_on(P& problem, const graph::Priorities& pri,
                              Queue& queue, const JobConfig& cfg = {}) {
    return submit(std::make_shared<RelaxedJob<TaskKeys<P>, Queue>>(
        TaskKeys<P>(problem, pri), queue, with_observability(cfg)));
  }

  /// Exact-baseline execution (FAA ticket dispenser + bounded backoff-wait).
  template <core::Problem P>
  JobTicket submit_exact(P& problem, const graph::Priorities& pri,
                         const JobConfig& cfg = {}) {
    return submit(
        std::make_shared<ExactJob<P>>(problem, pri, with_observability(cfg)));
  }

  /// Number of pool workers.
  [[nodiscard]] unsigned width() const noexcept { return pool_.size(); }

  [[nodiscard]] std::uint64_t jobs_submitted() const;
  [[nodiscard]] std::uint64_t jobs_completed() const;

 private:
  struct Admitted {
    std::shared_ptr<Job> job;
    std::shared_ptr<JobTicket::State> state;
    std::uint64_t id = 0;  // 1-based submission order; trace-event job label
    /// QoS ledger, attached at activation (admit()) and shared by every
    /// worker-cache copy of this entry; workers consult it for each
    /// slice's budget grant.
    std::shared_ptr<TenantState> tenant;
  };

  /// Fills unset per-job telemetry sinks from the engine-wide ones in
  /// EngineOptions, and injects the engine's topology placement (domain
  /// count + per-worker domain table) so every submitted job stripes its
  /// scheduler the way the pool is actually pinned; a caller-provided
  /// JobConfig value always wins.
  [[nodiscard]] JobConfig with_observability(JobConfig cfg) const {
    if (cfg.metrics == nullptr) cfg.metrics = opts_.metrics;
    if (cfg.trace == nullptr) cfg.trace = opts_.trace;
    if (cfg.numa_domains <= 1 && cfg.worker_domains == nullptr) {
      cfg.numa_domains = placement_.num_domains;
      cfg.worker_domains = &placement_.domain;
    }
    return cfg;
  }

  /// WorkerPool work function: visit every active job once.
  bool work(unsigned worker);

  /// Promotes pending jobs into the active set up to max_in_flight.
  /// Requires `lock` held on mu_; releases it around each job's activate()
  /// so an O(n) activation (e.g. ExactJob's label load) never stalls
  /// submitters or the workers' active-set refresh.
  void admit(std::unique_lock<std::mutex>& lock);

  /// Reaps a finished job exactly once: waits for in-flight slices to
  /// retire, collects stats, fulfills the ticket, frees its active slot.
  void finish(const Admitted& admitted);

  /// Per-worker cached copy of the active set, refreshed only when
  /// active_version_ says it changed. Without this every work-loop pass of
  /// every worker would re-take mu_ and copy shared_ptrs — one mutex and a
  /// refcount cache line serializing the whole pool, exactly the
  /// scalability failure the striped designs in sched/ exist to avoid.
  struct WorkerCache {
    std::uint64_t seen_version = ~0ULL;  // != 0 so the first pass refreshes
    std::vector<Admitted> jobs;
  };

  EngineOptions opts_;
  /// Where each worker goes and which topology domain it belongs to —
  /// computed once from opts_.topology (flat under kOff), referenced by
  /// every with_observability-injected JobConfig. Declared before pool_ so
  /// it exists before any worker thread spawns.
  util::WorkerPlacement placement_;
  mutable std::mutex mu_;
  std::condition_variable space_cv_;  // submit backpressure
  std::condition_variable drain_cv_;  // destructor drain
  std::deque<Admitted> pending_;      // guarded by mu_
  std::vector<Admitted> active_;      // guarded by mu_
  unsigned activating_ = 0;  // jobs mid-activate outside the lock; mu_
  std::atomic<std::uint64_t> active_version_{0};  // bumped under mu_
  std::uint64_t submitted_ = 0;       // guarded by mu_
  std::uint64_t completed_ = 0;       // guarded by mu_
  /// Slice-budget policy (engine/qos.h): admit()/finish() register tenants
  /// under mu_; work() consults it lock-free for every budget grant.
  /// Declared before pool_ so it exists before any worker thread spawns.
  QosGovernor qos_;
  std::vector<util::Padded<WorkerCache>> worker_caches_;
  WorkerPool pool_;  // last member: workers touch the state above
};

}  // namespace relax::engine
