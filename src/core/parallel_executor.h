// Concurrent execution entry points (paper §4) — thin wrappers over the
// persistent scheduling engine.
//
// run_parallel_relaxed — the paper's concurrent framework: every worker
// loops { ApproxGetMin; check dependencies; process or re-insert } against
// a shared ConcurrentMultiQueue. Problems must be thread-safe (see
// core/problem.h). Determinism is preserved: a task is processed only once
// its predecessors are decided, so the decided outcome equals the
// sequential execution under the same pi for every schedule.
//
// run_parallel_exact — the paper's exact baseline: tasks pre-loaded in
// strict priority order into a wait-free FAA ticket dispenser (our
// FaaArrayQueue stand-in for the wait-free queue of [27]); a thread that
// dequeues a task with an unprocessed predecessor *waits* for the
// predecessor instead of re-inserting. Deadlock-free: the globally
// smallest-labelled undecided task is always processable, so some worker
// always makes progress.
//
// These functions keep the original one-shot shape — run one problem to
// termination, return its stats — but since the engine refactor they are
// implemented by standing up a single-job engine::SchedulingEngine,
// submitting, and waiting on the ticket. The worker loop, batched
// admission, striped retirement-count termination, and backoff policies all
// live in engine/job.h now; services that execute many problems should keep
// one engine alive and stream jobs through it instead of paying pool setup
// per call (see engine/engine.h, examples/job_server.cpp).
#pragma once

#include <string_view>

#include "core/execution_stats.h"
#include "core/problem.h"
#include "engine/engine.h"
#include "graph/permutation.h"
#include "sched/backend_registry.h"
#include "sched/concurrent_multiqueue.h"
#include "util/thread_pin.h"
#include "util/topology.h"

namespace relax::core {

/// Options of a one-shot run: every per-job knob of engine::JobConfig
/// (queue_factor, choices, relaxation_k, pop_batch / pop_batch_auto, seed,
/// weight, monitor_relaxation, telemetry sinks — see engine/job.h), plus
/// the pool this run stands up. algorithms::SsspOptions is this struct too.
/// `weight` only matters when a job shares an engine; these wrappers run
/// solo (full budget), so it flows through for symmetry with the server
/// path. `metrics` / `trace` are caller-owned and resized by the engine;
/// they outlive the run, so snapshots and export happen after the call
/// returns.
struct ParallelOptions : engine::JobConfig {
  unsigned num_threads = 0;      // 0 = hardware concurrency
  bool pin_threads = true;
  util::TopologySpec topology;   // --numa: off (flat, default), auto
                                 // (sysfs sockets, flat fallback), or
                                 // virtual:K (synthetic domains). Flows
                                 // into EngineOptions::topology; see
                                 // util/topology.h

  [[nodiscard]] unsigned threads() const {
    return num_threads == 0 ? util::hardware_threads() : num_threads;
  }
};

using Priority = sched::Priority;

namespace detail {

inline engine::EngineOptions single_job_engine(const ParallelOptions& opts) {
  engine::EngineOptions eo;
  eo.num_threads = opts.threads();
  eo.pin_threads = opts.pin_threads;
  eo.max_in_flight = 1;
  eo.topology = opts.topology;
  eo.metrics = opts.metrics;
  eo.trace = opts.trace;
  return eo;
}

}  // namespace detail

/// Relaxed concurrent execution over a caller-supplied scheduler: anything
/// with per-thread handles exposing insert / approx_get_min
/// (ConcurrentMultiQueue, SprayList, LockFreeMultiQueue) or a plain
/// sched::ConcurrentScheduler surface. The initial task load is admitted in
/// batches by the engine workers themselves.
template <typename P, typename Queue>
ExecutionStats run_parallel_relaxed_on(P& problem,
                                       const graph::Priorities& pri,
                                       Queue& queue,
                                       const ParallelOptions& opts = {}) {
  engine::SchedulingEngine eng(detail::single_job_engine(opts));
  return eng.submit_relaxed_on(problem, pri, queue, opts).wait();
}

/// Relaxed concurrent execution over a named backend from the registry
/// (sched/backend_registry.h): the engine stands up a fresh instance of
/// that backend sized for the thread count. Throws std::invalid_argument
/// (listing the valid names) for unknown backends.
template <typename P>
ExecutionStats run_parallel_relaxed_backend(P& problem,
                                            const graph::Priorities& pri,
                                            std::string_view backend,
                                            const ParallelOptions& opts = {}) {
  engine::SchedulingEngine eng(detail::single_job_engine(opts));
  return eng.submit_relaxed_backend(problem, pri, backend, opts).wait();
}

/// Relaxed concurrent execution over a freshly built ConcurrentMultiQueue
/// with the paper's parameters (queue_factor sub-queues per thread,
/// two-choice sampling). This is the default entry point.
template <typename P>
ExecutionStats run_parallel_relaxed(P& problem, const graph::Priorities& pri,
                                    const ParallelOptions& opts = {}) {
  sched::ConcurrentMultiQueue queue(opts.queue_factor * opts.threads(),
                                    opts.seed, opts.choices);
  return run_parallel_relaxed_on(problem, pri, queue, opts);
}

/// Exact concurrent execution: FAA FIFO over the priority-sorted task array
/// plus backoff-waiting (never re-inserts).
template <typename P>
ExecutionStats run_parallel_exact(P& problem, const graph::Priorities& pri,
                                  const ParallelOptions& opts = {}) {
  engine::SchedulingEngine eng(detail::single_job_engine(opts));
  return eng.submit_exact(problem, pri, opts).wait();
}

}  // namespace relax::core
