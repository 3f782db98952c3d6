// One-shot workloads: `greedy` (MIS + matching) and `sssp`, each solved
// through the relaxed parallel path and through its sequential baseline on
// the same generated input, every output checked against its reference.
//
// Untraced runs (--trace=0) time repetitions back to back. Traced runs
// alternate a plain repetition (engine registry attached, no bench
// adaptors) with a traced one (TracedProblem + TracedQueue + spans), which
// gives both the per-layer numbers and the tracing overhead. A traced run
// then measures the other workload's layers once on the same graph, so
// every traced run prints every per-layer metric.
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/matching.h"
#include "algorithms/mis.h"
#include "algorithms/sssp.h"
#include "bench/steady_state.h"
#include "common.h"
#include "core/parallel_executor.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "sched/backend_registry.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace relax;

constexpr const char* kBackend = "multiqueue-c2";
constexpr std::uint32_t kVertices = 1'000'000;
constexpr std::uint64_t kEdges = 5'000'000;
constexpr unsigned kSetupReps = 3;  // setup_s is their median
constexpr unsigned kMinReps = 3;
constexpr unsigned kSeqPerRep = 3;
// Traced repetitions may differ from untraced ones by at most this share in
// iterations and claims before the run is marked wrong (the adaptor changed
// what it measures).
constexpr double kFidelityTolerance = 0.25;

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

/// Runs f under a span and returns its wall time in seconds.
template <typename F>
double timed(SpanLog& log, const char* span, std::uint64_t id, F&& f) {
  auto scope = log.scope(span, id);
  const std::uint64_t t0 = now_ns();
  f();
  return seconds_since(t0);
}

/// Accumulates per-layer values, one entry per traced repetition (or per
/// set-up repetition for set-up layers); run.py reports medians.
class Layers {
 public:
  void add(const std::string& name, double v) { values_[name].push_back(v); }
  /// Takes the names of `other` that this one has no values for.
  void add_missing(const Layers& other) {
    for (const auto& [name, v] : other.values_) values_.try_emplace(name, v);
  }
  void emit(JsonOut& out) const {
    for (const auto& [name, v] : values_) out.list("layer." + name, v);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Correctness ledger: every checked output counts as attempted.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string errors;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 512) errors += what + "; ";
  }
};

core::ParallelOptions parallel_options(const SolveConfig& c,
                                       std::uint64_t sched_seed,
                                       obs::MetricsRegistry* metrics) {
  core::ParallelOptions o;
  o.num_threads = c.threads;
  o.pop_batch = engine::JobConfig::kDefaultAutoPopBatch;
  o.pop_batch_auto = true;
  o.seed = sched_seed;
  o.metrics = metrics;
  return o;
}

/// What one relaxed solve reports to the repetition that ran it.
struct Solve {
  double wall_s = 0.0;
  core::ExecutionStats stats;
  std::uint64_t registry_claims = 0;  // engine's own claim count (0 = none)
};

std::uint64_t registry_claims(const obs::MetricsRegistry& reg) {
  std::uint64_t claims = 0;
  for (const auto& w : reg.snapshot().workers) claims += w.claims;
  return claims;
}

/// Per-layer totals of one traced repetition (MIS + matching summed).
struct TracedTotals {
  std::uint64_t calls = 0, processed = 0, not_ready = 0, dead = 0;
  std::vector<double> call_ns;
  std::uint64_t claims = 0, empty_claims = 0, claimed_keys = 0;
  std::uint64_t claim_ns = 0, inserted_keys = 0, insert_ns = 0;
  std::vector<double> claim_latency_ns;
  double pool_s = 0.0, job_s = 0.0;
  std::uint64_t failed_deletes = 0;
  std::uint64_t slices = 0, idle_visits = 0, parks = 0;
  double park_s = 0.0, slice_busy_s = 0.0;
  obs::Histogram slice_ns;
};

/// The engine job's share of a one-shot call, as a child span of the call,
/// so the call's self time is the pool set-up and teardown around it.
void record_engine_job(SpanLog& log, std::uint64_t call_start_ns,
                       const core::ExecutionStats& stats, std::uint64_t id) {
  log.record("engine.job", call_start_ns,
             call_start_ns + static_cast<std::uint64_t>(stats.seconds * 1e9),
             id);
}

/// The untraced path a caller takes: the named registry backend.
template <typename P>
Solve solve_plain(P& problem, const graph::Priorities& pri,
                  const core::ParallelOptions& opts, SpanLog& log,
                  std::uint64_t id) {
  auto scope = log.scope("core.run_parallel_relaxed_backend", id);
  Solve s;
  const std::uint64_t t0 = now_ns();
  s.stats = core::run_parallel_relaxed_backend(problem, pri, kBackend, opts);
  s.wall_s = seconds_since(t0);
  record_engine_job(log, t0, s.stats, id);
  if (opts.metrics != nullptr) s.registry_claims = registry_claims(*opts.metrics);
  return s;
}

/// The traced path: the same scheduler the backend would build, driven
/// through the bench adaptors.
template <typename P>
Solve solve_traced(P& problem, const graph::Priorities& pri,
                   const core::ParallelOptions& opts, SpanLog& log,
                   std::uint64_t id, TracedTotals& t, Checks& checks) {
  const sched::BackendInfo& info = sched::backend_or_throw(kBackend);
  sched::ConcurrentMultiQueue queue(
      std::max(2u, opts.queue_factor * opts.threads()), opts.seed,
      info.choices);
  TracedQueue<sched::ConcurrentMultiQueue> traced_queue(queue);
  TracedProblem<P> traced_problem(problem);
  Solve s;
  {
    auto scope = log.scope("core.run_parallel_relaxed_on", id);
    const std::uint64_t t0 = now_ns();
    s.stats = core::run_parallel_relaxed_on(traced_problem, pri, traced_queue,
                                            opts);
    s.wall_s = seconds_since(t0);
    record_engine_job(log, t0, s.stats, id);
  }
  s.registry_claims = registry_claims(*opts.metrics);

  for (const auto& slot : traced_problem.slots()) {
    t.calls += slot.calls;
    t.processed += slot.outcomes[0];
    t.not_ready += slot.outcomes[1];
    t.dead += slot.outcomes[2];
    t.call_ns.insert(t.call_ns.end(), slot.call_ns.begin(), slot.call_ns.end());
  }
  std::uint64_t claims = 0;
  for (const auto& c : traced_queue.counters()) {
    claims += c.claims;
    t.empty_claims += c.empty_claims;
    t.claimed_keys += c.claimed_keys;
    t.claim_ns += c.claim_ns;
    t.inserted_keys += c.inserted_keys;
    t.insert_ns += c.insert_ns;
    t.claim_latency_ns.insert(t.claim_latency_ns.end(),
                              c.claim_latency_ns.begin(),
                              c.claim_latency_ns.end());
  }
  t.claims += claims;
  checks.expect(claims == s.registry_claims,
                "traced adaptor saw " + std::to_string(claims) +
                    " claims, engine counted " +
                    std::to_string(s.registry_claims));

  t.pool_s += s.wall_s - s.stats.seconds;
  t.job_s += s.stats.seconds;
  t.failed_deletes += s.stats.failed_deletes;
  const obs::MetricsSnapshot snap = opts.metrics->snapshot();
  for (const auto& w : snap.workers) {
    t.slices += w.slices;
    t.idle_visits += w.idle_visits;
    t.parks += w.parks;
    t.park_s += static_cast<double>(w.park_ns.sum()) / 1e9;
    t.slice_busy_s += static_cast<double>(w.slice_ns.sum()) / 1e9;
  }
  t.slice_ns.merge(snap.slice_ns);
  return s;
}

bool within(double a, double b, double tolerance) {
  return b > 0 && std::abs(a - b) <= tolerance * b;
}

void emit_traced_layers(const TracedTotals& t, unsigned threads, Layers& L) {
  const double calls = static_cast<double>(t.calls);
  L.add("algorithms.calls", calls);
  L.add("algorithms.processed", static_cast<double>(t.processed));
  L.add("algorithms.not_ready", static_cast<double>(t.not_ready));
  L.add("algorithms.dead", static_cast<double>(t.dead));
  L.add("algorithms.useful_frac",
        calls > 0 ? static_cast<double>(t.processed) / calls : 0.0);
  L.add("algorithms.call_ns_p50", percentile(t.call_ns, 50));
  L.add("core.pool_s", t.pool_s);
  const double claims = static_cast<double>(t.claims);
  L.add("sched.claims", claims);
  L.add("sched.keys_per_claim",
        claims > 0 ? static_cast<double>(t.claimed_keys) / claims : 0.0);
  L.add("sched.empty_claims", static_cast<double>(t.empty_claims));
  L.add("sched.claim_ns_p50", percentile(t.claim_latency_ns, 50));
  L.add("sched.claim_ns_p99", percentile(t.claim_latency_ns, 99));
  L.add("sched.inserted_keys", static_cast<double>(t.inserted_keys));
  L.add("sched.insert_ns_per_key",
        t.inserted_keys > 0 ? static_cast<double>(t.insert_ns) /
                                  static_cast<double>(t.inserted_keys)
                            : 0.0);
  const double worker_s = static_cast<double>(threads) * t.job_s;
  L.add("sched.busy_frac",
        worker_s > 0 ? static_cast<double>(t.claim_ns + t.insert_ns) / 1e9 /
                           worker_s
                     : 0.0);
  L.add("sched.extra_iterations", static_cast<double>(t.failed_deletes));
  L.add("engine.job_s", t.job_s);
  L.add("engine.slices", static_cast<double>(t.slices));
  L.add("engine.slice_p99_us", t.slice_ns.percentile(99.0) / 1e3);
  L.add("engine.idle_visits", static_cast<double>(t.idle_visits));
  L.add("engine.parks", static_cast<double>(t.parks));
  L.add("engine.park_s", t.park_s);
  L.add("engine.worker_busy_frac",
        worker_s > 0 ? t.slice_busy_s / worker_s : 0.0);
}

struct GreedyInput {
  graph::Graph g;
  graph::Priorities vertex_pri;
  std::optional<algorithms::EdgeIncidence> incidence;
  graph::Priorities edge_pri;
};

/// The greedy set-up on an existing graph: both priority orders, the edge
/// incidence and the adapters.
void derive_greedy_input(const SolveConfig& c, GreedyInput& in, SpanLog& log,
                         Layers& L, std::uint64_t id) {
  double pri_s = timed(log, "graph.random_priorities", id, [&] {
    in.vertex_pri = graph::random_priorities(in.g.num_vertices(), c.seed + 7);
  });
  timed(log, "algorithms.EdgeIncidence", id,
        [&] { in.incidence.emplace(in.g); });
  pri_s += timed(log, "graph.random_priorities", id, [&] {
    in.edge_pri =
        graph::random_priorities(in.incidence->num_edges(), c.seed + 11);
  });
  L.add("graph.priorities_s", pri_s);
  timed(log, "algorithms.adapters", id, [&] {
    algorithms::AtomicMisProblem mis(in.g, in.vertex_pri);
    algorithms::AtomicMatchingProblem matching(*in.incidence, in.edge_pri);
  });
}

/// Set-up a caller pays before the first solve: the graph, then the rest.
void make_greedy_input(const SolveConfig& c, GreedyInput& in, SpanLog& log,
                       Layers& L, std::uint64_t id) {
  auto scope = log.scope("bench.setup", id);
  L.add("graph.gen_s", timed(log, "graph.gnm", id, [&] {
          in.g = graph::gnm(kVertices, kEdges, c.seed, c.threads);
        }));
  derive_greedy_input(c, in, log, L, id);
}

/// The outputs every greedy repetition must reproduce.
struct GreedyRefs {
  std::vector<std::uint8_t> mis, matching;
};

GreedyRefs greedy_references(const GreedyInput& in, Checks& checks) {
  GreedyRefs r;
  r.mis = algorithms::sequential_greedy_mis(in.g, in.vertex_pri);
  r.matching = algorithms::sequential_greedy_matching(*in.incidence,
                                                      in.edge_pri);
  checks.expect(algorithms::verify_mis(in.g, r.mis),
                "sequential MIS fails verify_mis");
  checks.expect(algorithms::verify_matching(*in.incidence, r.matching),
                "sequential matching fails verify_matching");
  return r;
}

/// One greedy repetition: relaxed MIS and matching, plain or traced, then
/// the sequential pair, every output checked against the references.
struct GreedyRep {
  Solve mis, matching;
  std::vector<double> seq_mis_s, seq_matching_s;
  TracedTotals t;  // traced repetitions only
};

GreedyRep greedy_rep(const SolveConfig& c, const GreedyInput& in,
                     const GreedyRefs& refs, std::uint64_t rep, bool traced,
                     obs::MetricsRegistry* registry, SpanLog& log,
                     Checks& checks) {
  const auto& inc = *in.incidence;
  const std::uint64_t id = 1000 + rep;
  auto rep_scope = log.scope("bench.solve", id);
  const auto opts = parallel_options(c, c.seed * 7919 + rep, registry);
  GreedyRep r;
  {
    algorithms::AtomicMisProblem mis(in.g, in.vertex_pri);
    const std::uint64_t t0 = now_ns();
    r.mis = traced ? solve_traced(mis, in.vertex_pri, opts, log, id, r.t, checks)
                   : solve_plain(mis, in.vertex_pri, opts, log, id);
    const auto result = mis.result();
    r.mis.wall_s = seconds_since(t0);
    checks.expect(result == refs.mis, "relaxed MIS differs from sequential");
  }
  {
    algorithms::AtomicMatchingProblem matching(inc, in.edge_pri);
    const std::uint64_t t0 = now_ns();
    r.matching =
        traced ? solve_traced(matching, in.edge_pri, opts, log, id, r.t, checks)
               : solve_plain(matching, in.edge_pri, opts, log, id);
    const auto result = matching.result();
    r.matching.wall_s = seconds_since(t0);
    checks.expect(result == refs.matching,
                  "relaxed matching differs from sequential");
  }
  // The sequential pair is short and memory-bound, so it is timed
  // kSeqPerRep times per repetition to steady its median.
  for (unsigned k = 0; k < kSeqPerRep; ++k) {
    std::vector<std::uint8_t> seq_mis, seq_matching;
    r.seq_mis_s.push_back(
        timed(log, "algorithms.sequential_greedy_mis", id, [&] {
          seq_mis = algorithms::sequential_greedy_mis(in.g, in.vertex_pri);
        }));
    r.seq_matching_s.push_back(
        timed(log, "algorithms.sequential_greedy_matching", id, [&] {
          seq_matching =
              algorithms::sequential_greedy_matching(inc, in.edge_pri);
        }));
    checks.expect(seq_mis == refs.mis, "sequential MIS not reproducible");
    checks.expect(seq_matching == refs.matching,
                  "sequential matching not reproducible");
  }
  return r;
}

void emit_greedy_layers(const GreedyRep& r, unsigned threads, Layers& L) {
  L.add("algorithms.mis_s", r.mis.wall_s);
  L.add("algorithms.matching_s", r.matching.wall_s);
  L.add("algorithms.seq_mis_s", percentile(r.seq_mis_s, 50));
  L.add("algorithms.seq_matching_s", percentile(r.seq_matching_s, 50));
  emit_traced_layers(r.t, threads, L);
}

/// One SSSP repetition: the relaxed solve and Dijkstra, whose first result
/// becomes `reference` for every later one.
struct SsspRep {
  double solve_s = 0.0;
  std::vector<double> seq_s;
  algorithms::SsspStats stats;
};

SsspRep sssp_rep(const SolveConfig& c, const graph::Graph& g,
                 const std::vector<std::uint32_t>& weights, std::uint64_t rep,
                 std::vector<std::uint32_t>& reference, SpanLog& log,
                 Checks& checks) {
  const std::uint64_t id = 1000 + rep;
  auto rep_scope = log.scope("bench.solve", id);
  algorithms::SsspOptions opts;
  opts.num_threads = c.threads;
  opts.seed = c.seed * 7919 + rep;
  opts.pop_batch = engine::JobConfig::kDefaultAutoPopBatch;
  opts.pop_batch_auto = true;
  SsspRep r;
  std::vector<std::uint32_t> dist, exact;
  r.solve_s = timed(log, "algorithms.parallel_relaxed_sssp", id, [&] {
    dist = algorithms::parallel_relaxed_sssp(g, weights, 0, opts, &r.stats);
  });
  // Dijkstra's time swings more than the solve's between calls, so it is
  // timed kSeqPerRep times per repetition too.
  for (unsigned k = 0; k < kSeqPerRep; ++k) {
    r.seq_s.push_back(timed(log, "algorithms.dijkstra", id, [&] {
      exact = algorithms::dijkstra(g, weights, 0);
    }));
    if (reference.empty()) reference = exact;
    checks.expect(exact == reference, "dijkstra not reproducible");
  }
  checks.expect(dist == exact, "relaxed SSSP distances differ from dijkstra");
  return r;
}

void emit_sssp_layers(const SsspRep& r, Layers& L) {
  const auto& s = r.stats;
  L.add("algorithms.dijkstra_s", percentile(r.seq_s, 50));
  L.add("sched.stale_frac",
        s.pops > 0 ? static_cast<double>(s.stale_pops) /
                         static_cast<double>(s.pops)
                   : 0.0);
  L.add("sched.keys_per_claim",
        s.batches > 0
            ? static_cast<double>(s.pops) / static_cast<double>(s.batches)
            : 0.0);
}

/// parallel_relaxed_sssp owns its queue, so the scheduler's steady-state
/// cost under Dijkstra-shaped keys is measured on the same backend at a
/// live size close to SSSP's.
void emit_steady_layers(const SolveConfig& c, SpanLog& log, Layers& L) {
  bench::SteadyConfig steady;
  steady.backend = &sched::backend_or_throw(kBackend);
  steady.threads = c.threads;
  steady.distribution = sched::KeyDistribution::kDijkstra;
  steady.pop_batch = engine::JobConfig::kDefaultAutoPopBatch;
  steady.pop_batch_auto = true;
  steady.prefill = 1'000'000;
  steady.working_seconds = 1.0;
  steady.runs = 1;
  steady.quality = false;
  steady.seed = c.seed;
  bench::SteadyCell cell;
  {
    auto scope = log.scope("bench.run_steady_cell", 0);
    cell = bench::run_steady_cell(steady);
  }
  L.add("sched.steady_ops_per_s", cell.ops_per_s);
  L.add("sched.steady_op_p99_us", cell.op_p99_us);
}

int run_greedy(const SolveConfig& c) {
  SpanLog log(c.trace);
  Layers L;
  Checks checks;
  std::vector<double> setup_s, solve_s, seq_s;

  GreedyInput in;
  for (unsigned i = 0; i < kSetupReps; ++i) {
    in = GreedyInput{};
    const std::uint64_t t0 = now_ns();
    make_greedy_input(c, in, log, L, i);
    setup_s.push_back(seconds_since(t0));
  }
  const GreedyRefs refs = greedy_references(in, checks);

  obs::MetricsRegistry registry;
  std::vector<double> plain_solve_s, traced_solve_s;
  std::vector<double> plain_iters, traced_iters, plain_claims, traced_claims;
  const std::uint64_t deadline = now_ns() + c.seconds * 1'000'000'000ull;
  for (std::uint64_t rep = 0; rep < kMinReps || now_ns() < deadline; ++rep) {
    const bool traced = c.trace && rep % 2 == 1;
    const GreedyRep r = greedy_rep(c, in, refs, rep, traced,
                                   c.trace ? &registry : nullptr, log, checks);
    const double solve = r.mis.wall_s + r.matching.wall_s;
    const double iters = static_cast<double>(r.mis.stats.iterations +
                                             r.matching.stats.iterations);
    const double claims = static_cast<double>(r.mis.registry_claims +
                                              r.matching.registry_claims);
    if (!c.trace) {
      solve_s.push_back(solve);
      for (unsigned k = 0; k < kSeqPerRep; ++k)
        seq_s.push_back(r.seq_mis_s[k] + r.seq_matching_s[k]);
    } else if (!traced) {
      plain_solve_s.push_back(solve);
      plain_iters.push_back(iters);
      plain_claims.push_back(claims);
    } else {
      traced_solve_s.push_back(solve);
      traced_iters.push_back(iters);
      traced_claims.push_back(claims);
      emit_greedy_layers(r, c.threads, L);
    }
  }

  JsonOut out;
  if (c.trace) {
    const double plain = percentile(plain_solve_s, 50);
    L.add("obs.overhead_frac", percentile(traced_solve_s, 50) / plain - 1.0);
    checks.expect(within(percentile(traced_iters, 50),
                         percentile(plain_iters, 50), kFidelityTolerance),
                  "traced iterations differ from untraced");
    checks.expect(within(percentile(traced_claims, 50),
                         percentile(plain_claims, 50), kFidelityTolerance),
                  "traced claims differ from untraced");
    // Every traced run prints every layer: the sssp-only ones come from one
    // SSSP repetition on the same graph and the steady-state cell. Names
    // greedy measured itself keep greedy's values.
    Layers sssp;
    const auto weights = algorithms::synthetic_edge_weights(in.g, c.seed + 3);
    std::vector<std::uint32_t> reference;
    emit_sssp_layers(sssp_rep(c, in.g, weights, 0, reference, log, checks),
                     sssp);
    emit_steady_layers(c, log, sssp);
    L.add_missing(sssp);
    L.emit(out);
    if (!c.spans_path.empty()) log.write_json(c.spans_path);
  } else {
    out.list("setup_s", setup_s).list("solve_s", solve_s).list("seq_s", seq_s);
  }
  out.num("peak_rss_mb", peak_rss_mb())
      .boolean("correct", checks.failed == 0)
      .num("attempted", static_cast<double>(checks.attempted))
      .num("failed", static_cast<double>(checks.failed))
      .str("errors", checks.errors);
  out.print();
  return 0;
}

int run_sssp(const SolveConfig& c) {
  SpanLog log(c.trace);
  Layers L;
  Checks checks;
  std::vector<double> setup_s, solve_s, seq_s;

  graph::Graph g;
  std::vector<std::uint32_t> weights;
  for (unsigned i = 0; i < kSetupReps; ++i) {
    g = graph::Graph{};
    weights.clear();
    const std::uint64_t t0 = now_ns();
    {
      auto scope = log.scope("bench.setup", i);
      L.add("graph.gen_s", timed(log, "graph.gnm", i, [&] {
              g = graph::gnm(kVertices, kEdges, c.seed, c.threads);
            }));
      timed(log, "algorithms.synthetic_edge_weights", i, [&] {
        weights = algorithms::synthetic_edge_weights(g, c.seed + 3);
      });
    }
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<std::uint32_t> reference;
  std::vector<double> plain_solve_s, traced_solve_s;
  const std::uint64_t deadline = now_ns() + c.seconds * 1'000'000'000ull;
  for (std::uint64_t rep = 0; rep < kMinReps || now_ns() < deadline; ++rep) {
    const bool traced = c.trace && rep % 2 == 1;
    const SsspRep r = sssp_rep(c, g, weights, rep, reference, log, checks);
    if (!c.trace) {
      solve_s.push_back(r.solve_s);
      seq_s.insert(seq_s.end(), r.seq_s.begin(), r.seq_s.end());
    } else if (!traced) {
      plain_solve_s.push_back(r.solve_s);
    } else {
      traced_solve_s.push_back(r.solve_s);
      emit_sssp_layers(r, L);
    }
  }

  JsonOut out;
  if (c.trace) {
    L.add("obs.overhead_frac", percentile(traced_solve_s, 50) /
                                   percentile(plain_solve_s, 50) -
                               1.0);
    emit_steady_layers(c, log, L);
    // Every traced run prints every layer: the greedy-only ones come from
    // one traced greedy repetition on the same graph. Names sssp measured
    // itself keep sssp's values.
    Layers greedy;
    GreedyInput in;
    in.g = std::move(g);
    derive_greedy_input(c, in, log, greedy, 0);
    const GreedyRefs refs = greedy_references(in, checks);
    obs::MetricsRegistry registry;
    emit_greedy_layers(
        greedy_rep(c, in, refs, 0, true, &registry, log, checks), c.threads,
        greedy);
    L.add_missing(greedy);
    L.emit(out);
    if (!c.spans_path.empty()) log.write_json(c.spans_path);
  } else {
    out.list("setup_s", setup_s).list("solve_s", solve_s).list("seq_s", seq_s);
  }
  out.num("peak_rss_mb", peak_rss_mb())
      .boolean("correct", checks.failed == 0)
      .num("attempted", static_cast<double>(checks.attempted))
      .num("failed", static_cast<double>(checks.failed))
      .str("errors", checks.errors);
  out.print();
  return 0;
}

}  // namespace

int run_solve(const SolveConfig& c) {
  if (c.workload == "greedy") return run_greedy(c);
  if (c.workload == "sssp") return run_sssp(c);
  std::fprintf(stderr, "perfbench solve: unknown workload '%s'\n",
               c.workload.c_str());
  return 2;
}

}  // namespace perfbench
