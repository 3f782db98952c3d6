// Backend matrix — the cross-backend experiment the registry exists for:
// every registered scheduler backend × thread count × workload, one
// comparable table of throughput (tasks/s), wasted-work overhead
// (iterations per task, the paper's extra-iterations metric), and
// Definition 1 relaxation quality (mean/max rank error from a monitored
// companion run of the same job).
//
// Workloads: the framework problems MIS, greedy coloring, and maximal
// matching run through the engine on every backend. SSSP is outside the
// deterministic framework class (§2.2) and its label-correcting engine job
// is keyed by 64-bit (distance, vertex) pairs over its own
// BasicConcurrentMultiQueue — it is swept per (thread count, pop-batch)
// against the multiqueue-c2 row only and marked "-" elsewhere.
//
// The pop-batch axis sweeps batching on BOTH scheduler sides (labels
// claimed per acquisition touch, kNotReady re-insertions flushed as one
// batched insert run): batch k>1 pays one sample/lock round trip per k
// scheduler touches on backends with native batch ops, at an O(k*q)
// rank-error cost the quality columns make visible next to the throughput
// gain. SSSP's job batches the same way (pop_batch keys per claim,
// relaxations re-inserted as one batched insert). The axis accepts the same
// vocabulary as the CLIs — fixed sizes, `auto`, and `auto:<max>` — so the
// occupancy-aware adaptive controller gets its own rows next to the fixed
// caps it is supposed to track (printed as a<max> in the batch column).
//
// --json=<path> additionally writes every row as a JSON array — the
// machine-readable form CI uploads as the BENCH_backend_matrix.json
// artifact, seeding the perf trajectory (tools/bench_diff.py compares two
// of these cell by cell).
//
// The numa axis sweeps topology-aware placement (util/topology.h): each
// entry is off | auto | virtual:<K>, the same vocabulary as the CLIs.
// virtual:K is the reproducible form — synthetic domains independent of
// the host — so a CI box can hold the locality-vs-quality trade steady.
// The domain spec is recorded per JSON cell, so bench_diff.py keys on it
// and an off-vs-virtual regression shows up cell by cell.
//
// Usage: backend_matrix [--n=4000] [--m=24000] [--threads=1,4]
//                       [--pop-batch=1,8,auto:8]
//                       [--numa=off,virtual:2]
//                       [--backends=all|name,name,...]
//                       [--quality=1] [--repeat=3] [--seed=1] [--json=path]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/coloring.h"
#include "algorithms/matching.h"
#include "algorithms/mis.h"
#include "algorithms/sssp.h"
#include "core/parallel_executor.h"
#include "engine/engine.h"
#include "engine/flags.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "util/cli.h"
#include "util/topology.h"

namespace {

namespace flags = relax::engine::flags;
using relax::core::ExecutionStats;
using relax::graph::Graph;
using relax::sched::BackendInfo;

struct Row {
  const char* workload;
  std::string backend;
  unsigned threads;
  unsigned pop_batch;
  bool pop_batch_auto;
  std::string numa;  // topology spec label: off | auto | virtual:K
  double seconds;
  double tasks_per_s;
  double iters_per_task;
  double wasted_frac;
  double slice_p99_us;  // < 0: not measured (sssp rows — SsspStats has none)
  double mean_rank;     // < 0: not measured
  std::uint64_t max_rank;
};

/// The batch column: a fixed size prints as the number, an adaptive row as
/// a<cap> (e.g. a8 == --pop-batch=auto:8).
std::string batch_label(const Row& r) {
  return (r.pop_batch_auto ? "a" : "") + std::to_string(r.pop_batch);
}

void print_row(const Row& r) {
  std::printf("%-9s %-20s %7u %6s %-10s %9.4f %12.0f %10.3f %8.2f%%",
              r.workload, r.backend.c_str(), r.threads,
              batch_label(r).c_str(), r.numa.c_str(), r.seconds,
              r.tasks_per_s, r.iters_per_task, 100.0 * r.wasted_frac);
  if (r.slice_p99_us >= 0.0) {
    std::printf("%10.1f", r.slice_p99_us);
  } else {
    std::printf("%10s", "-");
  }
  if (r.mean_rank >= 0.0) {
    std::printf("%10.2f %9llu\n", r.mean_rank,
                static_cast<unsigned long long>(r.max_rank));
  } else {
    std::printf("%10s %9s\n", "-", "-");
  }
}

/// Writes the collected rows as a JSON array (one object per row; quality
/// fields are null when not measured). No external deps — every field is a
/// number or a name from the registry, so plain fprintf suffices.
bool write_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open --json path '%s'\n", path);
    return false;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "  {\"workload\": \"%s\", \"backend\": \"%s\", "
                 "\"threads\": %u, \"pop_batch\": %u, "
                 "\"pop_batch_auto\": %s, \"numa\": \"%s\", "
                 "\"seconds\": %.6f, "
                 "\"tasks_per_s\": %.1f, \"iters_per_task\": %.4f, "
                 "\"wasted_frac\": %.6f, ",
                 r.workload, r.backend.c_str(), r.threads, r.pop_batch,
                 r.pop_batch_auto ? "true" : "false", r.numa.c_str(),
                 r.seconds, r.tasks_per_s, r.iters_per_task, r.wasted_frac);
    if (r.slice_p99_us >= 0.0) {
      std::fprintf(f, "\"slice_p99_us\": %.2f, ", r.slice_p99_us);
    } else {
      std::fprintf(f, "\"slice_p99_us\": null, ");
    }
    if (r.mean_rank >= 0.0) {
      std::fprintf(f, "\"mean_rank\": %.4f, \"max_rank\": %llu}",
                   r.mean_rank,
                   static_cast<unsigned long long>(r.max_rank));
    } else {
      std::fprintf(f, "\"mean_rank\": null, \"max_rank\": null}");
    }
    std::fprintf(f, "%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  return true;
}

/// One framework cell for `problem` on `backend`: `repeat` timed plain
/// runs with the MEDIAN-throughput run reported (a single cold shot per
/// cell made first-cell rows absorb allocator/page-fault warmup and trip
/// spurious bench_diff warnings), plus (optionally) one monitored run of a
/// fresh copy for the Definition 1 quality columns.
template <typename MakeProblem>
Row run_framework(const char* workload, const BackendInfo& backend,
                  unsigned threads,
                  const relax::engine::PopBatchFlag& pop_batch,
                  const relax::util::TopologySpec& numa,
                  const relax::graph::Priorities& pri,
                  MakeProblem make_problem, bool quality, unsigned repeat,
                  std::uint64_t seed) {
  relax::engine::EngineOptions eo;
  eo.num_threads = threads;
  eo.pin_threads = false;
  eo.max_in_flight = 1;
  eo.topology = numa;
  relax::engine::SchedulingEngine eng(eo);

  relax::engine::JobConfig cfg;
  cfg.seed = seed;
  cfg.pop_batch = pop_batch.batch;
  cfg.pop_batch_auto = pop_batch.adaptive;

  std::vector<ExecutionStats> trials;
  std::uint32_t n = 0;
  for (unsigned r = 0; r < std::max<unsigned>(repeat, 1); ++r) {
    auto problem = make_problem();
    n = problem.num_tasks();
    trials.push_back(
        eng.submit_relaxed_backend(problem, pri, backend, cfg).wait());
  }
  std::sort(trials.begin(), trials.end(),
            [](const ExecutionStats& a, const ExecutionStats& b) {
              return a.seconds < b.seconds;
            });
  const ExecutionStats& stats = trials[(trials.size() - 1) / 2];

  Row row;
  row.workload = workload;
  row.backend = std::string(backend.name);
  row.threads = threads;
  row.pop_batch = pop_batch.batch;
  row.pop_batch_auto = pop_batch.adaptive;
  row.numa = numa.label();
  row.seconds = stats.seconds;
  row.tasks_per_s = stats.seconds > 0.0 ? n / stats.seconds : 0.0;
  row.iters_per_task =
      n > 0 ? static_cast<double>(stats.iterations) / n : 0.0;
  row.wasted_frac =
      stats.iterations > 0
          ? static_cast<double>(stats.failed_deletes) / stats.iterations
          : 0.0;
  // Tail latency straight from the job's always-on slice histogram — no
  // registry needed for the per-cell p99.
  row.slice_p99_us = stats.slices > 0 ? stats.slice_percentile_us(99) : -1.0;
  row.mean_rank = -1.0;
  row.max_rank = 0;
  if (quality) {
    auto audited = make_problem();
    relax::engine::JobConfig audit_cfg = cfg;
    audit_cfg.monitor_relaxation = true;
    audit_cfg.monitor_stride = 64;
    const ExecutionStats audit =
        eng.submit_relaxed_backend(audited, pri, backend, audit_cfg).wait();
    row.mean_rank = audit.mean_rank_error;
    row.max_rank = audit.max_rank_error;
  }
  return row;
}

}  // namespace

[[noreturn]] void usage_and_exit(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: bench_backend_matrix [flags]   (every axis flag is a "
      "comma-separated list)\n"
      "\n"
      "  --n=<v> --m=<e>          G(n,m) workload size (default 4000 / "
      "24000)\n"
      "  --threads=<list>         thread-count axis (default 1,4)\n"
      "  --pop-batch=<list>       labels per scheduler touch, each entry\n"
      "                           <k>, 'auto', or 'auto:<max>' — 'auto'\n"
      "                           enables the adaptive controller\n"
      "                           (default 1,8,auto:8)\n"
      "  --numa=<list>            topology-aware placement axis, each\n"
      "                           entry off|auto|virtual:<K>; virtual:K\n"
      "                           splits workers into K synthetic domains\n"
      "                           for host-independent CI (default off)\n"
      "  --backends=all|<list>    backend registry names (default all)\n"
      "  --quality=0|1            also run the Definition 1 monitored\n"
      "                           companion pass (default 1)\n"
      "  --repeat=<r>             repetitions per cell, median reported\n"
      "                           (default 3)\n"
      "  --seed=<s>               base seed (default 1)\n"
      "  --json=<path>            machine-readable artifact for\n"
      "                           tools/bench_diff.py\n"
      "  --help                   this text\n");
  std::exit(error != nullptr ? 2 : 0);
}

int main(int argc, char** argv) {
  const relax::util::CommandLine cli(argc, argv);
  if (cli.has("help")) usage_and_exit(nullptr);
  const auto n = static_cast<std::uint32_t>(cli.get_int("n", 4000));
  const auto m = static_cast<std::uint64_t>(cli.get_int("m", 24000));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool quality = cli.get_bool("quality", true);
  const auto repeat =
      static_cast<unsigned>(std::max<std::int64_t>(cli.get_int("repeat", 3), 1));
  const auto thread_list = cli.get_int_list("threads", {1, 4});

  // The pop-batch and numa axes speak the CLI vocabulary (fixed | auto |
  // auto:max, off | auto | virtual:K), so adaptive rows sit next to the
  // fixed caps they should track and each placement is its own JSON key.
  const auto batch_list =
      flags::parse_pop_batch_list(cli.get_string("pop-batch", "1,8,auto:8"));
  if (!batch_list) return 2;
  const auto numa_list = flags::parse_numa_list(cli.get_string("numa", "off"));
  if (!numa_list) return 2;
  const auto backends =
      flags::parse_backend_list(cli.get_string("backends", "all"));
  if (!backends) return 2;

  const Graph g = relax::graph::gnm(n, m, seed);
  const auto pri = relax::graph::random_priorities(n, seed + 7);
  const relax::algorithms::EdgeIncidence incidence(g);
  const auto edge_pri =
      relax::graph::random_priorities(incidence.num_edges(), seed + 11);
  const auto weights = relax::algorithms::synthetic_edge_weights(g, seed + 3);

  std::printf("backend_matrix: gnm n=%u m=%llu, %zu backends, quality=%d\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()),
              backends->size(), quality ? 1 : 0);
  std::printf("%-9s %-20s %7s %6s %-10s %9s %12s %10s %9s %10s %10s %9s\n",
              "workload", "backend", "threads", "batch", "numa", "seconds",
              "tasks/s", "iters/task", "wasted", "p99-us", "mean-rank",
              "max-rank");

  std::vector<Row> rows;
  const auto emit = [&rows](Row row) {
    print_row(row);
    rows.push_back(std::move(row));
  };

  for (const std::int64_t t : thread_list) {
    const auto threads = static_cast<unsigned>(t < 1 ? 1 : t);
    for (const relax::engine::PopBatchFlag& pop_batch : *batch_list) {
      for (const relax::util::TopologySpec& numa : *numa_list) {
      for (const BackendInfo* backend : *backends) {
        emit(run_framework(
            "mis", *backend, threads, pop_batch, numa, pri,
            [&] { return relax::algorithms::AtomicMisProblem(g, pri); },
            quality, repeat, seed));
        emit(run_framework(
            "coloring", *backend, threads, pop_batch, numa, pri,
            [&] { return relax::algorithms::AtomicColoringProblem(g, pri); },
            quality, repeat, seed));
        emit(run_framework(
            "matching", *backend, threads, pop_batch, numa, edge_pri,
            [&] {
              return relax::algorithms::AtomicMatchingProblem(incidence,
                                                              edge_pri);
            },
            quality, repeat, seed));
        // SSSP rides its own 64-bit-key MultiQueue (see header note): one
        // row per (thread count, pop-batch), attached to multiqueue-c2 —
        // its label-correcting engine job batches both scheduler sides with
        // the same pop_batch (and the same adaptive controller) the
        // framework rows sweep.
        if (backend->name == "multiqueue-c2") {
          relax::algorithms::SsspOptions sssp_opts;
          sssp_opts.num_threads = threads;
          sssp_opts.queue_factor = 4;
          sssp_opts.seed = seed;
          sssp_opts.pop_batch = pop_batch.batch;
          sssp_opts.pop_batch_auto = pop_batch.adaptive;
          sssp_opts.topology = numa;
          // Same median-of-repeat discipline as the framework rows.
          std::vector<relax::algorithms::SsspStats> strials(repeat);
          for (unsigned r = 0; r < repeat; ++r)
            (void)relax::algorithms::parallel_relaxed_sssp(
                g, weights, 0, sssp_opts, &strials[r]);
          std::sort(strials.begin(), strials.end(),
                    [](const relax::algorithms::SsspStats& a,
                       const relax::algorithms::SsspStats& b) {
                      return a.seconds < b.seconds;
                    });
          const relax::algorithms::SsspStats& sstats =
              strials[(strials.size() - 1) / 2];
          Row row;
          row.workload = "sssp";
          row.backend = std::string(backend->name);
          row.threads = threads;
          row.pop_batch = pop_batch.batch;
          row.pop_batch_auto = pop_batch.adaptive;
          row.numa = numa.label();
          row.seconds = sstats.seconds;
          row.tasks_per_s =
              sstats.seconds > 0.0 ? g.num_vertices() / sstats.seconds : 0.0;
          row.iters_per_task =
              g.num_vertices() > 0
                  ? static_cast<double>(sstats.pops) / g.num_vertices()
                  : 0.0;
          row.wasted_frac =
              sstats.pops > 0
                  ? static_cast<double>(sstats.stale_pops) / sstats.pops
                  : 0.0;
          row.slice_p99_us = -1.0;  // SsspStats carries no slice latency
          row.mean_rank = -1.0;
          row.max_rank = 0;
          emit(row);
        }
      }
      }
    }
  }

  const std::string json_path = cli.get_string("json", "");
  if (!json_path.empty() && !write_json(json_path.c_str(), rows)) return 1;
  return 0;
}
