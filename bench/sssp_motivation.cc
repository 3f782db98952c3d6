// Experiment E10 — the paper's §1 motivating example: parallelizing
// Dijkstra's SSSP with a relaxed scheduler.
//
// "The scheduler can retrieve vertices in relaxed order without breaking
// correctness, as the distance at each vertex is guaranteed to eventually
// converge to the minimum. The trade-off is between the performance gains
// arising from using simpler, more scalable schedulers, and the loss of
// determinism and the wasted work due to relaxed priority order."
//
// This bench quantifies exactly that trade-off:
//   (a) wall time of the concurrent relaxed SSSP vs sequential Dijkstra,
//       swept over thread counts;
//   (b) wasted work (stale pops) as a function of the relaxation degree
//       (MultiQueue queue factor) at fixed thread count.
//
// Distances are verified against Dijkstra on every run — relaxation never
// affects the output here (monotone convergence), only the work.
//
// Usage: sssp_motivation [--n=2000000] [--m=20000000] [--trials=3]
//                        [--threads=1,2,4,8,16,24] [--seed=1] [--help]
#include <cstdio>
#include <vector>

#include "algorithms/sssp.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/thread_pin.h"
#include "util/timer.h"

namespace {

void print_usage() {
  std::fprintf(
      stderr,
      "sssp_motivation — relaxed concurrent SSSP vs sequential Dijkstra\n"
      "\n"
      "  --n=<vertices>           G(n, m) vertex count (default 2000000)\n"
      "  --m=<edges>              G(n, m) edge count (default 20000000)\n"
      "  --trials=<t>             runs per cell, best reported (default 3)\n"
      "  --threads=<list>         thread counts for table (a)\n"
      "                           (default 1,2,4,8,16 plus the hardware\n"
      "                           thread count when larger)\n"
      "  --seed=<s>               graph, weight and scheduler seed\n"
      "                           (default 1)\n"
      "  --help                   this text\n");
}

}  // namespace

int main(int argc, char** argv) {
  const relax::util::CommandLine cli(argc, argv);
  if (cli.has("help")) {
    print_usage();
    return 0;
  }
  const auto n = static_cast<std::uint32_t>(cli.get_int("n", 2000000));
  const auto m = static_cast<std::uint64_t>(cli.get_int("m", 20000000));
  const int trials = static_cast<int>(cli.get_int("trials", 3));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  std::vector<std::int64_t> default_threads{1, 2, 4, 8, 16};
  const auto hw = static_cast<std::int64_t>(relax::util::hardware_threads());
  if (default_threads.back() < hw) default_threads.push_back(hw);
  const auto thread_counts = cli.get_int_list("threads", default_threads);

  const auto g = relax::graph::gnm(n, m, seed);
  const auto weights = relax::algorithms::synthetic_edge_weights(g, seed + 1);
  constexpr relax::graph::Vertex kSource = 0;

  double dijkstra_time = 1e300;
  std::vector<std::uint32_t> reference;
  for (int t = 0; t < trials; ++t) {
    relax::util::Timer timer;
    reference = relax::algorithms::dijkstra(g, weights, kSource);
    dijkstra_time = std::min(dijkstra_time, timer.seconds());
  }
  std::printf("# SSSP motivation (paper §1): G(n=%u, m=%llu), source=%u\n",
              n, static_cast<unsigned long long>(g.num_edges()), kSource);
  std::printf("# sequential Dijkstra: %.4f s\n", dijkstra_time);

  std::printf("\n## (a) relaxed concurrent SSSP vs threads (queue factor 4)\n");
  std::printf("%8s %10s %9s %12s %12s\n", "threads", "seconds", "speedup",
              "stale_pops", "stale_frac");
  for (const auto tc : thread_counts) {
    double best = 1e300;
    relax::algorithms::SsspStats best_stats;
    for (int t = 0; t < trials; ++t) {
      relax::algorithms::SsspOptions opts;
      opts.num_threads = static_cast<unsigned>(tc);
      opts.seed = seed + t;
      relax::algorithms::SsspStats stats;
      const auto dist = relax::algorithms::parallel_relaxed_sssp(
          g, weights, kSource, opts, &stats);
      if (dist != reference) {
        std::fprintf(stderr, "ERROR: SSSP distances mismatch!\n");
        return 1;
      }
      if (stats.seconds < best) {
        best = stats.seconds;
        best_stats = stats;
      }
    }
    std::printf("%8lld %10.4f %8.1fx %12llu %11.4f%%\n",
                static_cast<long long>(tc), best, dijkstra_time / best,
                static_cast<unsigned long long>(best_stats.stale_pops),
                100.0 * static_cast<double>(best_stats.stale_pops) /
                    static_cast<double>(best_stats.pops));
    std::fflush(stdout);
  }

  std::printf("\n## (b) wasted work vs relaxation (max threads)\n");
  std::printf("%8s %10s %12s %11s\n", "factor", "seconds", "stale_pops",
              "stale_frac");
  for (const unsigned factor : {1u, 2u, 4u, 8u, 16u}) {
    relax::algorithms::SsspOptions opts;
    opts.num_threads = static_cast<unsigned>(hw);
    opts.queue_factor = factor;
    opts.seed = seed;
    relax::algorithms::SsspStats stats;
    const auto dist = relax::algorithms::parallel_relaxed_sssp(
        g, weights, kSource, opts, &stats);
    if (dist != reference) {
      std::fprintf(stderr, "ERROR: SSSP distances mismatch!\n");
      return 1;
    }
    std::printf("%8u %10.4f %12llu %10.4f%%\n", factor, stats.seconds,
                static_cast<unsigned long long>(stats.stale_pops),
                100.0 * static_cast<double>(stats.stale_pops) /
                    static_cast<double>(stats.pops));
    std::fflush(stdout);
  }
  return 0;
}
