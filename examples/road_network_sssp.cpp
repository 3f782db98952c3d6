// Scenario: shortest travel times on a road network.
//
// Road networks are near-planar grids. This example runs the classic
// *non-deterministic* use of relaxed schedulers — parallel Dijkstra /
// label-correcting SSSP (the paper's §1 motivating example) — on a grid
// "city" with synthetic congestion weights, and quantifies the relaxation
// trade-off: wasted (stale) pops versus parallel speedup, with exactness
// of the distances verified against sequential Dijkstra.
//
// Usage: road_network_sssp [--side=1200] [--threads=0]
//                          [--pop-batch=<k>|auto[:max]]
#include <cstdio>

#include "algorithms/sssp.h"
#include "engine/flags.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/thread_pin.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  const relax::util::CommandLine cli(argc, argv);
  const auto side = static_cast<std::uint32_t>(cli.get_int("side", 1200));
  const auto threads = static_cast<unsigned>(cli.get_int("threads", 0));
  const auto pb =
      relax::engine::flags::parse_pop_batch(cli.get_string("pop-batch", "1"));
  if (!pb) return 2;

  std::printf("building a %ux%u road grid...\n", side, side);
  const auto g = relax::graph::grid(side, side);
  const auto weights = relax::algorithms::synthetic_edge_weights(g, 11, 60);
  const relax::graph::Vertex depot = 0;

  relax::util::Timer timer;
  const auto reference = relax::algorithms::dijkstra(g, weights, depot);
  const double seq_time = timer.seconds();
  std::printf("sequential Dijkstra:  %.3fs\n", seq_time);

  relax::algorithms::SsspOptions opts;
  opts.num_threads = threads;
  opts.seed = 3;
  opts.pop_batch = pb->batch;
  opts.pop_batch_auto = pb->adaptive;
  relax::algorithms::SsspStats stats;
  const auto dist = relax::algorithms::parallel_relaxed_sssp(
      g, weights, depot, opts, &stats);
  std::printf("relaxed parallel SSSP: %.3fs (%.1fx)\n", stats.seconds,
              seq_time / stats.seconds);
  std::printf("  pops: %llu, stale (wasted): %llu (%.2f%%), relaxations: "
              "%llu\n",
              static_cast<unsigned long long>(stats.pops),
              static_cast<unsigned long long>(stats.stale_pops),
              100.0 * static_cast<double>(stats.stale_pops) /
                  static_cast<double>(stats.pops),
              static_cast<unsigned long long>(stats.relaxations));
  std::printf("distances exact: %s\n",
              dist == reference ? "yes" : "NO (bug!)");

  // A couple of sample routes for flavour.
  const relax::graph::Vertex corners[] = {side - 1, side * (side - 1),
                                          side * side - 1};
  for (const auto c : corners)
    std::printf("  travel time depot -> node %u: %u\n", c, dist[c]);
  return 0;
}
