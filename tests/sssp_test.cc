#include "algorithms/sssp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "graph/generators.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace relax::algorithms {
namespace {

using graph::Graph;

/// Fixed-batch options on the default 4 sub-queues per thread.
SsspOptions fixed(unsigned threads, std::uint64_t seed,
                  std::uint32_t pop_batch = 1) {
  SsspOptions opts;
  opts.num_threads = threads;
  opts.seed = seed;
  opts.pop_batch = pop_batch;
  return opts;
}

TEST(SyntheticWeights, SymmetricAndInRange) {
  const Graph g = graph::gnm_exact(100, 400, 3);
  const auto w = synthetic_edge_weights(g, 7, 50);
  ASSERT_EQ(w.size(), g.num_arcs());
  for (graph::Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nb = g.neighbors(u);
    for (std::size_t j = 0; j < nb.size(); ++j) {
      const auto weight = w[g.arc_offset(u) + j];
      EXPECT_GE(weight, 1u);
      EXPECT_LE(weight, 50u);
      // Find the reverse arc and compare.
      const graph::Vertex v = nb[j];
      const auto back = g.neighbors(v);
      for (std::size_t i = 0; i < back.size(); ++i) {
        if (back[i] == u) {
          EXPECT_EQ(w[g.arc_offset(v) + i], weight);
        }
      }
    }
  }
}

TEST(SyntheticWeights, ParallelPassEqualsSerialPerArcHash) {
  // Enough vertices for the weight pass to split across workers.
  const Graph g = graph::gnm(30000, 120000, 5);
  ASSERT_GT(g.num_vertices(), 4096u);
  constexpr std::uint64_t kSeed = 9;
  constexpr std::uint32_t kMaxW = 1000;
  const auto w = synthetic_edge_weights(g, kSeed, kMaxW);
  ASSERT_EQ(w.size(), g.num_arcs());
  for (graph::Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nb = g.neighbors(u);
    for (std::size_t j = 0; j < nb.size(); ++j) {
      const graph::Vertex v = nb[j];
      const std::uint64_t a = std::min(u, v), b = std::max(u, v);
      util::SplitMix64 h(kSeed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                         (b * 0xc2b2ae3d27d4eb4fULL));
      const auto expect = static_cast<std::uint32_t>(h() % kMaxW) + 1;
      ASSERT_EQ(w[g.arc_offset(u) + j], expect) << u << "->" << v;
      const auto back = g.neighbors(v);
      const auto i = std::lower_bound(back.begin(), back.end(), u) -
                     back.begin();
      ASSERT_EQ(w[g.arc_offset(v) + i], expect) << v << "->" << u;
    }
  }
}

TEST(Dijkstra, HandComputedPath) {
  // 0 -1- 1 -1- 2 and a direct heavy edge 0-2.
  const Graph g =
      Graph::from_edges(3, std::vector<graph::Edge>{{0, 1}, {1, 2}, {0, 2}});
  // Weights are synthesized; instead build explicit weights by matching the
  // CSR layout: we assign via a lambda over sorted adjacency.
  std::vector<std::uint32_t> w(g.num_arcs());
  auto set_w = [&](graph::Vertex a, graph::Vertex b, std::uint32_t weight) {
    const auto nb = g.neighbors(a);
    for (std::size_t j = 0; j < nb.size(); ++j)
      if (nb[j] == b) w[g.arc_offset(a) + j] = weight;
  };
  set_w(0, 1, 1);
  set_w(1, 0, 1);
  set_w(1, 2, 1);
  set_w(2, 1, 1);
  set_w(0, 2, 10);
  set_w(2, 0, 10);
  const auto dist = dijkstra(g, w, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);  // via 1, not the heavy direct edge
}

TEST(Dijkstra, UnreachableVertices) {
  const Graph g =
      Graph::from_edges(4, std::vector<graph::Edge>{{0, 1}, {2, 3}});
  const auto w = synthetic_edge_weights(g, 1, 10);
  const auto dist = dijkstra(g, w, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_NE(dist[1], kUnreachable);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(ParallelRelaxedSssp, MatchesDijkstraOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = graph::gnm(2000, 10000, seed);
    const auto w = synthetic_edge_weights(g, seed + 1, 100);
    const auto expected = dijkstra(g, w, 0);
    SsspStats stats;
    const auto dist =
        parallel_relaxed_sssp(g, w, 0, fixed(4, seed + 2, /*pop_batch=*/1),
                              &stats);
    EXPECT_EQ(dist, expected) << "seed=" << seed;
    EXPECT_GE(stats.pops, stats.relaxations);
  }
}

TEST(ParallelRelaxedSssp, BatchedPopsAndReinsertsStayExact) {
  // The batched path claims up to k keys per scheduler touch and flushes
  // relaxations back as one bulk_insert run; distances must stay exact and
  // every popped key must be accounted (pops sum across batches).
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Graph g = graph::gnm(2000, 10000, seed + 40);
    const auto w = synthetic_edge_weights(g, seed + 41, 100);
    const auto expected = dijkstra(g, w, 0);
    SsspStats stats;
    const auto dist =
        parallel_relaxed_sssp(g, w, 0, fixed(4, seed + 42, /*pop_batch=*/8),
                              &stats);
    EXPECT_EQ(dist, expected) << "seed=" << seed;
    EXPECT_GE(stats.pops, stats.relaxations);
    // Batching really happened: strictly fewer acquisition round trips
    // than pops (a mean batch > 1), and never more round trips than pops.
    EXPECT_GT(stats.batches, 0u);
    EXPECT_LT(stats.batches, stats.pops);
    // Fixed mode asks for exactly pop_batch every touch.
    EXPECT_EQ(stats.min_claim, 8u);
    EXPECT_EQ(stats.max_claim, 8u);
  }
}

TEST(ParallelRelaxedSssp, AdaptiveBatchingReportsVaryingClaims) {
  // --pop-batch=auto end to end: the standalone executor runs the same
  // occupancy-aware BatchController as the engine jobs, so the requested
  // claim size must actually float — every worker starts at 1 and ramps
  // under load — instead of silently degrading to a fixed cap (the PR 4
  // behaviour this guards against).
  const Graph g = graph::gnm(4000, 24000, 51);
  const auto w = synthetic_edge_weights(g, 52, 100);
  const auto expected = dijkstra(g, w, 0);
  SsspOptions opts;
  opts.num_threads = 4;
  opts.queue_factor = 4;
  opts.seed = 53;
  opts.pop_batch = 32;  // the adaptive cap
  opts.pop_batch_auto = true;
  SsspStats stats;
  EXPECT_EQ(parallel_relaxed_sssp(g, w, 0, opts, &stats), expected);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.min_claim, 1u);   // everyone starts at a single pop
  EXPECT_GT(stats.max_claim, 1u);   // and the ramp engaged under load
  EXPECT_LE(stats.max_claim, 32u);  // never beyond the cap
}

TEST(ParallelRelaxedSssp, AdaptiveSingleThreadMatchesDijkstra) {
  const Graph g = graph::gnm(1500, 9000, 55);
  const auto w = synthetic_edge_weights(g, 56, 50);
  SsspOptions opts;
  opts.num_threads = 1;
  opts.seed = 57;
  opts.pop_batch = 16;
  opts.pop_batch_auto = true;
  EXPECT_EQ(parallel_relaxed_sssp(g, w, 0, opts), dijkstra(g, w, 0));
}

TEST(ParallelRelaxedSssp, BatchedSingleThreadMatchesDijkstra) {
  const Graph g = graph::gnm(1500, 9000, 33);
  const auto w = synthetic_edge_weights(g, 34, 50);
  EXPECT_EQ(parallel_relaxed_sssp(g, w, 0, fixed(1, 35, /*pop_batch=*/16)),
            dijkstra(g, w, 0));
}

TEST(ParallelRelaxedSssp, SingleThreadCorrect) {
  const Graph g = graph::gnm(500, 3000, 9);
  const auto w = synthetic_edge_weights(g, 11, 20);
  EXPECT_EQ(parallel_relaxed_sssp(g, w, 0, fixed(1, 13)), dijkstra(g, w, 0));
}

TEST(ParallelRelaxedSssp, ManyThreadsCorrect) {
  const Graph g = graph::gnm(3000, 30000, 15);
  const auto w = synthetic_edge_weights(g, 17, 1000);
  EXPECT_EQ(parallel_relaxed_sssp(g, w, 0, fixed(8, 19)), dijkstra(g, w, 0));
}

TEST(ParallelRelaxedSssp, DifferentSourcesAgree) {
  const Graph g = graph::gnm(1000, 8000, 21);
  const auto w = synthetic_edge_weights(g, 23, 100);
  for (const graph::Vertex src : {0u, 500u, 999u}) {
    EXPECT_EQ(parallel_relaxed_sssp(g, w, src, fixed(4, 25)),
              dijkstra(g, w, src));
  }
}

TEST(ParallelRelaxedSssp, PathGraphWorstCaseForRelaxation) {
  // A long path forces essentially sequential propagation; correctness must
  // hold even when the relaxed queue serves vertices far out of order.
  const Graph g = graph::path(5000);
  const auto w = synthetic_edge_weights(g, 27, 10);
  EXPECT_EQ(parallel_relaxed_sssp(g, w, 0, fixed(8, 29)), dijkstra(g, w, 0));
}

TEST(SsspSource, OutOfRangeSourceThrows) {
  // An edge list whose header reads "0 0" loads as an empty graph; both
  // solvers must reject any source instead of writing past `dist`.
  const Graph empty = Graph::from_edges(0, std::vector<graph::Edge>{});
  const std::vector<std::uint32_t> no_weights;
  EXPECT_THROW(dijkstra(empty, no_weights, 0), std::invalid_argument);
  EXPECT_THROW(parallel_relaxed_sssp(empty, no_weights, 0, fixed(2, 1)),
               std::invalid_argument);
  const Graph g = graph::gnm(50, 200, 61);
  const auto w = synthetic_edge_weights(g, 62, 10);
  EXPECT_THROW(dijkstra(g, w, 50), std::invalid_argument);
  EXPECT_THROW(parallel_relaxed_sssp(g, w, 50, fixed(2, 63)),
               std::invalid_argument);
}

TEST(ParallelRelaxedSssp, ReportsEngineTelemetry) {
  // SSSP runs as an engine job, so an attached registry sees its claims,
  // and the registry's pops are exactly the pops SsspStats reports.
  const Graph g = graph::gnm(3000, 15000, 71);
  const auto w = synthetic_edge_weights(g, 72, 100);
  obs::MetricsRegistry registry;
  SsspOptions opts = fixed(4, 73);
  opts.pop_batch = 16;
  opts.pop_batch_auto = true;
  opts.metrics = &registry;
  SsspStats stats;
  EXPECT_EQ(parallel_relaxed_sssp(g, w, 0, opts, &stats), dijkstra(g, w, 0));
  std::uint64_t pops = 0;
  std::uint64_t claims = 0;
  for (const auto& worker : registry.snapshot().workers) {
    pops += worker.pops;
    claims += worker.claims;
  }
  EXPECT_EQ(pops, stats.pops);
  EXPECT_GT(claims, 0u);
}

}  // namespace
}  // namespace relax::algorithms
