#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace relax::graph {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, VerticesWithoutEdges) {
  const Graph g = Graph::from_edges(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, TriangleBasics) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 0}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_arcs(), 6u);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(Graph, DuplicateEdgesRemoved) {
  const std::vector<Edge> edges{{0, 1}, {1, 0}, {0, 1}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Graph, SelfLoopsDropped) {
  const std::vector<Edge> edges{{0, 0}, {1, 1}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, NeighborsSortedAscending) {
  const std::vector<Edge> edges{{2, 0}, {2, 3}, {2, 1}, {2, 4}};
  const Graph g = Graph::from_edges(5, edges);
  const auto nb = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 4u);
}

TEST(Graph, EdgeListRoundTrip) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {3, 4}, {0, 4}};
  const Graph g = Graph::from_edges(5, edges);
  auto listed = g.edge_list();
  EXPECT_EQ(listed.size(), 4u);
  for (const auto& [u, v] : listed) {
    EXPECT_LT(u, v);  // canonical orientation
    EXPECT_TRUE(g.has_edge(u, v));
  }
  const Graph g2 = Graph::from_edges(5, listed);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(g2.degree(v), g.degree(v));
}

TEST(Graph, HasEdgeNegativeCases) {
  const Graph g = Graph::from_edges(4, std::vector<Edge>{{0, 1}, {2, 3}});
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 3));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Graph, MaxDegree) {
  const Graph g =
      Graph::from_edges(5, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(Graph, ArcTargetsMatchNeighbors) {
  const Graph g =
      Graph::from_edges(4, std::vector<Edge>{{0, 1}, {0, 2}, {1, 3}});
  for (Vertex v = 0; v < 4; ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t j = 0; j < nb.size(); ++j)
      EXPECT_EQ(g.arc_target(g.arc_offset(v) + j), nb[j]);
  }
}

/// gnm-shaped edge list on n vertices with `m` uniform pairs (self-loops
/// allowed), then every 7th edge repeated reversed and every 11th vertex
/// given a self-loop, so the dedup and self-loop paths both run.
std::vector<Edge> noisy_edges(Vertex n, std::uint64_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Edge> edges;
  for (std::uint64_t i = 0; i < m; ++i)
    edges.emplace_back(static_cast<Vertex>(util::bounded(rng, n)),
                       static_cast<Vertex>(util::bounded(rng, n)));
  for (std::uint64_t i = 0; i < m; i += 7)
    edges.emplace_back(edges[i].second, edges[i].first);
  for (Vertex v = 0; v < n; v += 11) edges.emplace_back(v, v);
  return edges;
}

TEST(Graph, ParallelConstructionMatchesSequential) {
  // Every input is above parallel_chunks' 4096-element serial cutoff, and
  // none is a multiple of the 64-edge scatter block, so the last block of
  // every worker's chunk is partial.
  std::vector<std::pair<Vertex, std::vector<Edge>>> inputs;
  std::vector<Edge> band;
  for (Vertex u = 0; u < 500; ++u)
    for (Vertex v = u + 1; v < u + 20 && v < 500; ++v)
      band.emplace_back(u, v);
  inputs.emplace_back(500, band);
  inputs.emplace_back(3000, noisy_edges(3000, 20011, 1));
  inputs.emplace_back(500, noisy_edges(500, 9001, 2));
  inputs.emplace_back(40000, noisy_edges(40000, 70003, 3));

  for (const auto& [n, edges] : inputs) {
    ASSERT_GT(edges.size(), 4096u);
    ASSERT_NE(edges.size() % 64, 0u);
    const Graph ref = Graph::from_edges(n, edges, 1);

    // The threads=1 CSR itself: each list sorted, deduplicated, loop-free,
    // and exactly the arcs the edge list names.
    std::vector<std::vector<Vertex>> expect(n);
    for (const auto& [u, v] : edges) {
      if (u == v) continue;
      expect[u].push_back(v);
      expect[v].push_back(u);
    }
    for (Vertex v = 0; v < n; ++v) {
      std::sort(expect[v].begin(), expect[v].end());
      expect[v].erase(std::unique(expect[v].begin(), expect[v].end()),
                      expect[v].end());
      const auto nb = ref.neighbors(v);
      ASSERT_TRUE(std::equal(nb.begin(), nb.end(), expect[v].begin(),
                             expect[v].end()))
          << "n " << n << " vertex " << v;
    }

    // Every thread count gives the same offsets and arc array, bit for bit.
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      const Graph g = Graph::from_edges(n, edges, threads);
      ASSERT_EQ(g.num_vertices(), ref.num_vertices());
      ASSERT_EQ(g.num_arcs(), ref.num_arcs()) << "threads " << threads;
      for (Vertex v = 0; v <= n; ++v)
        ASSERT_EQ(g.arc_offset(v), ref.arc_offset(v))
            << "n " << n << " threads " << threads << " vertex " << v;
      for (EdgeId a = 0; a < ref.num_arcs(); ++a)
        ASSERT_EQ(g.arc_target(a), ref.arc_target(a))
            << "n " << n << " threads " << threads << " arc " << a;
    }
  }
}

TEST(LineGraph, PathBecomesPath) {
  // Path 0-1-2-3 has edges e0={0,1}, e1={1,2}, e2={2,3}; L(G) is the path
  // e0-e1-e2.
  const Graph g =
      Graph::from_edges(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  std::vector<Edge> index;
  const Graph lg = line_graph(g, &index);
  EXPECT_EQ(lg.num_vertices(), 3u);
  EXPECT_EQ(lg.num_edges(), 2u);
  ASSERT_EQ(index.size(), 3u);
}

TEST(LineGraph, TriangleBecomesTriangle) {
  const Graph g =
      Graph::from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}});
  const Graph lg = line_graph(g);
  EXPECT_EQ(lg.num_vertices(), 3u);
  EXPECT_EQ(lg.num_edges(), 3u);
}

TEST(LineGraph, StarBecomesClique) {
  // K_{1,4}: all 4 edges share the hub, so L(G) = K_4.
  const Graph g = Graph::from_edges(
      5, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const Graph lg = line_graph(g);
  EXPECT_EQ(lg.num_vertices(), 4u);
  EXPECT_EQ(lg.num_edges(), 6u);
}

TEST(LineGraph, AdjacencyMeansSharedEndpoint) {
  const Graph g = Graph::from_edges(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {2, 3}});
  std::vector<Edge> index;
  const Graph lg = line_graph(g, &index);
  for (Vertex e = 0; e < lg.num_vertices(); ++e) {
    for (const Vertex f : lg.neighbors(e)) {
      const auto [a, b] = index[e];
      const auto [c, d] = index[f];
      EXPECT_TRUE(a == c || a == d || b == c || b == d);
    }
  }
}

}  // namespace
}  // namespace relax::graph
