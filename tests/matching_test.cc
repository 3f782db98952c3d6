#include "algorithms/matching.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "algorithms/mis.h"
#include "core/sequential_executor.h"
#include "graph/generators.h"
#include "sched/exact_heap.h"
#include "sched/topk_uniform.h"

namespace relax::algorithms {
namespace {

using graph::Graph;

TEST(EdgeIncidence, IndexesBothEndpoints) {
  const Graph g = graph::path(4);  // edges (0,1),(1,2),(2,3)
  const EdgeIncidence inc(g);
  EXPECT_EQ(inc.num_edges(), 3u);
  EXPECT_EQ(inc.incident(0).size(), 1u);
  EXPECT_EQ(inc.incident(1).size(), 2u);
  EXPECT_EQ(inc.incident(2).size(), 2u);
  EXPECT_EQ(inc.incident(3).size(), 1u);
}

TEST(EdgeIncidence, IncidentListsAlignWithNeighbors) {
  // incident(v)[k] is the edge joining v and g.neighbors(v)[k], so the
  // other endpoint of an incident edge can be read from the adjacency.
  const Graph g = graph::gnm(3000, 15000, 21);
  const EdgeIncidence inc(g);
  ASSERT_EQ(inc.num_edges(), g.num_edges());
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    const auto ids = inc.incident(v);
    ASSERT_EQ(ids.size(), nb.size()) << "vertex " << v;
    for (std::size_t k = 0; k < nb.size(); ++k) {
      const auto [a, b] = inc.edges()[ids[k]];
      EXPECT_EQ(a, std::min(v, nb[k])) << "vertex " << v << " slot " << k;
      EXPECT_EQ(b, std::max(v, nb[k])) << "vertex " << v << " slot " << k;
    }
  }
}

TEST(SequentialMatching, PathGreedy) {
  const Graph g = graph::path(4);
  const EdgeIncidence inc(g);
  // Identity edge order: edge 0 = (0,1) matched, edge 1 = (1,2) blocked,
  // edge 2 = (2,3) matched.
  const auto pri = graph::identity_priorities(3);
  const auto matched = sequential_greedy_matching(inc, pri);
  EXPECT_EQ(matched, (std::vector<std::uint8_t>{1, 0, 1}));
  EXPECT_TRUE(verify_matching(inc, matched));
}

TEST(SequentialMatching, MiddleEdgeFirstBlocksBoth) {
  const Graph g = graph::path(4);
  const EdgeIncidence inc(g);
  const std::vector<std::uint32_t> order{1, 0, 2};  // middle edge first
  const auto pri = graph::priorities_from_order(order);
  const auto matched = sequential_greedy_matching(inc, pri);
  EXPECT_EQ(matched, (std::vector<std::uint8_t>{0, 1, 0}));
}

TEST(SequentialMatching, ValidOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = graph::gnm(200, 800, seed);
    const EdgeIncidence inc(g);
    const auto pri = graph::random_priorities(inc.num_edges(), seed + 7);
    EXPECT_TRUE(verify_matching(inc, sequential_greedy_matching(inc, pri)));
  }
}

TEST(VerifyMatching, RejectsSharedVertex) {
  const Graph g = graph::path(3);  // edges (0,1),(1,2)
  const EdgeIncidence inc(g);
  EXPECT_FALSE(verify_matching(inc, std::vector<std::uint8_t>{1, 1}));
}

TEST(VerifyMatching, RejectsNonMaximal) {
  const Graph g = graph::path(2);
  const EdgeIncidence inc(g);
  EXPECT_FALSE(verify_matching(inc, std::vector<std::uint8_t>{0}));
}

TEST(MatchingProblem, ExactMatchesBaseline) {
  const Graph g = graph::gnm(300, 1200, 3);
  const EdgeIncidence inc(g);
  const auto pri = graph::random_priorities(inc.num_edges(), 11);
  MatchingProblem problem(inc, pri);
  sched::ExactHeapScheduler sched;
  const auto stats = core::run_sequential(problem, pri, sched);
  EXPECT_EQ(stats.failed_deletes, 0u);
  EXPECT_EQ(problem.result(), sequential_greedy_matching(inc, pri));
}

TEST(MatchingProblem, RelaxedIsDeterministic) {
  const Graph g = graph::gnm(250, 1000, 5);
  const EdgeIncidence inc(g);
  const auto pri = graph::random_priorities(inc.num_edges(), 13);
  const auto expected = sequential_greedy_matching(inc, pri);
  for (const std::uint32_t k : {4u, 64u}) {
    MatchingProblem problem(inc, pri);
    sched::TopKUniformScheduler sched(inc.num_edges(), k, 17);
    core::run_sequential(problem, pri, sched);
    EXPECT_EQ(problem.result(), expected) << "k=" << k;
  }
}

TEST(MatchingProblem, AgreesWithLineGraphMisReduction) {
  // Greedy matching == greedy MIS on the line graph under the same task
  // permutation (paper §2.4). Cross-validate the implicit adapter.
  const Graph g = graph::gnm_exact(60, 150, 7);
  std::vector<graph::Edge> edge_index;
  const Graph lg = graph::line_graph(g, &edge_index);
  const EdgeIncidence inc(g);
  ASSERT_EQ(inc.num_edges(), lg.num_vertices());
  // line_graph's vertex ids come from g.edge_list(), same as EdgeIncidence.
  for (std::uint32_t e = 0; e < inc.num_edges(); ++e)
    ASSERT_EQ(inc.edges()[e], edge_index[e]);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto pri = graph::random_priorities(inc.num_edges(), seed + 19);
    const auto matched = sequential_greedy_matching(inc, pri);
    const auto mis = sequential_greedy_mis(lg, pri);
    EXPECT_EQ(matched, mis);
  }
}

TEST(AtomicMatchingProblem, SequentialUseMatchesBaseline) {
  const Graph g = graph::gnm(200, 900, 23);
  const EdgeIncidence inc(g);
  const auto pri = graph::random_priorities(inc.num_edges(), 29);
  AtomicMatchingProblem problem(inc, pri);
  sched::TopKUniformScheduler sched(inc.num_edges(), 16, 31);
  core::run_sequential(problem, pri, sched);
  EXPECT_EQ(problem.result(), sequential_greedy_matching(inc, pri));
}

TEST(MatchingProblem, TriangleMatchesOneEdge) {
  const Graph g = graph::cycle(3);
  const EdgeIncidence inc(g);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto pri = graph::random_priorities(3, seed);
    const auto matched = sequential_greedy_matching(inc, pri);
    int count = 0;
    for (const auto f : matched) count += f;
    EXPECT_EQ(count, 1);
    EXPECT_EQ(matched[pri.order[0]], 1);
  }
}

}  // namespace
}  // namespace relax::algorithms
