// Immutable undirected graph in compressed-sparse-row (CSR) form.
//
// This is the substrate for every experiment in the paper: the dependency
// graphs consumed by the relaxed scheduling framework are either the input
// graph itself (MIS, coloring), its line graph (matching), or an implicit
// structure exposed through the same interface (list contraction, shuffle).
//
// Representation choices:
//   * vertices are dense uint32 ids (the paper's graphs fit comfortably);
//   * edge offsets are uint64 (dense graphs exceed 2^32 directed edges);
//   * adjacency lists are sorted ascending and deduplicated, self-loops are
//     dropped at construction — greedy MIS/coloring/matching semantics
//     assume a simple graph.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace relax::graph {

using Vertex = std::uint32_t;
using EdgeId = std::uint64_t;
using Edge = std::pair<Vertex, Vertex>;

class Graph {
 public:
  Graph() = default;

  /// Builds a CSR graph from an undirected edge list. Each {u,v} pair is
  /// inserted in both directions; duplicates and self-loops are removed.
  /// Construction is parallelized over `threads` workers (0 = hardware).
  /// The arc scatter reserves a block of slots before storing any of them,
  /// so random stores into the arc array overlap instead of serializing on
  /// each atomic; the result is identical for every thread count.
  static Graph from_edges(Vertex n, std::span<const Edge> edges,
                          unsigned threads = 0);

  [[nodiscard]] Vertex num_vertices() const noexcept { return n_; }

  /// Number of undirected edges (after dedup).
  [[nodiscard]] EdgeId num_edges() const noexcept { return adj_.size() / 2; }

  /// Number of directed arcs (= 2 * num_edges()).
  [[nodiscard]] EdgeId num_arcs() const noexcept { return adj_.size(); }

  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const noexcept {
    return {adj_.data() + offsets_[v],
            adj_.data() + offsets_[v + 1]};
  }

  [[nodiscard]] std::uint32_t degree(Vertex v) const noexcept {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  [[nodiscard]] std::uint32_t max_degree() const noexcept;

  /// True if {u,v} is an edge (binary search; O(log deg(u))).
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const noexcept;

  /// All undirected edges as (min,max) pairs, ordered by (u,v).
  /// Materializes a new vector; intended for tests and line-graph builds.
  [[nodiscard]] std::vector<Edge> edge_list() const;

  /// Offset of v's adjacency block; `arc` ids in [offsets(v), offsets(v+1))
  /// index into the directed arc array. Used by the matching adapter to map
  /// arcs back to edge tasks.
  [[nodiscard]] EdgeId arc_offset(Vertex v) const noexcept {
    return offsets_[v];
  }
  [[nodiscard]] Vertex arc_target(EdgeId arc) const noexcept {
    return adj_[arc];
  }

 private:
  Vertex n_ = 0;
  std::vector<EdgeId> offsets_;  // size n_+1
  std::vector<Vertex> adj_;      // size = num_arcs
};

/// Builds the line graph L(G): one vertex per undirected edge of G, with an
/// edge between two L(G)-vertices iff the corresponding G-edges share an
/// endpoint. Greedy matching on G == greedy MIS on L(G) (paper §2.4).
/// `edge_index` receives the G edge corresponding to each L(G) vertex.
Graph line_graph(const Graph& g, std::vector<Edge>* edge_index = nullptr);

}  // namespace relax::graph
