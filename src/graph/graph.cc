#include "graph/graph.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <numeric>

#include "util/parallel_for.h"

namespace relax::graph {

Graph Graph::from_edges(Vertex n, std::span<const Edge> edges,
                        unsigned threads) {
  Graph g;
  g.n_ = n;

  // Pass 1: directed degree counts (each undirected edge contributes two
  // arcs). Self-loops are skipped here and never enter the CSR.
  std::vector<std::atomic<EdgeId>> degree(n + 1);
  util::parallel_chunks(0, edges.size(), threads,
                        [&](std::uint64_t lo, std::uint64_t hi) {
                          for (std::uint64_t i = lo; i < hi; ++i) {
                            const auto [u, v] = edges[i];
                            assert(u < n && v < n);
                            if (u == v) continue;
                            degree[u].fetch_add(1, std::memory_order_relaxed);
                            degree[v].fetch_add(1, std::memory_order_relaxed);
                          }
                        });

  // Prefix sum -> provisional offsets (before dedup).
  std::vector<EdgeId> offsets(n + 1, 0);
  for (Vertex v = 0; v < n; ++v)
    offsets[v + 1] =
        offsets[v] + degree[v].load(std::memory_order_relaxed);

  // Pass 2: scatter arcs using atomic per-vertex cursors, a block of
  // kScatterBlock edges at a time. A locked RMW (x86 `lock xadd`) drains the
  // store buffer, so interleaving `adj[cursor.fetch_add()] = v` makes every
  // random store into `adj` — nearly always a cache miss — complete before
  // the next slot is reserved, and the misses run one at a time. Reserving
  // the whole block's slots first leaves only L1-hit stores (into `slot`)
  // pending at each RMW; the block's `adj` stores then go out back to back
  // and their misses overlap. Slot order within a list differs from the
  // one-at-a-time scatter, but pass 3 sorts every list, so the CSR does not.
  constexpr std::uint64_t kScatterBlock = 64;
  std::vector<std::atomic<EdgeId>> cursor(n);
  for (Vertex v = 0; v < n; ++v)
    cursor[v].store(offsets[v], std::memory_order_relaxed);
  std::vector<Vertex> adj(offsets[n]);
  util::parallel_chunks(
      0, edges.size(), threads, [&](std::uint64_t lo, std::uint64_t hi) {
        EdgeId slot[2 * kScatterBlock] = {};
        for (std::uint64_t b = lo; b < hi; b += kScatterBlock) {
          const std::uint64_t e = std::min(hi, b + kScatterBlock);
          std::size_t k = 0;
          for (std::uint64_t i = b; i < e; ++i) {
            const auto [u, v] = edges[i];
            if (u == v) continue;
            slot[k++] = cursor[u].fetch_add(1, std::memory_order_relaxed);
            slot[k++] = cursor[v].fetch_add(1, std::memory_order_relaxed);
          }
          k = 0;
          for (std::uint64_t i = b; i < e; ++i) {
            const auto [u, v] = edges[i];
            if (u == v) continue;
            adj[slot[k++]] = v;
            adj[slot[k++]] = u;
          }
        }
      });

  // Pass 3: sort + dedup each adjacency list in place, recording new sizes.
  std::vector<EdgeId> unique_degree(n, 0);
  util::parallel_for(0, n, threads, [&](std::uint64_t v) {
    auto* first = adj.data() + offsets[v];
    auto* last = adj.data() + offsets[v + 1];
    std::sort(first, last);
    unique_degree[v] = static_cast<EdgeId>(std::unique(first, last) - first);
  });

  // Pass 4: compact into the final arrays.
  g.offsets_.assign(n + 1, 0);
  for (Vertex v = 0; v < n; ++v)
    g.offsets_[v + 1] = g.offsets_[v] + unique_degree[v];
  g.adj_.resize(g.offsets_[n]);
  util::parallel_for(0, n, threads, [&](std::uint64_t v) {
    std::copy_n(adj.data() + offsets[v], unique_degree[v],
                g.adj_.data() + g.offsets_[v]);
  });
  return g;
}

std::uint32_t Graph::max_degree() const noexcept {
  std::uint32_t d = 0;
  for (Vertex v = 0; v < n_; ++v) d = std::max(d, degree(v));
  return d;
}

bool Graph::has_edge(Vertex u, Vertex v) const noexcept {
  if (u >= n_) return false;
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edge_list() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (Vertex u = 0; u < n_; ++u)
    for (Vertex v : neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  return edges;
}

Graph line_graph(const Graph& g, std::vector<Edge>* edge_index) {
  const std::vector<Edge> edges = g.edge_list();
  const auto m = static_cast<Vertex>(edges.size());

  // Map each G-edge to its line-graph vertex id; bucket edges by endpoint.
  std::vector<std::vector<Vertex>> incident(g.num_vertices());
  for (Vertex e = 0; e < m; ++e) {
    incident[edges[e].first].push_back(e);
    incident[edges[e].second].push_back(e);
  }

  std::vector<Edge> lg_edges;
  for (const auto& bucket : incident) {
    for (std::size_t i = 0; i < bucket.size(); ++i)
      for (std::size_t j = i + 1; j < bucket.size(); ++j)
        lg_edges.emplace_back(bucket[i], bucket[j]);
  }
  if (edge_index != nullptr) *edge_index = edges;
  return Graph::from_edges(m, lg_edges);
}

}  // namespace relax::graph
