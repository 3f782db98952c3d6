#include "algorithms/sssp.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/dary_heap.h"
#include "util/parallel_for.h"
#include "util/rng.h"

namespace relax::algorithms {
namespace {

void check_source(const graph::Graph& g, graph::Vertex source) {
  if (source >= g.num_vertices()) {
    throw std::invalid_argument(
        "sssp: source vertex " + std::to_string(source) +
        " is out of range for a graph of " +
        std::to_string(g.num_vertices()) + " vertices");
  }
}

/// Label-correcting SSSP as an engine key policy (engine/job.h). A key
/// packs (distance << 32) | vertex and the job starts from the source's
/// key. A popped key whose distance is above its vertex's current label is
/// stale (a dead skip); otherwise it is processed, and every edge whose
/// target label it lowers (by CAS) yields that target's new key.
struct SsspKeys {
  using Key = std::uint64_t;

  [[nodiscard]] std::uint32_t initial_keys() const { return 1; }
  [[nodiscard]] Key initial_key(std::uint32_t /*i*/) const { return source; }

  void step(Key key, std::vector<Key>& out,
            core::ExecutionStats& stats) const {
    const auto d = static_cast<std::uint32_t>(key >> 32);
    const auto v = static_cast<graph::Vertex>(key & 0xffffffffu);
    if (d > dist[v].load(std::memory_order_acquire)) {
      ++stats.dead_skips;
      return;
    }
    ++stats.processed;
    const auto offset = g->arc_offset(v);
    const auto nb = g->neighbors(v);
    for (std::size_t j = 0; j < nb.size(); ++j) {
      const graph::Vertex u = nb[j];
      const std::uint32_t nd = d + weights[offset + j];
      std::uint32_t cur = dist[u].load(std::memory_order_relaxed);
      while (nd < cur) {
        if (dist[u].compare_exchange_weak(cur, nd,
                                          std::memory_order_acq_rel)) {
          out.push_back((static_cast<Key>(nd) << 32) | u);
          break;
        }
      }
    }
  }

  const graph::Graph* g;
  const std::uint32_t* weights;
  std::atomic<std::uint32_t>* dist;
  graph::Vertex source;
};

}  // namespace

std::vector<std::uint32_t> synthetic_edge_weights(const graph::Graph& g,
                                                  std::uint64_t seed,
                                                  std::uint32_t max_w) {
  std::vector<std::uint32_t> weights(g.num_arcs());
  // Each arc's weight depends only on its endpoints, so vertices split
  // across workers (0 = hardware threads, as in Graph::from_edges) give the
  // same array as a serial pass.
  util::parallel_for(0, g.num_vertices(), 0, [&](std::uint64_t i) {
    const auto u = static_cast<graph::Vertex>(i);
    const auto offset = g.arc_offset(u);
    const auto nb = g.neighbors(u);
    for (std::size_t j = 0; j < nb.size(); ++j) {
      const graph::Vertex v = nb[j];
      const std::uint64_t a = std::min(u, v), b = std::max(u, v);
      // Symmetric per-edge hash -> both arc directions agree.
      util::SplitMix64 h(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                         (b * 0xc2b2ae3d27d4eb4fULL));
      weights[offset + j] = static_cast<std::uint32_t>(h() % max_w) + 1;
    }
  });
  return weights;
}

std::vector<std::uint32_t> dijkstra(const graph::Graph& g,
                                    const std::vector<std::uint32_t>& weights,
                                    graph::Vertex source) {
  check_source(g, source);
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  sched::DaryHeap<std::uint64_t> heap;  // (dist << 32) | vertex
  dist[source] = 0;
  heap.push(static_cast<std::uint64_t>(source));
  while (!heap.empty()) {
    const std::uint64_t key = heap.pop();
    const auto d = static_cast<std::uint32_t>(key >> 32);
    const auto v = static_cast<graph::Vertex>(key & 0xffffffffu);
    if (d > dist[v]) continue;  // stale entry (lazy deletion)
    const auto offset = g.arc_offset(v);
    const auto nb = g.neighbors(v);
    for (std::size_t j = 0; j < nb.size(); ++j) {
      const graph::Vertex u = nb[j];
      const std::uint32_t nd = d + weights[offset + j];
      if (nd < dist[u]) {
        dist[u] = nd;
        heap.push((static_cast<std::uint64_t>(nd) << 32) | u);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> parallel_relaxed_sssp(
    const graph::Graph& g, const std::vector<std::uint32_t>& weights,
    graph::Vertex source, const SsspOptions& options, SsspStats* stats_out) {
  check_source(g, source);
  std::vector<std::atomic<std::uint32_t>> dist(g.num_vertices());
  for (auto& d : dist) d.store(kUnreachable, std::memory_order_relaxed);
  dist[source].store(0, std::memory_order_relaxed);

  engine::SchedulingEngine eng(core::detail::single_job_engine(options));
  const core::ExecutionStats run =
      eng.submit_keys(SsspKeys{&g, weights.data(), dist.data(), source},
                      options)
          .wait();
  if (stats_out != nullptr) {
    // Every successful relaxation queued exactly one key, and the job ends
    // only once every queued key has been popped, so the pops are the
    // relaxations plus the source key.
    stats_out->pops = run.iterations;
    stats_out->stale_pops = run.dead_skips;
    stats_out->relaxations = run.iterations - 1;
    stats_out->batches = run.claims;
    stats_out->min_claim = run.min_claim;
    stats_out->max_claim = run.max_claim;
    stats_out->seconds = run.seconds;
  }
  std::vector<std::uint32_t> out(g.num_vertices());
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v)
    out[v] = dist[v].load(std::memory_order_relaxed);
  return out;
}

}  // namespace relax::algorithms
