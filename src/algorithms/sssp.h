// Single-Source Shortest Paths via a relaxed scheduler.
//
// Dijkstra's algorithm is the paper's canonical *motivating* example for
// relaxed scheduling (§1): popping vertices out of order never breaks
// correctness because tentative distances converge monotonically to the
// true distances; the price is wasted work on stale pops. SSSP is NOT in
// the paper's deterministic framework class (the priority order must follow
// distances, so pi cannot be a uniformly random permutation — §2.2), so it
// is not a Problem adapter: it is its own engine key policy — 64-bit
// (distance, vertex) keys with a stale check — run by the same relaxed
// engine job as every framework algorithm (engine/job.h), with the same
// batching, placement, telemetry and QoS.
//
// Edge weights are synthesized deterministically from (edge, seed) since
// graph::Graph is unweighted.
#pragma once

#include <cstdint>
#include <vector>

#include "core/parallel_executor.h"
#include "graph/graph.h"

namespace relax::algorithms {

inline constexpr std::uint32_t kUnreachable = ~0u;

/// Per-arc weights aligned with the CSR arc array; symmetric (both
/// directions of an undirected edge carry the same weight in [1, max_w]).
/// Each weight is a hash of (seed, min endpoint, max endpoint), computed in
/// parallel over the hardware threads; the array does not depend on the
/// thread count.
std::vector<std::uint32_t> synthetic_edge_weights(const graph::Graph& g,
                                                  std::uint64_t seed,
                                                  std::uint32_t max_w = 100);

/// Reference Dijkstra (exact binary-heap scheduler). Returns distances.
/// Throws std::invalid_argument when `source` is not a vertex of `g`.
std::vector<std::uint32_t> dijkstra(const graph::Graph& g,
                                    const std::vector<std::uint32_t>& weights,
                                    graph::Vertex source);

struct SsspStats {
  std::uint64_t pops = 0;
  std::uint64_t stale_pops = 0;  // wasted work due to relaxation/concurrency
  std::uint64_t relaxations = 0;
  std::uint64_t batches = 0;  // scheduler acquisition round trips
  // Smallest / largest claim size *requested* across all acquisition round
  // trips (0 when no batch was ever claimed). A fixed pop_batch reports
  // min == max == pop_batch; adaptive mode (SsspOptions::pop_batch_auto)
  // reports the controller's real range — min 1 (every worker starts
  // there) up to whatever the ramp reached, which is how `relaxsched
  // --pop-batch=auto` proves the claim size actually adapted instead of
  // silently degrading to a fixed cap.
  std::uint64_t min_claim = 0;
  std::uint64_t max_claim = 0;
  double seconds = 0.0;
};

/// SSSP runs with the engine's one-shot options: num_threads, pin_threads,
/// topology (--numa), queue_factor / choices / seed of its MultiQueue,
/// pop_batch / pop_batch_auto, weight, and the metrics / trace sinks.
/// monitor_relaxation does not apply (the audit mirrors a label universe);
/// relaxation_k is a window-backend knob SSSP's MultiQueue does not read.
using SsspOptions = core::ParallelOptions;

/// Multi-threaded label-correcting SSSP over a relaxed concurrent
/// MultiQueue ((distance, vertex) packed into 64-bit keys), run as one job
/// on a single-job engine — the shape of core::run_parallel_relaxed_on.
/// Produces exact distances (monotone convergence); stats report the
/// relaxation overhead. Throws std::invalid_argument when `source` is not a
/// vertex of `g`.
///
/// pop_batch > 1 batches BOTH scheduler sides, exactly like the framework
/// jobs: up to pop_batch keys are claimed per approx_get_min_batch round
/// trip, and the successful relaxations they generate are re-inserted as
/// one batched insert. Label correction is insensitive to the extra
/// relaxation (distances converge monotonically for any pop order); the
/// price is more stale pops, which stats make visible next to the
/// throughput gain.
std::vector<std::uint32_t> parallel_relaxed_sssp(
    const graph::Graph& g, const std::vector<std::uint32_t>& weights,
    graph::Vertex source, const SsspOptions& options,
    SsspStats* stats = nullptr);

}  // namespace relax::algorithms
