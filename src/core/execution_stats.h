// Work accounting in the paper's cost model: one "iteration" per scheduler
// query; extra iterations beyond n are failed deletes (re-insertions) plus,
// for Algorithm 4, pops of dead vertices. Table 1 reports failed deletes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace relax::core {

struct ExecutionStats {
  std::uint64_t iterations = 0;      // scheduler pops that returned a task
  std::uint64_t processed = 0;       // successful steps
  std::uint64_t failed_deletes = 0;  // kNotReady -> re-insert (wasted steps)
  std::uint64_t dead_skips = 0;      // kRetired pops (Algorithm 4 dead hits)
  std::uint64_t empty_polls = 0;     // pops that returned nullopt (parallel)
  double seconds = 0.0;  // wall time, job admission through completion

  // Claim accounting (relaxed engine jobs): scheduler claims that returned
  // keys, and the smallest / largest claim size *requested* for them — the
  // batch controller's choice, before the job clamps a claim to the budget
  // left in its slice (0 = no claim made). A fixed pop_batch reports
  // min == max == pop_batch; adaptive mode reports the range it floated.
  std::uint64_t claims = 0;
  std::uint64_t min_claim = 0;
  std::uint64_t max_claim = 0;

  // Slice telemetry (engine jobs): every run_slice visit that got past the
  // finished() check records its wall latency here. For the merged job
  // stats this is the per-job starvation metric — how long this job's turns
  // on the pool took, p50/p95/p99 via slice_latency_ns.percentile(). Always
  // on (two clock reads per ~slice_budget iterations; the obs overhead
  // guard test pins the total cost).
  std::uint64_t slices = 0;            // run_slice visits recorded
  obs::Histogram slice_latency_ns;     // per-slice wall latency

  // Per-worker breakdown, populated by engine jobs' collect() on the merged
  // result (empty on the per-worker stripes themselves). Entry w holds
  // worker w's share of every counter above; its `seconds` is that worker's
  // BUSY time (sum of its slice latencies), unlike the merged top-level
  // `seconds`, which is wall time.
  std::vector<ExecutionStats> per_worker;

  // Relaxation quality, populated only when a job runs with
  // engine::JobConfig::monitor_relaxation (Definition 1 sampling via
  // sched::RelaxationMonitor). rank_samples == 0 means "not measured".
  std::uint64_t rank_samples = 0;      // monitored pops
  double mean_rank_error = 0.0;        // avg rank of popped element (0=exact)
  std::uint64_t max_rank_error = 0;
  std::uint64_t inversion_samples = 0; // tracked elements retired
  double mean_inversions = 0.0;        // avg priority inversions per element

  /// Iterations beyond the unavoidable n (the paper's "cost of relaxation"
  /// equals failed_deletes; dead skips are part of the n for Algorithm 4
  /// because every vertex is popped-decided exactly once).
  [[nodiscard]] std::uint64_t extra_iterations() const noexcept {
    return failed_deletes;
  }

  /// Accumulates `o` into *this. Counters add; maxima merge unconditionally
  /// (a stripe can carry a max_rank_error without rank_samples when its
  /// mean was recorded elsewhere — the max must never be dropped); means
  /// are sample-weighted. `seconds` ADDS, which is CPU-time semantics: when
  /// merging per-worker stripes of one parallel run the sum is busy time,
  /// not wall time — use merged_wall() for that case, which encodes the
  /// wall-clock override as API instead of caller folklore.
  ExecutionStats& operator+=(const ExecutionStats& o) {
    iterations += o.iterations;
    processed += o.processed;
    failed_deletes += o.failed_deletes;
    dead_skips += o.dead_skips;
    empty_polls += o.empty_polls;
    seconds += o.seconds;
    claims += o.claims;
    if (o.min_claim != 0) {
      min_claim =
          min_claim == 0 ? o.min_claim : std::min(min_claim, o.min_claim);
    }
    max_claim = std::max(max_claim, o.max_claim);
    slices += o.slices;
    slice_latency_ns.merge(o.slice_latency_ns);
    if (!o.per_worker.empty()) {
      if (per_worker.size() < o.per_worker.size())
        per_worker.resize(o.per_worker.size());
      for (std::size_t w = 0; w < o.per_worker.size(); ++w)
        per_worker[w] += o.per_worker[w];
    }
    if (o.max_rank_error > max_rank_error) max_rank_error = o.max_rank_error;
    if (o.rank_samples > 0) {
      mean_rank_error =
          (mean_rank_error * static_cast<double>(rank_samples) +
           o.mean_rank_error * static_cast<double>(o.rank_samples)) /
          static_cast<double>(rank_samples + o.rank_samples);
      rank_samples += o.rank_samples;
    }
    if (o.inversion_samples > 0) {
      mean_inversions =
          (mean_inversions * static_cast<double>(inversion_samples) +
           o.mean_inversions * static_cast<double>(o.inversion_samples)) /
          static_cast<double>(inversion_samples + o.inversion_samples);
      inversion_samples += o.inversion_samples;
    }
    return *this;
  }

  /// Merges per-worker stripes of ONE parallel execution: counters and
  /// histograms accumulate via operator+=, and `seconds` is then OVERRIDDEN
  /// with the run's wall clock (the stripes' own seconds, if any, are busy
  /// time and must not masquerade as elapsed time). This is the
  /// caller-override contract operator+= documents, as code.
  [[nodiscard]] static ExecutionStats merged_wall(
      std::span<const ExecutionStats> stripes, double wall_seconds) {
    ExecutionStats total;
    for (const ExecutionStats& s : stripes) total += s;
    total.seconds = wall_seconds;
    return total;
  }

  /// Slice-latency percentile in microseconds (0 when no slices recorded).
  [[nodiscard]] double slice_percentile_us(double p) const noexcept {
    return slice_latency_ns.percentile(p) / 1e3;
  }

  [[nodiscard]] std::string to_string() const;
};

}  // namespace relax::core
