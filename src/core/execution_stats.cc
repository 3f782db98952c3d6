#include "core/execution_stats.h"

#include <sstream>

namespace relax::core {

std::string ExecutionStats::to_string() const {
  // Every field the struct carries is rendered (zero-valued optional
  // sections are elided as "not measured", never silently dropped when
  // nonzero) — tests/stats_test.cc asserts this stays true.
  std::ostringstream os;
  os << "iterations=" << iterations << " processed=" << processed
     << " failed_deletes=" << failed_deletes << " dead_skips=" << dead_skips
     << " empty_polls=" << empty_polls << " seconds=" << seconds;
  if (claims > 0) {
    os << " claims=" << claims << " min_claim=" << min_claim
       << " max_claim=" << max_claim;
  }
  if (slices > 0) {
    os << " slices=" << slices
       << " slice_p50_us=" << slice_percentile_us(50.0)
       << " slice_p95_us=" << slice_percentile_us(95.0)
       << " slice_p99_us=" << slice_percentile_us(99.0);
  }
  if (!per_worker.empty()) os << " workers=" << per_worker.size();
  if (rank_samples > 0 || max_rank_error > 0) {
    os << " mean_rank_error=" << mean_rank_error
       << " max_rank_error=" << max_rank_error;
  }
  if (inversion_samples > 0) os << " mean_inversions=" << mean_inversions;
  return os.str();
}

}  // namespace relax::core
