// Subcommands of the perfbench binary. Each prints one JSON line of
// raw samples on stdout; run.py turns those into the benchmark's metrics.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// `perfbench solve`: the one-shot workloads (greedy, sssp).
struct SolveConfig {
  std::string workload;        // greedy | sssp
  std::uint64_t seed = 1;      // input seed (graph, priorities, weights)
  std::uint64_t seconds = 10;  // timed-repetition budget
  bool trace = false;
  unsigned threads = 4;
  std::string spans_path;      // traced runs write their spans here
};

int run_solve(const SolveConfig& c);

/// `perfbench load`: one open-loop window against a running relax_server.
struct LoadConfig {
  std::uint16_t port = 0;
  double rate = 300.0;          // offered requests per second
  double seconds = 4.0;         // measured window
  double warmup = 0.5;          // sent first, not measured
  double drain = 2.0;           // wait for replies after the last due time
  std::uint64_t seed = 1;       // request mix (kind, graph id, job seed)
  bool quick_ack = true;        // acknowledge every response at once
  unsigned graphs = 4;          // the server's --graphs
  std::string spans_path;       // per-request spans, traced runs only
};

int run_load(const LoadConfig& c);

}  // namespace perfbench
