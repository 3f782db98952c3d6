// Steady-state timed benchmark — the service-shaped counterpart to the
// run-to-completion backend matrix.
//
// Each cell (backend x insert-policy x key-distribution x threads x
// pop-batch) prefills ~1M keys, drives a fixed wall-clock window of mixed
// insert/delete traffic, and reports the MEDIAN sustained ops/s over
// --runs repetitions plus Definition 1 rank-error percentiles from a
// serialized monitored companion pass (see src/bench/steady_state.h for
// the full measurement discipline). Multi-run medians from a timed window
// are stable enough that CI diffs the --json artifact with
// tools/bench_diff.py --fail — the binding perf gate — where the legacy
// matrix only ever warned.
//
// Usage: steady_state [--backends=multiqueue-c2,lockfree-multiqueue,spraylist]
//                     [--threads=1,4] [--pop-batch=1,8]
//                     [--policies=uniform|all|name,name,...]
//                     [--distributions=uniform|all|name,name,...]
//                     [--prefill=1000000] [--time-ms=1000] [--runs=3]
//                     [--key-universe=4194304] [--seed=1] [--quality=1]
//                     [--numa=off,virtual:2] [--json=path]
#include <cstdio>
#include <string>
#include <vector>

#include "bench/steady_state.h"
#include "engine/flags.h"
#include "sched/key_distribution.h"
#include "util/cli.h"

namespace {

namespace flags = relax::engine::flags;
using relax::bench::SteadyCell;
using relax::bench::SteadyConfig;
using relax::sched::BackendInfo;
using relax::sched::InsertPolicy;
using relax::sched::KeyDistribution;

std::string batch_label(const SteadyCell& c) {
  return (c.pop_batch_auto ? "a" : "") + std::to_string(c.pop_batch);
}

void print_row(const SteadyCell& c) {
  std::printf("%-20s %-11s %-10s %7u %6s %-10s %12.0f %11llu %9llu",
              c.backend.c_str(),
              std::string(insert_policy_name(c.policy)).c_str(),
              std::string(key_distribution_name(c.distribution)).c_str(),
              c.threads, batch_label(c).c_str(), c.numa.c_str(), c.ops_per_s,
              static_cast<unsigned long long>(c.ops),
              static_cast<unsigned long long>(c.empty_pops));
  if (c.op_p99_us >= 0.0) {
    std::printf("%9.1f", c.op_p99_us);
  } else {
    std::printf("%9s", "-");
  }
  if (c.mean_rank >= 0.0) {
    std::printf("%10.2f %8.0f %8.0f %9llu\n", c.mean_rank, c.rank_p90,
                c.rank_p99, static_cast<unsigned long long>(c.max_rank));
  } else {
    std::printf("%10s %8s %8s %9s\n", "-", "-", "-", "-");
  }
}

bool write_json(const char* path, const std::vector<SteadyCell>& cells) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open --json path '%s'\n", path);
    return false;
  }
  std::string out = "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out += "  ";
    relax::bench::append_json_row(out, cells[i]);
    out += i + 1 < cells.size() ? ",\n" : "\n";
  }
  out += "]\n";
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

[[noreturn]] void usage_and_exit(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: bench_steady_state [flags]   (every axis flag is a "
      "comma-separated list)\n"
      "\n"
      "  --backends=<list>        backend registry names (default\n"
      "                           multiqueue-c2,lockfree-multiqueue,\n"
      "                           spraylist)\n"
      "  --threads=<list>         thread-count axis (default 1,4)\n"
      "  --pop-batch=<list>       labels per scheduler touch, each entry\n"
      "                           <k>, 'auto', or 'auto:<max>' — 'auto'\n"
      "                           enables the adaptive controller\n"
      "                           (default 1,8)\n"
      "  --numa=<list>            topology-aware placement axis, each\n"
      "                           entry off|auto|virtual:<K>; virtual:K\n"
      "                           splits workers into K synthetic domains\n"
      "                           for host-independent CI (default off)\n"
      "  --policies=all|<list>    insert policies (default uniform)\n"
      "  --distributions=all|<list>\n"
      "                           key distributions (default uniform)\n"
      "  --prefill=<k>            keys resident before the timed window\n"
      "                           (default 1000000)\n"
      "  --time-ms=<t>            timed window length (default 1000)\n"
      "  --runs=<r>               repetitions per cell, median reported\n"
      "                           (default 3)\n"
      "  --key-universe=<u>       key space size (default 4194304)\n"
      "  --quality=0|1            also run the Definition 1 monitored\n"
      "                           companion pass (default 1)\n"
      "  --seed=<s>               base seed (default 1)\n"
      "  --json=<path>            machine-readable artifact for\n"
      "                           tools/bench_diff.py --fail (the binding\n"
      "                           perf gate)\n"
      "  --help                   this text\n");
  std::exit(error != nullptr ? 2 : 0);
}

int main(int argc, char** argv) {
  const relax::util::CommandLine cli(argc, argv);
  if (cli.has("help")) usage_and_exit(nullptr);

  SteadyConfig base;
  base.prefill = static_cast<std::size_t>(cli.get_int("prefill", 1'000'000));
  base.working_seconds = cli.get_int("time-ms", 1000) / 1e3;
  base.runs = static_cast<unsigned>(cli.get_int("runs", 3));
  base.key_universe =
      static_cast<std::uint32_t>(cli.get_int("key-universe", 1 << 22));
  base.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  base.quality = cli.get_bool("quality", true);

  const auto thread_list = cli.get_int_list("threads", {1, 4});

  const auto batch_list =
      flags::parse_pop_batch_list(cli.get_string("pop-batch", "1,8"));
  if (!batch_list) return 2;

  const auto backends = flags::parse_backend_list(cli.get_string(
      "backends", "multiqueue-c2,lockfree-multiqueue,spraylist"));
  if (!backends) return 2;

  std::vector<InsertPolicy> policies;
  const std::string policy_flag = cli.get_string("policies", "uniform");
  if (policy_flag == "all") {
    for (const InsertPolicy p : relax::sched::all_insert_policies())
      policies.push_back(p);
  } else {
    const auto names = flags::split_axis("policies", policy_flag);
    if (!names) return 2;
    for (const std::string& name : *names) {
      const auto p = relax::sched::parse_insert_policy(name);
      if (!p) {
        std::fprintf(stderr,
                     "unknown insert policy '%s'; valid: uniform, split, "
                     "producer, alternating (or 'all')\n",
                     name.c_str());
        return 2;
      }
      policies.push_back(*p);
    }
  }

  // Topology axis: each entry is a TopologySpec the timed pass stripes and
  // pins under (off | auto | virtual:<K>), recorded per JSON cell so
  // bench_diff.py keys off-vs-striped rows apart.
  const auto numa_list = flags::parse_numa_list(cli.get_string("numa", "off"));
  if (!numa_list) return 2;

  std::vector<KeyDistribution> distributions;
  const std::string dist_flag = cli.get_string("distributions", "uniform");
  if (dist_flag == "all") {
    for (const KeyDistribution d : relax::sched::all_key_distributions())
      distributions.push_back(d);
  } else {
    const auto names = flags::split_axis("distributions", dist_flag);
    if (!names) return 2;
    for (const std::string& name : *names) {
      const auto d = relax::sched::parse_key_distribution(name);
      if (!d) {
        std::fprintf(stderr,
                     "unknown key distribution '%s'; valid: uniform, "
                     "dijkstra, ascending, descending (or 'all')\n",
                     name.c_str());
        return 2;
      }
      distributions.push_back(*d);
    }
  }

  std::printf(
      "steady_state: prefill=%zu window=%.0fms runs=%u universe=%u "
      "quality=%d\n",
      base.prefill, base.working_seconds * 1e3, base.runs, base.key_universe,
      base.quality ? 1 : 0);
  std::printf(
      "%-20s %-11s %-10s %7s %6s %-10s %12s %11s %9s %9s %10s %8s %8s %9s\n",
      "backend", "policy", "dist", "threads", "batch", "numa", "ops/s", "ops",
      "empty", "p99-us", "mean-rank", "r-p90", "r-p99", "max-rank");

  std::vector<SteadyCell> cells;
  for (const std::int64_t t : thread_list) {
    for (const relax::engine::PopBatchFlag& pb : *batch_list) {
      for (const relax::util::TopologySpec& numa : *numa_list) {
        for (const BackendInfo* backend : *backends) {
          for (const InsertPolicy policy : policies) {
            for (const KeyDistribution dist : distributions) {
              SteadyConfig cfg = base;
              cfg.backend = backend;
              cfg.threads = static_cast<unsigned>(t < 1 ? 1 : t);
              cfg.policy = policy;
              cfg.distribution = dist;
              cfg.pop_batch = pb.batch;
              cfg.pop_batch_auto = pb.adaptive;
              cfg.numa = numa;
              SteadyCell cell = relax::bench::run_steady_cell(cfg);
              print_row(cell);
              std::fflush(stdout);
              cells.push_back(std::move(cell));
            }
          }
        }
      }
    }
  }

  const std::string json_path = cli.get_string("json", "");
  if (!json_path.empty() && !write_json(json_path.c_str(), cells)) return 1;
  return 0;
}
