// perfbench — the measuring half of the repository benchmark. run.py builds
// it next to relax_server and calls it; see README.md in this directory.
//
//   perfbench solve --workload=greedy|sssp --seed=<n> --seconds=<s>
//                   --trace=0|1 --threads=<w> [--spans=<file>]
//   perfbench load  --port=<p> --rate=<req/s> --seconds=<s> --seed=<n>
//                   --warmup=<s> --drain=<s> --graphs=<n>
//                   [--ack=quick|default] [--spans=<file>]
//
// Each prints one JSON line of raw samples on stdout.
#include <cstdio>
#include <cstring>
#include <string>

#include "perfbench.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench solve|load [--flags]\n");
    return 2;
  }
  const relax::util::CommandLine cli(argc - 1, argv + 1);
  if (std::strcmp(argv[1], "solve") == 0) {
    perfbench::SolveConfig c;
    c.workload = cli.get_string("workload", "");
    c.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    c.seconds = static_cast<std::uint64_t>(cli.get_int("seconds", 10));
    c.trace = cli.get_int("trace", 0) != 0;
    c.threads = static_cast<unsigned>(cli.get_int("threads", 4));
    c.spans_path = cli.get_string("spans", "");
    return perfbench::run_solve(c);
  }
  if (std::strcmp(argv[1], "load") == 0) {
    perfbench::LoadConfig c;
    c.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
    c.rate = cli.get_double("rate", c.rate);
    c.seconds = cli.get_double("seconds", c.seconds);
    c.warmup = cli.get_double("warmup", c.warmup);
    c.drain = cli.get_double("drain", c.drain);
    c.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    c.graphs = static_cast<unsigned>(cli.get_int("graphs", 4));
    c.quick_ack = cli.get_string("ack", "quick") == "quick";
    c.spans_path = cli.get_string("spans", "");
    if (c.port == 0 || c.rate <= 0 || c.graphs == 0) {
      std::fprintf(stderr, "perfbench load: need --port and a positive rate\n");
      return 2;
    }
    return perfbench::run_load(c);
  }
  std::fprintf(stderr, "perfbench: unknown subcommand '%s'\n", argv[1]);
  return 2;
}
