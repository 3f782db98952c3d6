// relax_server: the networked job server (src/server/server.h) as a
// standalone binary.
//
// Binds a TCP endpoint, loads resident graphs, and serves the
// length-prefixed protocol (docs/PROTOCOL.md) until SIGTERM/SIGINT. Prints
// "listening on <host>:<port>" once ready — with --port=0 this is how the
// bound ephemeral port is discovered (CI and scripts parse this line).
// Admission is bounded: when the engine queue is full, requests are
// answered BUSY instead of queueing, so the --pending knob is the server's
// entire overload policy.
//
// On shutdown the telemetry sinks are dumped: --metrics counts accepted /
// rejected / completed requests plus the request-latency histogram next to
// the per-worker engine metrics; --trace captures slice-level timelines.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include "engine/flags.h"
#include "obs/metrics.h"
#include "obs/trace_ring.h"
#include "server/server.h"
#include "util/cli.h"

namespace {

namespace flags = relax::engine::flags;

[[noreturn]] void usage_and_exit(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: relax_server [flags]\n"
      "\n"
      "  --host=<addr>            listen address (default 127.0.0.1)\n"
      "  --port=<p>               listen port; 0 binds an ephemeral port\n"
      "                           and prints it (default 0)\n"
      "  --threads=<n>            engine worker threads (0 = hardware)\n"
      "  --inflight=<n>           jobs multiplexed at once (default 4)\n"
      "  --pending=<n>            admission queue bound; overflow is\n"
      "                           answered BUSY (default 64)\n"
      "  --backend=<name>|mix     default scheduler backend for requests\n"
      "                           that don't name one (default: registry\n"
      "                           default); 'mix' rotates defaulted\n"
      "                           requests round-robin through the whole\n"
      "                           registry — a heterogeneous multi-tenant\n"
      "                           pool\n"
      "  --default-weight=<w>     QoS weight for requests that send\n"
      "                           weight 0; old clients without the field\n"
      "                           stay at weight 1 (default 1, max 1024)\n"
      "  --pop-batch=<k>|auto[:max]\n"
      "                           default labels per scheduler touch;\n"
      "                           'auto' adapts per worker up to max\n"
      "                           (default 1)\n"
      "  --numa=off|auto|virtual:<K>\n"
      "                           topology-aware placement: pin workers\n"
      "                           socket-by-socket and stripe backends per\n"
      "                           domain (default off)\n"
      "  --graphs=<n>             resident graphs to generate; requests\n"
      "                           pick one by graph_id (default 1)\n"
      "  --graph-n=<v> --graph-m=<e>\n"
      "                           size of each resident G(n,m) graph\n"
      "                           (default 4000 / 24000)\n"
      "  --metrics=<path|->       dump request + engine metrics on exit:\n"
      "                           Prometheus text, JSON if path ends in\n"
      "                           .json, stdout with '-'\n"
      "  --trace=<path|->         write a Chrome trace-event JSON file\n"
      "                           (open in chrome://tracing) on exit\n"
      "  --help                   this text\n"
      "\n"
      "Stops cleanly on SIGTERM/SIGINT: stops accepting, closes\n"
      "connections, drains in-flight jobs, dumps telemetry, exits 0.\n");
  std::exit(error != nullptr ? 2 : 0);
}

relax::server::JobServer* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();  // async-signal-safe
}

}  // namespace

int main(int argc, char** argv) {
  const relax::util::CommandLine cli(argc, argv);
  if (cli.has("help")) usage_and_exit(nullptr);

  relax::server::ServerOptions opts;
  opts.host = cli.get_string("host", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  opts.engine.num_threads =
      static_cast<unsigned>(cli.get_int("threads", 0));
  opts.engine.max_in_flight = static_cast<unsigned>(
      std::max<std::int64_t>(1, cli.get_int("inflight", 4)));
  opts.engine.max_pending = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("pending", 64)));

  const std::string backend_flag = cli.get_string("backend", "");
  const auto backends = flags::resolve_backends(backend_flag);
  if (!backends) return 2;
  opts.backends = *backends;

  const auto default_weight = flags::parse_weight(
      "default-weight", cli.get_string("default-weight", "1"));
  if (!default_weight) return 2;
  opts.default_weight = *default_weight;

  const auto pb = flags::parse_pop_batch(cli.get_string("pop-batch", "1"));
  if (!pb) return 2;
  opts.default_pop_batch = pb->batch;
  opts.default_pop_batch_auto = pb->adaptive;

  const auto numa = flags::parse_numa(cli.get_string("numa", "off"));
  if (!numa) return 2;
  opts.engine.topology = *numa;

  const auto num_graphs = std::max<std::int64_t>(1, cli.get_int("graphs", 1));
  const auto graph_n =
      std::max<std::int64_t>(2, cli.get_int("graph-n", 4000));
  const auto graph_m =
      std::max<std::int64_t>(1, cli.get_int("graph-m", 24000));
  opts.graphs.clear();
  for (std::int64_t i = 0; i < num_graphs; ++i) {
    relax::server::GraphSpec spec;
    spec.n = static_cast<std::uint32_t>(graph_n);
    spec.m = static_cast<std::uint64_t>(graph_m);
    spec.seed = static_cast<std::uint64_t>(i) + 1;
    opts.graphs.push_back(spec);
  }

  const std::string metrics_path = cli.get_string("metrics", "");
  const std::string trace_path = cli.get_string("trace", "");
  relax::obs::MetricsRegistry registry;
  relax::obs::TraceRing ring;
  if (!metrics_path.empty()) opts.metrics = &registry;
  if (!trace_path.empty()) opts.engine.trace = &ring;

  auto server = std::make_unique<relax::server::JobServer>(std::move(opts));
  g_server = server.get();
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  std::printf(
      "relax_server: %u workers, %zu resident graphs, backend %s, "
      "default weight %u\n",
      server->engine().width(), server->num_graphs(),
      backend_flag.empty()
          ? "(registry default)"
          : (backend_flag == "mix" ? "mix (registry rotation)"
                                   : backend_flag.c_str()),
      *default_weight);
  std::printf("listening on %s:%u\n",
              cli.get_string("host", "127.0.0.1").c_str(),
              static_cast<unsigned>(server->port()));
  std::fflush(stdout);

  server->run();

  std::printf("relax_server: shutting down, draining in-flight jobs\n");
  std::fflush(stdout);
  g_server = nullptr;

  // Destroy the server before exporting telemetry: teardown drains every
  // in-flight job, so the registry and trace ring are quiescent here.
  server.reset();
  flags::dump_metrics(registry, metrics_path);
  flags::dump_trace(ring, trace_path);
  return 0;
}
