// Minimal job-server demo — now a thin wrapper over the real subsystem.
//
// The serving machinery lives in src/server/ (the networked relax_server
// binary runs the same code over TCP); this example drives it in-process
// via ServerOptions::listen = false + JobServer::submit_local, so the demo
// and the production server share one admission / completion path. What
// used to be a hand-rolled ticket window here is now the engine's own
// bounded admission: submissions beyond the --inflight window come back
// BUSY and the demo waits for a completion before retrying — the same
// backpressure a network client sees.
//
// A "request" names a framework problem (greedy MIS, coloring, or maximal
// matching) over the server's resident graph. Every `audit`-th request
// opts into relaxation monitoring, so scheduler quality (Definition 1 rank
// error / inversions) is sampled continuously without paying the audit
// cost on every request.
//
// --backend selects the scheduler backend (any registry name from
// sched/backend_registry.h) every request runs on; --backend=mix rotates
// requests across the whole registry, so one server multiplexes MultiQueue,
// SprayList, and deterministic k-bounded jobs on the same pool.
//
// --pop-batch selects how many labels each worker claims per scheduler
// touch (default 1; 'auto' or 'auto:<max>' enables the adaptive
// controller). Batching amortizes the per-pop sample/lock round trip — the
// audit requests report the matching O(pop_batch * q) rank-error envelope,
// so the latency/quality trade is visible in the output.
//
// --metrics=<path|-> attaches an obs::MetricsRegistry and dumps it after
// the serving loop drains: per-worker engine counters plus the server's
// request counts and request-latency histogram (Prometheus text form,
// JSON when the path ends in .json, stdout with '-').
//
// --numa selects topology-aware placement (off | auto | virtual:<K>): the
// pool pins socket-by-socket and every scalable backend the jobs stand up
// is striped per domain (util/topology.h).
//
// Build & run:  ./examples/job_server [--requests=32] [--threads=0]
//                                     [--inflight=4] [--audit=8]
//                                     [--pop-batch=1|auto[:max]]
//                                     [--backend=multiqueue-c2|...|mix]
//                                     [--numa=off|auto|virtual:<K>]
//                                     [--metrics=<path|->]
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/flags.h"
#include "obs/metrics.h"
#include "sched/backend_registry.h"
#include "server/server.h"
#include "util/cli.h"
#include "util/timer.h"

namespace {

namespace flags = relax::engine::flags;
namespace protocol = relax::server::protocol;

/// What the submit loop remembers about an in-flight request, keyed by
/// protocol id (completions arrive in engine order, not submission order).
struct Pending {
  const char* kind;
  const relax::sched::BackendInfo* backend;
  std::uint32_t pop_batch;
};

}  // namespace

int main(int argc, char** argv) {
  const relax::util::CommandLine cli(argc, argv);
  const int requests = static_cast<int>(cli.get_int("requests", 32));
  const int inflight =
      std::max(1, static_cast<int>(cli.get_int("inflight", 4)));
  const int audit_every = static_cast<int>(cli.get_int("audit", 8));

  const auto pb = flags::parse_pop_batch(cli.get_string("pop-batch", "1"));
  if (!pb) return 2;

  auto backends = flags::resolve_backends(cli.get_string("backend", ""));
  if (!backends) return 2;
  if (backends->empty())  // no --backend: the registry default
    backends->push_back(&relax::sched::default_backend());

  const auto numa = flags::parse_numa(cli.get_string("numa", "off"));
  if (!numa) return 2;

  const std::string metrics_path = cli.get_string("metrics", "");
  relax::obs::MetricsRegistry registry;

  relax::server::ServerOptions opts;
  opts.listen = false;  // in-process: submit_local only, no sockets
  opts.engine.num_threads =
      static_cast<unsigned>(cli.get_int("threads", 0));
  opts.engine.max_in_flight = static_cast<unsigned>(inflight);
  opts.engine.max_pending = static_cast<std::size_t>(inflight);
  opts.engine.topology = *numa;
  opts.default_pop_batch = pb->batch;
  opts.default_pop_batch_auto = pb->adaptive;
  if (!metrics_path.empty()) opts.metrics = &registry;
  relax::server::JobServer server(std::move(opts));

  std::printf(
      "job_server: %u workers, %d jobs in flight, %d requests, pop-batch "
      "%u%s\n",
      server.engine().width(), inflight, requests, pb->batch,
      pb->adaptive ? " (adaptive)" : "");

  // Completion channel for the demo: submit_local's deliver callback runs
  // on an engine worker; the main thread drains and prints.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<protocol::Response> done;
  const auto deliver = [&](const protocol::Response& resp) {
    {
      std::lock_guard<std::mutex> guard(mu);
      done.push_back(resp);
    }
    cv.notify_one();
  };

  std::unordered_map<std::uint64_t, Pending> pending;
  relax::util::Timer clock;
  double latency_sum = 0.0;
  int completed = 0;
  int in_flight = 0;

  const auto complete_one = [&] {
    protocol::Response resp;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !done.empty(); });
      resp = std::move(done.front());
      done.pop_front();
    }
    --in_flight;
    const Pending meta = pending.at(resp.id);
    pending.erase(resp.id);
    const double latency_ms =
        static_cast<double>(resp.latency_ns) / 1e6;
    latency_sum += latency_ms;
    ++completed;
    std::printf("  #%-3d %-8s %-20s %7.2f ms  iters=%llu wasted=%llu",
                completed, meta.kind,
                std::string(meta.backend->name).c_str(), latency_ms,
                static_cast<unsigned long long>(resp.iterations),
                static_cast<unsigned long long>(resp.failed_deletes));
    if (resp.rank_samples > 0) {
      relax::sched::BackendParams bp;
      bp.threads = server.engine().width();
      const auto envelope = relax::sched::batched_rank_bound(
          *meta.backend, bp, meta.pop_batch);
      std::printf("  [audit: mean rank err %.2f, max %llu, envelope %llu]",
                  resp.mean_rank_error,
                  static_cast<unsigned long long>(resp.max_rank_error),
                  static_cast<unsigned long long>(envelope));
    }
    std::printf("\n");
  };

  static const char* const kKindNames[3] = {"mis", "coloring", "matching"};
  for (int r = 0; r < requests; ++r) {
    protocol::Request req;
    req.id = static_cast<std::uint64_t>(r) + 1;
    req.kind = static_cast<protocol::Kind>(r % 3);
    req.seed = static_cast<std::uint64_t>(r) + 1;
    req.pop_batch = pb->batch;
    req.pop_batch_auto = pb->adaptive;
    req.audit = audit_every > 0 && r % audit_every == 0;
    const auto* backend =
        (*backends)[static_cast<std::size_t>(r) % backends->size()];
    req.backend = std::string(backend->name);
    pending.emplace(req.id, Pending{kKindNames[r % 3], backend, pb->batch});

    // Bounded window: admission overflow comes back BUSY; completing one
    // request always frees a slot, so the retry loop makes progress.
    for (;;) {
      protocol::Response immediate;
      const auto status = server.submit_local(req, deliver, &immediate);
      if (status == protocol::Status::kOk) break;
      if (status == protocol::Status::kBusy) {
        complete_one();
        continue;
      }
      std::fprintf(stderr, "request #%d rejected: %s\n", r,
                   immediate.message.c_str());
      pending.erase(req.id);
      return 1;
    }
    ++in_flight;
  }
  while (in_flight > 0) complete_one();

  const double total = clock.seconds();
  std::printf(
      "served %d requests in %.3fs (%.1f req/s), mean latency %.2f ms\n",
      completed, total,
      total > 0.0 ? static_cast<double>(completed) / total : 0.0,
      completed > 0 ? latency_sum / completed : 0.0);

  flags::dump_metrics(registry, metrics_path);
  return 0;
}
