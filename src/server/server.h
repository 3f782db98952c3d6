// Networked job server: an async epoll front-end over SchedulingEngine.
//
// This is the "millions of users" story made concrete: one JobServer owns
// one engine pool plus a set of resident graphs, listens on a TCP socket,
// and serves the length-prefixed binary protocol in src/server/protocol.h.
// The design is a single event-loop thread plus the engine's worker pool,
// glued by a completion channel:
//
//   epoll thread   accept()s connections, reassembles frames
//                  (protocol::FrameReader), decodes requests, and admits
//                  jobs through the engine's *non-blocking* admission
//                  (SchedulingEngine::try_submit). It never blocks: when
//                  the admission queue is full the request is answered
//                  with an explicit BUSY response instead of queueing
//                  unboundedly — bounded admission becomes visible
//                  backpressure on the wire.
//   engine workers run the job slices exactly as for in-process callers;
//                  the reaping worker fires the submission's completion
//                  callback (engine::CompletionFn).
//   completion     the callback does no I/O: it stamps the request
//   channel        latency, builds the protocol::Response, pushes it onto
//                  a mutex-guarded queue and writes an eventfd — the
//                  lightweight channel / deferred-call handoff. The epoll
//                  thread wakes, drains the queue, and writes responses on
//                  the owning connections (dropping completions whose
//                  connection is gone — the job still ran; only the
//                  reply had no reader).
//
// Every request therefore gets exactly one response — OK with stats, BUSY,
// or ERROR — unless its connection closed first; nothing is silently
// dropped and nothing buffers without bound (per-connection write buffers
// are capped; a reader slower than its own response stream is closed).
//
// Telemetry: with ServerOptions::metrics attached, the server records
// accepted / rejected / completed / error request counts, connection
// open/close counts, and an accept-to-completion request-latency histogram
// into the registry's server block (obs::ServerMetrics), next to the
// engine's per-worker counters — one Prometheus scrape covers the whole
// stack.
//
// In-process mode (ServerOptions::listen = false) skips the sockets
// entirely: submit_local() drives the same validation + admission +
// completion path with a caller-supplied delivery callback. This is what
// examples/job_server.cpp runs on — the demo and the network server are
// one code path from admission down.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "algorithms/coloring.h"
#include "algorithms/matching.h"
#include "algorithms/mis.h"
#include "engine/engine.h"
#include "graph/graph.h"
#include "graph/permutation.h"
#include "sched/backend_registry.h"
#include "server/protocol.h"

namespace relax::server {

/// One resident graph the server loads at startup (requests reference it
/// by index — protocol::Request::graph_id).
struct GraphSpec {
  std::uint32_t n = 4000;
  std::uint64_t m = 24000;
  std::uint64_t seed = 1;
};

struct ServerOptions {
  /// Listening endpoint. port 0 binds an ephemeral port (see port()).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// false = in-process mode: no sockets, submit_local() only.
  bool listen = true;

  /// Engine pool shape; EngineOptions::max_pending is the admission bound
  /// whose overflow becomes BUSY responses.
  engine::EngineOptions engine;

  /// Backends for requests that name none (engine::flags::resolve_backends
  /// builds this from --backend): empty runs the registry default, one
  /// entry runs that backend, and more than one makes defaulted requests
  /// round-robin through the entries — `relax_server --backend=mix` lists
  /// the whole registry, turning one server into a deliberately
  /// heterogeneous multi-tenant pool (the QoS governor's cost
  /// normalization is what keeps such a mix comparable). Requests that
  /// *name* a backend bypass this entirely.
  std::vector<const sched::BackendInfo*> backends;

  /// Defaults applied when a request leaves the field at 0.
  std::uint32_t default_pop_batch = 1;
  bool default_pop_batch_auto = false;
  /// QoS weight applied when a request carries weight 0 ("use the server
  /// default"). Requests that predate the weight field decode as 1 and
  /// never take this value. Clamped to [1, JobConfig::kMaxWeight].
  std::uint32_t default_weight = 1;

  /// Resident data, generated at startup.
  std::vector<GraphSpec> graphs = {GraphSpec{}};

  /// Per-connection write-buffer cap: a connection whose unread responses
  /// exceed this is closed (slow or absent reader — unbounded buffering is
  /// the failure mode this server exists to not have).
  std::size_t max_out_buffer = 1u << 20;

  /// Optional telemetry sink (server block + engine per-worker metrics).
  /// Must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The server. Construct, then either run() the event loop (network mode;
/// blocking — run it on a dedicated thread or the process main) or drive
/// submit_local() (in-process mode). request_stop() is async-signal-safe
/// in network mode, so a SIGTERM handler may call it directly.
class JobServer {
 public:
  explicit JobServer(ServerOptions opts);

  /// Stops accepting, closes connections, and drains every in-flight job
  /// (engine teardown blocks until its jobs finish). run() must have
  /// returned (or never been called) before destruction.
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// The bound port (network mode; resolves ephemeral --port=0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Event loop: accept/read/decode/admit/respond until request_stop().
  /// Network mode only; call at most once.
  void run();

  /// Requests run() to exit. Safe from any thread and from a signal
  /// handler (a single eventfd write).
  void request_stop() noexcept;

  /// Validates and admits one request without sockets. Returns kOk and
  /// later invokes `deliver` exactly once from an engine worker thread
  /// (CompletionFn contract: keep it light); or returns kBusy / kError —
  /// then `deliver` is never invoked and the rejection Response is written
  /// to *immediate instead.
  protocol::Status submit_local(
      const protocol::Request& req,
      std::function<void(const protocol::Response&)> deliver,
      protocol::Response* immediate);

  /// The underlying engine (tests saturate admission through it).
  [[nodiscard]] engine::SchedulingEngine& engine() { return *engine_; }

  [[nodiscard]] std::size_t num_graphs() const noexcept {
    return graphs_.size();
  }

 private:
  /// Resident problem inputs, one per GraphSpec: the graph with vertex
  /// priorities (MIS, coloring) and its edge incidence with edge
  /// priorities (matching) — a service loads these once, requests only
  /// name them.
  struct ResidentGraph {
    graph::Graph g;
    graph::Priorities vertex_pri;
    algorithms::EdgeIncidence incidence;
    graph::Priorities edge_pri;
  };

  /// One client connection owned by the epoll loop. Keyed by a
  /// never-reused id so a completion can never be delivered to a
  /// connection that replaced a closed one on the same fd.
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    protocol::FrameReader reader;
    std::vector<std::uint8_t> out;  // encoded, unwritten response bytes
    std::size_t out_pos = 0;        // already-written prefix of `out`
    bool want_write = false;        // EPOLLOUT currently armed
  };

  /// A finished job on its way back to the epoll thread.
  struct Completion {
    std::uint64_t conn_id = 0;
    protocol::Response response;
  };

  /// Shared admission path (network + local). On kOk, `deliver` fires
  /// exactly once from an engine worker with the completed Response; on
  /// kBusy/kError nothing was admitted and *immediate carries the
  /// rejection response.
  protocol::Status admit_request(
      const protocol::Request& req,
      std::function<void(const protocol::Response&)> deliver,
      protocol::Response* immediate);

  void handle_accept();
  void handle_readable(Connection& conn);
  void handle_writable(Connection& conn);
  void handle_frame(Connection& conn, std::span<const std::uint8_t> payload);
  void drain_completions();
  void queue_response(Connection& conn, const protocol::Response& resp);
  /// Flushes conn.out as far as the socket allows; arms/disarms EPOLLOUT.
  /// Returns false when the connection died (already closed here).
  bool flush_writes(Connection& conn);
  void close_connection(std::uint64_t conn_id);
  void update_epoll(Connection& conn, bool want_write);
  void wake() noexcept;

  ServerOptions opts_;
  std::vector<ResidentGraph> graphs_;

  // Completion channel. Declared before engine_ so engine teardown (which
  // may still fire callbacks into it) never touches a destroyed member.
  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::unordered_map<std::uint64_t, Connection> conns_;
  std::uint64_t next_conn_id_ = 2;  // 0 = listen sentinel, 1 = wake sentinel
  /// Round-robin cursor into opts_.backends. Atomic because
  /// submit_local may be driven from several caller threads, unlike the
  /// single epoll thread.
  std::atomic<std::uint64_t> rotation_next_{0};

  // Last member: destroyed first, draining in-flight jobs while the
  // channel above still exists.
  std::optional<engine::SchedulingEngine> engine_;
};

}  // namespace relax::server
