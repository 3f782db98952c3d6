// Open-loop load client for relax_server (src/server/).
//
// Drives the wire protocol (docs/PROTOCOL.md) at a fixed *offered* rate:
// requests are sent on schedule whether or not earlier ones have completed
// — the open-loop discipline that exposes queueing delay instead of hiding
// it behind client-side backpressure (a closed-loop client slows down
// exactly when the server is saturated, which is when you most want the
// latency numbers). Responses are correlated by request id and end-to-end
// latency is recorded send-to-receive, including BUSY rejections in their
// own bucket.
//
// Output: sent / ok / busy / error counts and p50/p95/p99/max end-to-end
// latency over the OK responses. Exits nonzero if any request never got a
// response (a dropped request is a server bug — BUSY is the only sanctioned
// shed path) or if the server connection failed.
//
// Usage: bench_server_load --port=<p> [--host=127.0.0.1]
//          [--connections=4] [--rate=200] [--time-ms=2000]
//          [--kind=mis|coloring|matching|mix] [--backend=<name>]
//          [--pop-batch=<k>|auto[:max]] [--audit-every=0] [--seed=1]
//          [--drain-ms=2000] [--weights=a,b,c]
//
// --weights assigns QoS weights per *connection* (connection i takes
// weights[i % len]), so one invocation can offer a weighted tenant mix and
// report ok-counts and latency split per weight class — the client-side
// view of the server's QosGovernor (docs/ARCHITECTURE.md, Multi-tenant
// QoS).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/flags.h"
#include "obs/histogram.h"
#include "server/protocol.h"
#include "util/cli.h"

namespace {

namespace flags = relax::engine::flags;
namespace protocol = relax::server::protocol;
using Clock = std::chrono::steady_clock;

[[noreturn]] void usage_and_exit(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: bench_server_load --port=<p> [flags]\n"
      "\n"
      "  --host=<addr>            server address (default 127.0.0.1)\n"
      "  --port=<p>               server port (required)\n"
      "  --connections=<n>        parallel connections; the offered load\n"
      "                           is spread round-robin (default 4)\n"
      "  --rate=<r>               offered requests/second across all\n"
      "                           connections; open-loop — sends stay on\n"
      "                           schedule under saturation (default 200)\n"
      "  --time-ms=<t>            send window length (default 2000)\n"
      "  --kind=mis|coloring|matching|mix\n"
      "                           problem family per request; mix rotates\n"
      "                           (default mix)\n"
      "  --backend=<name>         scheduler backend each request names\n"
      "                           ('' = server default)\n"
      "  --pop-batch=<k>|auto[:max]\n"
      "                           per-request pop batch; 'auto' requests\n"
      "                           the adaptive controller (default:\n"
      "                           server default)\n"
      "  --audit-every=<k>        every k-th request runs under the\n"
      "                           Definition 1 relaxation monitor\n"
      "                           (0 = never; default 0)\n"
      "  --weights=<a,b,...>      QoS weight per connection (connection i\n"
      "                           takes entry i mod len); 0 = server\n"
      "                           default weight. With more than one\n"
      "                           distinct weight the report splits ok\n"
      "                           counts and latency per weight class\n"
      "                           (default 0)\n"
      "  --seed=<s>               base scheduler seed (default 1)\n"
      "  --drain-ms=<t>           wait for stragglers after the send\n"
      "                           window before declaring drops\n"
      "                           (default 2000)\n"
      "  --help                   this text\n");
  std::exit(error != nullptr ? 2 : 0);
}

/// Per-weight-class slice of the results (tenant view of QoS fairness).
struct WeightBucket {
  std::uint32_t weight = 0;  // 0 = server default
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> busy{0};
  std::mutex hist_mu;
  relax::obs::Histogram ok_latency_ns;
};

/// One TCP connection plus the in-flight map its receiver thread resolves.
struct Conn {
  int fd = -1;
  std::uint32_t weight = 0;        // QoS weight every request carries
  WeightBucket* bucket = nullptr;  // shared per-weight results slice
  std::mutex mu;
  std::unordered_map<std::uint64_t, Clock::time_point> sent_at;
  std::thread receiver;
};

struct Totals {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> busy{0};
  std::atomic<std::uint64_t> error{0};
  std::mutex hist_mu;
  relax::obs::Histogram ok_latency_ns;
};

int dial(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t w = ::write(fd, data + off, len - off);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Receiver: reassemble frames, match ids to send timestamps, classify.
void receive_loop(Conn& conn, Totals& totals) {
  protocol::FrameReader reader;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t r = ::read(conn.fd, buf, sizeof(buf));
    if (r == 0) return;  // server closed (shutdown or slow-reader cap)
    if (r < 0) {
      if (errno == EINTR) continue;
      return;
    }
    reader.feed(
        std::span<const std::uint8_t>(buf, static_cast<std::size_t>(r)));
    if (reader.corrupt()) return;
    while (auto payload = reader.next()) {
      const auto resp =
          protocol::decode_response(std::span<const std::uint8_t>(*payload));
      if (!resp) {
        totals.error.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Clock::time_point sent;
      bool known = false;
      {
        std::lock_guard<std::mutex> guard(conn.mu);
        auto it = conn.sent_at.find(resp->id);
        if (it != conn.sent_at.end()) {
          sent = it->second;
          conn.sent_at.erase(it);
          known = true;
        }
      }
      switch (resp->status) {
        case protocol::Status::kOk: {
          totals.ok.fetch_add(1, std::memory_order_relaxed);
          if (conn.bucket != nullptr)
            conn.bucket->ok.fetch_add(1, std::memory_order_relaxed);
          if (known) {
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - sent)
                    .count();
            {
              std::lock_guard<std::mutex> guard(totals.hist_mu);
              totals.ok_latency_ns.record(static_cast<std::uint64_t>(ns));
            }
            if (conn.bucket != nullptr) {
              std::lock_guard<std::mutex> guard(conn.bucket->hist_mu);
              conn.bucket->ok_latency_ns.record(
                  static_cast<std::uint64_t>(ns));
            }
          }
          break;
        }
        case protocol::Status::kBusy:
          totals.busy.fetch_add(1, std::memory_order_relaxed);
          if (conn.bucket != nullptr)
            conn.bucket->busy.fetch_add(1, std::memory_order_relaxed);
          break;
        case protocol::Status::kError:
          totals.error.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const relax::util::CommandLine cli(argc, argv);
  if (cli.has("help")) usage_and_exit(nullptr);
  if (!cli.has("port")) usage_and_exit("--port is required");

  const std::string host = cli.get_string("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  const auto connections = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("connections", 4)));
  const double rate = cli.get_double("rate", 200.0);
  if (rate <= 0.0) usage_and_exit("--rate must be positive");
  const auto time_ms =
      std::max<std::int64_t>(1, cli.get_int("time-ms", 2000));
  const auto drain_ms =
      std::max<std::int64_t>(0, cli.get_int("drain-ms", 2000));
  const auto audit_every =
      std::max<std::int64_t>(0, cli.get_int("audit-every", 0));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string backend = cli.get_string("backend", "");

  const std::string kind_flag = cli.get_string("kind", "mix");
  std::vector<protocol::Kind> kinds;
  if (kind_flag == "mis") {
    kinds = {protocol::Kind::kMis};
  } else if (kind_flag == "coloring") {
    kinds = {protocol::Kind::kColoring};
  } else if (kind_flag == "matching") {
    kinds = {protocol::Kind::kMatching};
  } else if (kind_flag == "mix") {
    kinds = {protocol::Kind::kMis, protocol::Kind::kColoring,
             protocol::Kind::kMatching};
  } else {
    usage_and_exit("unknown --kind (mis|coloring|matching|mix)");
  }

  std::uint32_t pop_batch = 0;
  bool pop_batch_auto = false;
  if (cli.has("pop-batch")) {
    const auto pb = flags::parse_pop_batch(cli.get_string("pop-batch", "1"));
    if (!pb) return 2;
    pop_batch = pb->batch;
    pop_batch_auto = pb->adaptive;
  }

  std::vector<std::uint32_t> weights{0};
  if (cli.has("weights")) {
    const auto tokens =
        flags::split_axis("weights", cli.get_string("weights", "0"));
    if (!tokens) return 2;
    weights.clear();
    for (const std::string& token : *tokens) {
      const auto w = flags::parse_weight("weights", token, /*min=*/0);
      if (!w) return 2;
      weights.push_back(*w);
    }
  }
  // One result bucket per *distinct* weight, shared by every connection of
  // that class, so the report reads as tenants rather than sockets.
  std::vector<std::unique_ptr<WeightBucket>> buckets;
  auto bucket_for = [&buckets](std::uint32_t w) -> WeightBucket* {
    for (auto& b : buckets)
      if (b->weight == w) return b.get();
    buckets.push_back(std::make_unique<WeightBucket>());
    buckets.back()->weight = w;
    return buckets.back().get();
  };

  std::vector<std::unique_ptr<Conn>> conns;
  Totals totals;
  for (std::size_t i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->weight = weights[i % weights.size()];
    conn->bucket = bucket_for(conn->weight);
    conn->fd = dial(host, port);
    if (conn->fd < 0) {
      std::fprintf(stderr, "error: cannot connect to %s:%u: %s\n",
                   host.c_str(), static_cast<unsigned>(port),
                   std::strerror(errno));
      return 1;
    }
    conn->receiver = std::thread(
        [&totals, raw = conn.get()] { receive_loop(*raw, totals); });
    conns.push_back(std::move(conn));
  }

  // Open-loop send schedule: request i is due at start + i/rate,
  // regardless of completions. Falling behind the schedule (send_all
  // blocking on a full socket) is itself reported: offered vs achieved.
  const auto start = Clock::now();
  const auto window = std::chrono::milliseconds(time_ms);
  std::uint64_t sent = 0;
  std::uint64_t send_failures = 0;
  std::vector<std::uint8_t> wire;
  while (Clock::now() - start < window) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(sent) / rate));
    std::this_thread::sleep_until(due);
    if (Clock::now() - start >= window) break;

    protocol::Request req;
    req.id = sent + 1;  // ids start at 1; 0 is the server's "no id" reply
    req.kind = kinds[static_cast<std::size_t>(sent) % kinds.size()];
    req.graph_id = 0;
    req.pop_batch = pop_batch;
    req.pop_batch_auto = pop_batch_auto;
    req.audit = audit_every > 0 &&
                (sent % static_cast<std::uint64_t>(audit_every)) == 0;
    req.seed = seed + sent;
    req.backend = backend;

    Conn& conn = *conns[static_cast<std::size_t>(sent) % conns.size()];
    req.weight = conn.weight;
    {
      std::lock_guard<std::mutex> guard(conn.mu);
      conn.sent_at.emplace(req.id, Clock::now());
    }
    wire.clear();
    protocol::encode(req, wire);
    if (!send_all(conn.fd, wire.data(), wire.size())) {
      std::lock_guard<std::mutex> guard(conn.mu);
      conn.sent_at.erase(req.id);
      ++send_failures;
    }
    ++sent;
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Drain: give stragglers a grace window, then half-close to stop the
  // receivers and count what never came back.
  const auto drain_deadline =
      Clock::now() + std::chrono::milliseconds(drain_ms);
  for (auto& conn : conns) {
    for (;;) {
      {
        std::lock_guard<std::mutex> guard(conn->mu);
        if (conn->sent_at.empty()) break;
      }
      if (Clock::now() >= drain_deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  std::uint64_t dropped = 0;
  for (auto& conn : conns) {
    ::shutdown(conn->fd, SHUT_RDWR);
    conn->receiver.join();
    ::close(conn->fd);
    std::lock_guard<std::mutex> guard(conn->mu);
    dropped += conn->sent_at.size();
  }

  const std::uint64_t ok = totals.ok.load();
  const std::uint64_t busy = totals.busy.load();
  const std::uint64_t error = totals.error.load();
  std::printf(
      "server_load: %s:%u  offered %.0f req/s over %lld ms on %zu "
      "connections\n",
      host.c_str(), static_cast<unsigned>(port), rate,
      static_cast<long long>(time_ms), conns.size());
  std::printf(
      "  sent=%llu (%.1f req/s achieved)  ok=%llu busy=%llu error=%llu "
      "send-failures=%llu dropped=%llu\n",
      static_cast<unsigned long long>(sent),
      elapsed > 0.0 ? static_cast<double>(sent) / elapsed : 0.0,
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(busy),
      static_cast<unsigned long long>(error),
      static_cast<unsigned long long>(send_failures),
      static_cast<unsigned long long>(dropped));
  if (ok > 0) {
    std::printf(
        "  latency p50=%.2f ms  p95=%.2f ms  p99=%.2f ms  max=%.2f ms\n",
        totals.ok_latency_ns.percentile(50) / 1e6,
        totals.ok_latency_ns.percentile(95) / 1e6,
        totals.ok_latency_ns.percentile(99) / 1e6,
        static_cast<double>(totals.ok_latency_ns.max()) / 1e6);
  }
  // Per-weight split: the tenant-side fairness readout. Shares of the OK
  // total should track the weight ratio when the server pool saturates.
  if (buckets.size() > 1) {
    for (const auto& b : buckets) {
      const std::uint64_t b_ok = b->ok.load();
      const double share =
          ok > 0 ? 100.0 * static_cast<double>(b_ok) /
                       static_cast<double>(ok)
                 : 0.0;
      char wlabel[16];
      if (b->weight == 0)
        std::snprintf(wlabel, sizeof(wlabel), "default");
      else
        std::snprintf(wlabel, sizeof(wlabel), "%u", b->weight);
      std::printf(
          "  weight=%s: ok=%llu (%.1f%% of ok) busy=%llu  "
          "p50=%.2f ms p99=%.2f ms\n",
          wlabel, static_cast<unsigned long long>(b_ok), share,
          static_cast<unsigned long long>(b->busy.load()),
          b_ok > 0 ? b->ok_latency_ns.percentile(50) / 1e6 : 0.0,
          b_ok > 0 ? b->ok_latency_ns.percentile(99) / 1e6 : 0.0);
    }
  }
  // Drops are the one unacceptable outcome: every admitted-or-shed request
  // owes a response. BUSY under saturation is expected; silence is a bug.
  if (dropped > 0) {
    std::fprintf(stderr, "error: %llu requests got no response\n",
                 static_cast<unsigned long long>(dropped));
    return 1;
  }
  return 0;
}
