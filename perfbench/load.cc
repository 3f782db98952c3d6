// Open-loop load window against relax_server.
//
// Request i is due at start + i / rate whatever happened to earlier ones,
// and its latency is timed from that due time, so a stalled sender or a
// full socket shows up as latency instead of silently lowering the offered
// load. Requests rotate MIS, coloring and matching over every resident
// graph id in a seed-shuffled order, spread over two sockets.
// One sender thread (this one) and one receiver thread polling every
// socket drive the whole window.
//
// Every OK response is checked: its `processed` count must equal the size
// of the sequential solution for its (graph id, kind). The resident graphs
// are regenerated here exactly as the server builds them (graph i from
// seed i+1, vertex priorities from i+2, edge priorities from i+3).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "algorithms/coloring.h"
#include "algorithms/matching.h"
#include "algorithms/mis.h"
#include "common.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "perfbench.h"
#include "server/protocol.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace protocol = relax::server::protocol;
using namespace relax;

constexpr unsigned kKinds = 3;  // MIS, coloring, matching
constexpr unsigned kConnections = 2;
// relax_server's default resident-graph size (--graph-n / --graph-m).
constexpr std::uint32_t kGraphN = 4000;
constexpr std::uint64_t kGraphM = 24000;

struct Expected {
  std::vector<std::array<std::uint64_t, kKinds>> processed;  // [graph][kind]
  double gen_s = 0.0;
  double priorities_s = 0.0;
};

/// Sequential solution sizes for every resident graph and request kind.
Expected expected_sizes(const LoadConfig& c) {
  Expected e;
  for (unsigned i = 0; i < c.graphs; ++i) {
    const std::uint64_t seed = i + 1;
    std::uint64_t t0 = now_ns();
    const graph::Graph g = graph::gnm(kGraphN, kGraphM, seed);
    e.gen_s += static_cast<double>(now_ns() - t0) / 1e9;
    t0 = now_ns();
    const graph::Priorities vpri = graph::random_priorities(kGraphN, seed + 1);
    e.priorities_s += static_cast<double>(now_ns() - t0) / 1e9;
    const algorithms::EdgeIncidence inc(g);
    t0 = now_ns();
    const graph::Priorities epri =
        graph::random_priorities(inc.num_edges(), seed + 2);
    e.priorities_s += static_cast<double>(now_ns() - t0) / 1e9;

    const auto mis = algorithms::sequential_greedy_mis(g, vpri);
    const auto colors = algorithms::sequential_greedy_coloring(g, vpri);
    const auto matched = algorithms::sequential_greedy_matching(inc, epri);
    e.processed.push_back(
        {static_cast<std::uint64_t>(std::count(mis.begin(), mis.end(), 1)),
         static_cast<std::uint64_t>(colors.size()),
         static_cast<std::uint64_t>(
             std::count(matched.begin(), matched.end(), 1))});
  }
  return e;
}

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

enum class Result : std::uint8_t { kPending, kOk, kBusy, kError, kWrong };

struct Slot {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;
  std::uint32_t graph = 0;
  std::uint8_t kind = 0;
  Result result = Result::kPending;
};

/// Reads responses from every socket until all requests are answered or
/// `stop` is set, resolving them by id (id = slot index + 1). With
/// quick_ack every response is acknowledged at once. relax_server leaves
/// Nagle's algorithm on for its sockets, so against a client that delays
/// its ACKs a response can wait for that client's next request on the same
/// connection; quick ACKs keep that interaction out of the measurement.
void receive(std::vector<int>& fds, std::vector<Slot>& slots,
             const Expected& expected, bool quick_ack, std::atomic<bool>& stop,
             std::atomic<std::size_t>& answered) {
  std::vector<protocol::FrameReader> readers(fds.size());
  std::vector<pollfd> pfds;
  for (const int fd : fds) pfds.push_back(pollfd{fd, POLLIN, 0});
  std::uint8_t buf[1 << 14];
  while (!stop.load(std::memory_order_acquire) &&
         answered.load(std::memory_order_relaxed) < slots.size()) {
    if (::poll(pfds.data(), pfds.size(), 20) <= 0) continue;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t r = ::read(pfds[i].fd, buf, sizeof buf);
      if (r <= 0) {
        if (r < 0 && errno == EINTR) continue;
        pfds[i].fd = -1;  // closed: its outstanding requests stay dropped
        continue;
      }
      const std::uint64_t now = now_ns();
      if (quick_ack) {
        // Linux drops back to delayed ACKs on its own; re-arm per read.
        const int one = 1;
        ::setsockopt(pfds[i].fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
      }
      readers[i].feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(r)));
      while (auto payload = readers[i].next()) {
        const auto resp =
            protocol::decode_response(std::span<const std::uint8_t>(*payload));
        if (!resp || resp->id == 0 || resp->id > slots.size()) continue;
        Slot& s = slots[resp->id - 1];
        if (s.result != Result::kPending) continue;
        s.done_ns = now;
        switch (resp->status) {
          case protocol::Status::kOk:
            s.result = resp->processed == expected.processed[s.graph][s.kind]
                           ? Result::kOk
                           : Result::kWrong;
            break;
          case protocol::Status::kBusy:
            s.result = Result::kBusy;
            break;
          case protocol::Status::kError:
            s.result = Result::kError;
            break;
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace

int run_load(const LoadConfig& c) {
  const Expected expected = expected_sizes(c);

  std::vector<int> fds;
  for (unsigned i = 0; i < kConnections; ++i) {
    const int fd = dial(c.port);
    if (fd < 0) {
      std::fprintf(stderr, "perfbench load: cannot connect to port %u\n",
                   static_cast<unsigned>(c.port));
      for (const int open : fds) ::close(open);
      return 1;
    }
    fds.push_back(fd);
  }

  // Schedule: kinds and graph ids cycle through a seed-shuffled order of all
  // (graph, kind) pairs, so every window spreads over every resident graph.
  const std::size_t total =
      static_cast<std::size_t>((c.warmup + c.seconds) * c.rate);
  const std::size_t warm = static_cast<std::size_t>(c.warmup * c.rate);
  util::Rng rng(c.seed);
  std::vector<std::uint32_t> pairs(c.graphs * kKinds);
  std::iota(pairs.begin(), pairs.end(), 0u);
  std::vector<Slot> slots(total);
  std::vector<std::uint64_t> job_seeds(total);
  for (std::size_t i = 0; i < total; ++i) {
    if (i % pairs.size() == 0) {
      for (std::size_t j = pairs.size(); j > 1; --j)
        std::swap(pairs[j - 1], pairs[rng() % j]);
    }
    const std::uint32_t pair = pairs[i % pairs.size()];
    slots[i].graph = pair / kKinds;
    slots[i].kind = static_cast<std::uint8_t>(pair % kKinds);
    job_seeds[i] = rng() | 1;
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> answered{0};
  std::thread receiver(receive, std::ref(fds), std::ref(slots),
                       std::cref(expected), c.quick_ack, std::ref(stop),
                       std::ref(answered));

  const double interval_ns = 1e9 / c.rate;
  const std::uint64_t start = now_ns() + 2'000'000;  // 2 ms to settle
  std::vector<std::uint8_t> wire;
  std::size_t send_failures = 0;
  for (std::size_t i = 0; i < total; ++i) {
    Slot& s = slots[i];
    s.due_ns = start + static_cast<std::uint64_t>(static_cast<double>(i) *
                                                  interval_ns);
    const std::uint64_t now = now_ns();
    if (now < s.due_ns)
      std::this_thread::sleep_for(std::chrono::nanoseconds(s.due_ns - now));
    protocol::Request req;
    req.id = i + 1;
    req.kind = static_cast<protocol::Kind>(s.kind);
    req.graph_id = s.graph;
    req.seed = job_seeds[i];
    wire.clear();
    protocol::encode(req, wire);
    s.sent_ns = now_ns();
    if (!send_all(fds[i % fds.size()], wire)) ++send_failures;
  }
  const std::uint64_t give_up =
      slots.empty() ? now_ns()
                    : slots.back().due_ns +
                          static_cast<std::uint64_t>(c.drain * 1e9);
  while (answered.load(std::memory_order_relaxed) < total &&
         now_ns() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  stop.store(true, std::memory_order_release);
  receiver.join();
  for (const int fd : fds) ::close(fd);

  // Measured window: requests due after the warm-up. Latency is due-time
  // based; a request that was refused, failed, wrong or never answered is
  // reported as -1 (missing any limit).
  std::vector<double> lat_ms;
  std::uint64_t ok = 0, busy = 0, error = 0, wrong = 0, dropped = 0;
  double gen_lag_ms_max = 0.0;
  for (std::size_t i = warm; i < total; ++i) {
    const Slot& s = slots[i];
    gen_lag_ms_max = std::max(
        gen_lag_ms_max, static_cast<double>(s.sent_ns - s.due_ns) / 1e6);
    switch (s.result) {
      case Result::kOk: ++ok; break;
      case Result::kBusy: ++busy; break;
      case Result::kError: ++error; break;
      case Result::kWrong: ++wrong; break;
      case Result::kPending: ++dropped; break;
    }
    lat_ms.push_back(s.result == Result::kOk
                         ? static_cast<double>(s.done_ns - s.due_ns) / 1e6
                         : -1.0);
  }
  for (std::size_t i = 0; i < warm; ++i)
    if (slots[i].result == Result::kWrong) ++wrong;

  if (!c.spans_path.empty()) {
    // Not recorded live (the sender must not pay for it): rebuilt here
    // from the per-request timestamps, one span per answered request.
    std::FILE* f = std::fopen(c.spans_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "[\n");
      for (std::size_t i = 0; i < total; ++i) {
        const Slot& s = slots[i];
        std::fprintf(f,
                     "  {\"name\": \"server.request\", \"start_ns\": %llu, "
                     "\"end_ns\": %llu, \"parent\": -1, \"id\": %zu, "
                     "\"sent_ns\": %llu}%s\n",
                     static_cast<unsigned long long>(s.due_ns),
                     static_cast<unsigned long long>(
                         s.done_ns != 0 ? s.done_ns : s.due_ns),
                     i + 1, static_cast<unsigned long long>(s.sent_ns),
                     i + 1 < total ? "," : "");
      }
      std::fprintf(f, "]\n");
      std::fclose(f);
    }
  }

  JsonOut out;
  out.list("lat_ms", lat_ms)
      .num("ok", static_cast<double>(ok))
      .num("busy", static_cast<double>(busy))
      .num("error", static_cast<double>(error))
      .num("wrong", static_cast<double>(wrong))
      .num("dropped", static_cast<double>(dropped))
      .num("send_failures", static_cast<double>(send_failures))
      .num("gen_lag_ms_max", gen_lag_ms_max)
      .num("graph_gen_s", expected.gen_s)
      .num("graph_priorities_s", expected.priorities_s);
  out.print();
  return 0;
}

}  // namespace perfbench
