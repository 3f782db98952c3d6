// Bench-side tracing. Everything here wraps the library from outside: spans
// are opened by the benchmark around its own calls into a layer, and the
// two adaptors count and time what the engine does through a Problem and a
// scheduler handle. Nothing inside src/ is instrumented.
//
//   SpanLog          in-memory spans (name, start, end, parent, id) for the
//                    calls the benchmark's main thread makes; written out
//                    as JSON when the run ends.
//   TracedProblem    forwards try_process; counts outcomes per worker and
//                    samples the call latency.
//   TracedQueue      forwards a scheduler and its per-worker handles,
//                    timing every claim and insert. It exposes every
//                    capability the engine probes for (get_handle, batched
//                    insert/claim, size, num_queues, set_stripe_map, the
//                    handle's set_domain and stripe_stats), so a traced run
//                    takes the same code paths as an untraced one.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/problem.h"
#include "sched/scheduler.h"
#include "sched/stripe_map.h"

namespace perfbench {

struct Span {
  const char* name;  // "<layer>.<call>"
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  int parent;        // index of the enclosing span, -1 at top level
  std::uint64_t id;  // solve id (one per timed repetition)
};

/// Single-threaded span recorder. Disabled logs record nothing, so the
/// untraced runs pay one branch per call site.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t id) : log_(log) {
      if (log_ != nullptr) index_ = log_->open(name, id);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] Scope scope(const char* name, std::uint64_t id = 0) {
    return Scope(enabled_ ? this : nullptr, name, id);
  }

  /// Records a finished span under the innermost open one, for work the
  /// benchmark cannot bracket itself: the engine job inside a one-shot
  /// call, whose duration only the call's own stats report.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t id) {
    if (!enabled_) return;
    spans_.push_back(
        Span{name, start_ns, end_ns, stack_.empty() ? -1 : stack_.back(), id});
  }

  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
          << ", \"id\": " << s.id << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  int open(const char* name, std::uint64_t id) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, id});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Per-thread slots handed out on a thread's first call into an adaptor
/// instance. Keyed by a process-unique instance id, never by address, so a
/// new adaptor allocated where an old one lived cannot inherit its slot.
template <typename Slot>
class ThreadSlots {
 public:
  ThreadSlots() : id_(next_id().fetch_add(1) + 1) {}

  Slot& mine() {
    thread_local std::uint64_t owner = 0;
    thread_local Slot* slot = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> guard(mu_);
      slot = &slots_.emplace_back();
      owner = id_;
    }
    return *slot;
  }

  /// Only call once every thread that touched the adaptor is quiescent.
  [[nodiscard]] const std::deque<Slot>& all() const { return slots_; }

 private:
  static std::atomic<std::uint64_t>& next_id() {
    static std::atomic<std::uint64_t> id{0};
    return id;
  }
  std::uint64_t id_;
  std::mutex mu_;
  std::deque<Slot> slots_;
};

/// Counts try_process outcomes; times every 64th call.
template <typename P>
class TracedProblem {
 public:
  struct alignas(64) Slot {
    std::uint64_t calls = 0;
    std::uint64_t outcomes[3] = {0, 0, 0};  // processed, not ready, retired
    std::vector<std::uint32_t> call_ns;     // sampled
  };

  explicit TracedProblem(P& inner) : inner_(&inner) {}

  [[nodiscard]] std::uint32_t num_tasks() const { return inner_->num_tasks(); }

  relax::core::Outcome try_process(relax::core::Task t) {
    Slot& s = slots_.mine();
    const bool sample = (s.calls++ % kSampleEvery) == 0;
    const std::uint64_t t0 = sample ? now_ns() : 0;
    const relax::core::Outcome o = inner_->try_process(t);
    if (sample) s.call_ns.push_back(static_cast<std::uint32_t>(now_ns() - t0));
    ++s.outcomes[static_cast<int>(o)];
    return o;
  }

  [[nodiscard]] const std::deque<Slot>& slots() const { return slots_.all(); }

  static constexpr std::uint64_t kSampleEvery = 64;

 private:
  P* inner_;
  ThreadSlots<Slot> slots_;
};

/// Scheduler adaptor: one counter slot per handle (each engine worker owns
/// one handle for the job), every claim and insert timed.
template <typename Queue>
class TracedQueue {
  using InnerHandle = decltype(std::declval<Queue&>().get_handle());

 public:
  using Priority = relax::sched::Priority;

  struct alignas(64) Counters {
    std::uint64_t claims = 0;
    std::uint64_t empty_claims = 0;
    std::uint64_t claimed_keys = 0;
    std::uint64_t claim_ns = 0;
    std::uint64_t inserted_keys = 0;
    std::uint64_t insert_ns = 0;
    std::vector<std::uint32_t> claim_latency_ns;  // every claim
  };

  class Handle {
   public:
    Handle(InnerHandle inner, Counters* c) : inner_(std::move(inner)), c_(c) {}

    void insert(Priority p) {
      const std::uint64_t t0 = now_ns();
      inner_.insert(p);
      count_insert(1, t0);
    }
    void bulk_insert(std::span<const Priority> keys) {
      const std::uint64_t t0 = now_ns();
      inner_.bulk_insert(keys);
      count_insert(keys.size(), t0);
    }
    void insert_batch(std::span<const Priority> keys) {
      const std::uint64_t t0 = now_ns();
      inner_.insert_batch(keys);
      count_insert(keys.size(), t0);
    }
    std::optional<Priority> approx_get_min() {
      const std::uint64_t t0 = now_ns();
      const std::optional<Priority> p = inner_.approx_get_min();
      count_claim(p ? 1 : 0, t0);
      return p;
    }
    std::size_t approx_get_min_batch(std::size_t k, std::vector<Priority>& out) {
      const std::uint64_t t0 = now_ns();
      const std::size_t got = inner_.approx_get_min_batch(k, out);
      count_claim(got, t0);
      return got;
    }
    void set_domain(unsigned domain) { inner_.set_domain(domain); }
    [[nodiscard]] relax::sched::StripeStats stripe_stats() const {
      return inner_.stripe_stats();
    }

   private:
    void count_insert(std::size_t keys, std::uint64_t t0) {
      c_->insert_ns += now_ns() - t0;
      c_->inserted_keys += keys;
    }
    void count_claim(std::size_t got, std::uint64_t t0) {
      const std::uint64_t ns = now_ns() - t0;
      c_->claim_ns += ns;
      c_->claim_latency_ns.push_back(static_cast<std::uint32_t>(ns));
      ++c_->claims;
      c_->claimed_keys += got;
      if (got == 0) ++c_->empty_claims;
    }

    InnerHandle inner_;
    Counters* c_;
  };

  explicit TracedQueue(Queue& inner) : inner_(&inner) {}

  Handle get_handle() {
    Counters* c;
    {
      std::lock_guard<std::mutex> guard(mu_);
      c = &counters_.emplace_back();
    }
    return Handle(inner_->get_handle(), c);
  }

  // Queue-level surface the engine and BatchController consult.
  [[nodiscard]] std::size_t size() const { return inner_->size(); }
  [[nodiscard]] std::uint32_t num_queues() const {
    return inner_->num_queues();
  }
  void set_stripe_map(const relax::sched::StripeMap& map) {
    inner_->set_stripe_map(map);
  }

  /// Only call after the run that used the handles has returned.
  [[nodiscard]] const std::deque<Counters>& counters() const {
    return counters_;
  }

 private:
  Queue* inner_;
  std::mutex mu_;
  std::deque<Counters> counters_;
};

}  // namespace perfbench
