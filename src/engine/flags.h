// The one flag vocabulary for the engine knobs every front end exposes.
//
// The paper's experiments sweep a small set of axes — scheduler family,
// relaxation (here the claim batch), threads and placement — and every
// binary (relaxsched, relax_server, the examples, the sweep benches) reads
// them. Each helper below accepts one spelling, prints one canonical error
// to stderr on bad input and returns nullopt (nullptr for a single backend),
// so a front end's whole error path is `return 2`.
//
// Spellings:
//   --pop-batch   <k> | auto | auto:<max>              (list form: a,b,...)
//   --numa        off | auto | virtual:<K>             (list form: a,b,...)
//   --backend     <name>; the servers add "mix" = the whole registry
//   --backends    all | <name>,<name>,...              (sweep benches)
//   --weight      an integer in [min, JobConfig::kMaxWeight]
// List flags are split strictly: an empty value or an empty entry (a
// trailing or doubled comma) is rejected instead of flowing "" onward.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/job.h"
#include "obs/metrics.h"
#include "obs/trace_ring.h"
#include "sched/backend_registry.h"
#include "util/topology.h"

namespace relax::engine::flags {

/// Strict comma split of the list flag --`flag`.
[[nodiscard]] std::optional<std::vector<std::string>> split_axis(
    std::string_view flag, const std::string& value);

/// One --pop-batch value, or a comma list of them.
[[nodiscard]] std::optional<PopBatchFlag> parse_pop_batch(
    const std::string& value);
[[nodiscard]] std::optional<std::vector<PopBatchFlag>> parse_pop_batch_list(
    const std::string& value);

/// One --numa value, or a comma list of them.
[[nodiscard]] std::optional<util::TopologySpec> parse_numa(
    const std::string& value);
[[nodiscard]] std::optional<std::vector<util::TopologySpec>> parse_numa_list(
    const std::string& value);

/// One registry backend by name; nullptr (error printed) when unknown.
[[nodiscard]] const sched::BackendInfo* parse_backend(std::string_view name);

/// A server --backend: "" resolves to no entries (the registry default),
/// "mix" to the whole registry (a rotation), anything else to one backend.
/// This is exactly the shape of server::ServerOptions::backends.
[[nodiscard]] std::optional<std::vector<const sched::BackendInfo*>>
resolve_backends(const std::string& value);

/// A bench --backends list: "all" or comma-separated registry names.
[[nodiscard]] std::optional<std::vector<const sched::BackendInfo*>>
parse_backend_list(const std::string& value);

/// A QoS weight flag (--weight, --default-weight, --weights entries):
/// an integer in [min, JobConfig::kMaxWeight].
[[nodiscard]] std::optional<std::uint32_t> parse_weight(
    std::string_view flag, const std::string& value, std::uint32_t min = 1);

/// Writes the registry snapshot to `path`: '-' = stdout, a path ending in
/// .json gets JSON, anything else Prometheus text. Empty path is a no-op.
/// Returns false (with a stderr warning) when the file cannot be written.
bool dump_metrics(const obs::MetricsRegistry& registry,
                  const std::string& path);

/// Writes the ring as Chrome trace-event JSON to `path` ('-' = stdout).
/// Empty path is a no-op; false (with a stderr warning) on write failure.
bool dump_trace(const obs::TraceRing& ring, const std::string& path);

}  // namespace relax::engine::flags
