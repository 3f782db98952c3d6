#include "engine/flags.h"

#include <charconv>
#include <cstdio>

#include "util/cli.h"

namespace relax::engine::flags {
namespace {

/// Splits --`flag` and parses every entry with `parse`; nullopt when the
/// split or any entry fails (each has already printed its error).
template <typename Parse>
auto parse_list(std::string_view flag, const std::string& value,
                Parse parse) {
  using T = typename decltype(parse(value))::value_type;
  std::optional<std::vector<T>> out;
  const auto tokens = split_axis(flag, value);
  if (!tokens) return out;
  out.emplace();
  for (const std::string& token : *tokens) {
    auto parsed = parse(token);
    if (!parsed) return decltype(out){};
    out->push_back(std::move(*parsed));
  }
  return out;
}

/// `registry_word` is the caller's spelling for the whole registry ("mix",
/// "all"), listed first among the valid values; nullptr when it has none.
const sched::BackendInfo* lookup_backend(std::string_view name,
                                         const char* registry_word) {
  if (const auto* info = sched::find_backend(name)) return info;
  std::fprintf(stderr, "error: unknown backend '%.*s'; valid: %s%s%s\n",
               static_cast<int>(name.size()), name.data(),
               registry_word != nullptr ? registry_word : "",
               registry_word != nullptr ? ", " : "",
               sched::backend_names().c_str());
  return nullptr;
}

std::vector<const sched::BackendInfo*> whole_registry() {
  std::vector<const sched::BackendInfo*> out;
  for (const auto& info : sched::backend_registry()) out.push_back(&info);
  return out;
}

}  // namespace

std::optional<std::vector<std::string>> split_axis(std::string_view flag,
                                                   const std::string& value) {
  auto tokens = util::split_csv(value);
  if (!tokens) {
    std::fprintf(stderr,
                 "error: invalid --%.*s '%s': empty value or empty list "
                 "entry (trailing/doubled comma?)\n",
                 static_cast<int>(flag.size()), flag.data(), value.c_str());
  }
  return tokens;
}

std::optional<PopBatchFlag> parse_pop_batch(const std::string& value) {
  const auto pb = parse_pop_batch_flag(value);
  if (!pb.valid) {
    std::fprintf(stderr,
                 "error: invalid --pop-batch '%s': expected a positive "
                 "integer, 'auto', or 'auto:<max>'\n",
                 value.c_str());
    return std::nullopt;
  }
  return pb;
}

std::optional<std::vector<PopBatchFlag>> parse_pop_batch_list(
    const std::string& value) {
  return parse_list("pop-batch", value, parse_pop_batch);
}

std::optional<util::TopologySpec> parse_numa(const std::string& value) {
  const auto spec = util::TopologySpec::parse(value);
  if (!spec) {
    std::fprintf(stderr,
                 "error: invalid --numa '%s': expected 'off', 'auto', or "
                 "'virtual:<K>' with K >= 1\n",
                 value.c_str());
  }
  return spec;
}

std::optional<std::vector<util::TopologySpec>> parse_numa_list(
    const std::string& value) {
  return parse_list("numa", value, parse_numa);
}

const sched::BackendInfo* parse_backend(std::string_view name) {
  return lookup_backend(name, nullptr);
}

std::optional<std::vector<const sched::BackendInfo*>> resolve_backends(
    const std::string& value) {
  if (value.empty()) return std::vector<const sched::BackendInfo*>{};
  if (value == "mix") return whole_registry();
  const auto* info = lookup_backend(value, "mix");
  if (info == nullptr) return std::nullopt;
  return std::vector<const sched::BackendInfo*>{info};
}

std::optional<std::vector<const sched::BackendInfo*>> parse_backend_list(
    const std::string& value) {
  if (value == "all") return whole_registry();
  return parse_list("backends", value, [](const std::string& name) {
    const auto* info = lookup_backend(name, "all");
    return info != nullptr ? std::optional(info) : std::nullopt;
  });
}

std::optional<std::uint32_t> parse_weight(std::string_view flag,
                                          const std::string& value,
                                          std::uint32_t min) {
  std::uint32_t weight = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, weight);
  if (ec != std::errc{} || ptr != end || weight < min ||
      weight > JobConfig::kMaxWeight) {
    std::fprintf(stderr,
                 "error: invalid --%.*s '%s': expected an integer in "
                 "[%u, %u]\n",
                 static_cast<int>(flag.size()), flag.data(), value.c_str(),
                 min, JobConfig::kMaxWeight);
    return std::nullopt;
  }
  return weight;
}

bool dump_metrics(const obs::MetricsRegistry& registry,
                  const std::string& path) {
  if (path.empty()) return true;
  const bool json = path.ends_with(".json");
  const std::string text =
      json ? registry.to_json() : registry.to_prometheus();
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);
    return true;
  }
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("metrics written to %s\n", path.c_str());
    return true;
  }
  std::fprintf(stderr, "warning: cannot write '%s'\n", path.c_str());
  return false;
}

bool dump_trace(const obs::TraceRing& ring, const std::string& path) {
  if (path.empty()) return true;
  if (path == "-") {
    const std::string text = ring.to_chrome_json();
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);
    return true;
  }
  if (ring.write_chrome_json(path)) return true;
  std::fprintf(stderr, "warning: cannot write trace '%s'\n", path.c_str());
  return false;
}

}  // namespace relax::engine::flags
