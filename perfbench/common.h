// Shared plumbing for the perfbench binary: clock, peak RSS, a tiny JSON
// writer for the one result line each subcommand prints, and the exact
// nearest-rank percentile used for per-layer latency samples.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// VmHWM of this process in MB (its peak resident set), 0 if unreadable.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0.0;
}

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 if empty.
template <typename T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t at = std::clamp<std::size_t>(
      static_cast<std::size_t>(rank), 1, v.size());
  return static_cast<double>(v[at - 1]);
}

/// Builds one flat JSON object: numbers, booleans, strings and number
/// arrays. Keys are trusted (literals in this program).
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  JsonOut& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonOut& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    return raw(key, quoted + "\"");
  }
  JsonOut& list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  /// Prints the object as one line on stdout.
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  JsonOut& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

}  // namespace perfbench
