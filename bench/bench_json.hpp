// Machine-readable bench reporting: every bench_* binary prints its
// human-readable tables as before, then emits ONE JSON object on stdout
// (last line, marker-free) of the shape
//
//   {"bench":"<name>","results":[
//     {"name":"...","iterations":N,"ns_per_op":X,"ops_per_sec":Y,
//      "extra":{"key":value,...}}, ...]}
//
// so the BENCH_*.json trajectory can be scraped with `tail -1 | jq`.
// measure_ns() is a self-calibrating wall-clock loop for micro-benches.
// Smoke mode (--smoke flag or NNFV_BENCH_SMOKE=1) runs every measurement
// with a tiny budget so CI can execute all bench binaries in seconds and
// validate their JSON output shape; timings are meaningless there, so
// perf acceptance gates must be skipped (see gates_enabled()).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace nnfv::bench {

namespace detail {
inline bool& smoke_flag() {
  static bool smoke = []() {
    const char* env = std::getenv("NNFV_BENCH_SMOKE");
    return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
  }();
  return smoke;
}
inline std::string& mode_flag() {
  static std::string mode;
  return mode;
}
}  // namespace detail

/// True when the bench should run with a tiny iteration budget.
inline bool smoke_mode() { return detail::smoke_flag(); }

/// The --mode=<value> flag, or "" when absent. Benches that distinguish
/// workload variants (e.g. bench_table1_ipsec --mode=gcm|cbc) read this;
/// others ignore it.
inline const std::string& mode() { return detail::mode_flag(); }

/// Call first in main(): enables smoke mode on --smoke (the env var
/// NNFV_BENCH_SMOKE=1 works without touching argv) and captures
/// --mode=<value>.
inline void parse_cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) detail::smoke_flag() = true;
    if (std::strncmp(argv[i], "--mode=", 7) == 0) {
      detail::mode_flag() = argv[i] + 7;
    }
  }
}

/// False when timings cannot be trusted: smoke runs, or benches built
/// against an unoptimised nnfv library (CMake defines
/// NNFV_BENCH_UNOPTIMIZED then). Perf acceptance gates must return
/// success without judging in that case.
inline bool gates_enabled() {
#ifdef NNFV_BENCH_UNOPTIMIZED
  return false;
#else
  return !smoke_mode();
#endif
}

struct BenchResult {
  std::string name;
  std::uint64_t iterations = 0;
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
  std::vector<std::pair<std::string, double>> extra;
};

class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {
    if (smoke_mode()) flags_.emplace_back("smoke");
#ifdef NNFV_BENCH_UNOPTIMIZED
    // The nnfv library this bench links was built without optimisation
    // (CMake warned at configure time); poison the JSON so tooling
    // (scripts/check_bench_json.py, CI) rejects the numbers.
    flags_.emplace_back("unoptimized");
    std::fprintf(stderr,
                 "%s: WARNING: built against an unoptimised nnfv library; "
                 "numbers are not meaningful\n",
                 bench_name_.c_str());
#endif
  }

  /// Flags the run's figures as outputs of the service-time model in
  /// simulated time ("modelled": true), not wall-clock measurements.
  void mark_modelled() { flags_.emplace_back("modelled"); }

  /// Adds a top-level string field, e.g. set_field("backend", "aesni").
  void set_field(const std::string& key, const std::string& value) {
    string_fields_.emplace_back(key, value);
  }

  /// Adds a top-level numeric field, e.g. set_num_field("cpus", 4) —
  /// hardware facts that baseline _requires_* conditions match against.
  void set_num_field(const std::string& key, double value) {
    num_fields_.emplace_back(key, value);
  }

  BenchResult& add(const std::string& name, std::uint64_t iterations,
                   double ns_per_op) {
    BenchResult result;
    result.name = name;
    result.iterations = iterations;
    result.ns_per_op = ns_per_op;
    result.ops_per_sec = ns_per_op > 0.0 ? 1e9 / ns_per_op : 0.0;
    results_.push_back(std::move(result));
    return results_.back();
  }

  /// For benches whose headline metric is not a latency (goodput, counts):
  /// records the metric under `extra` with ns_per_op = 0.
  BenchResult& add_metric(const std::string& name, const std::string& key,
                          double value) {
    BenchResult& result = add(name, 0, 0.0);
    result.extra.emplace_back(key, value);
    return result;
  }

  void emit(std::FILE* out = stdout) const {
    std::fprintf(out, "{\"bench\":\"%s\"", bench_name_.c_str());
    for (const auto& [key, value] : string_fields_) {
      std::fprintf(out, ",\"%s\":\"%s\"", key.c_str(), value.c_str());
    }
    for (const auto& [key, value] : num_fields_) {
      std::fprintf(out, ",\"%s\":%.6g", key.c_str(), value);
    }
    for (const std::string& flag : flags_) {
      std::fprintf(out, ",\"%s\":true", flag.c_str());
    }
    std::fprintf(out, ",\"results\":[");
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const BenchResult& r = results_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"iterations\":%llu,"
                   "\"ns_per_op\":%.6g,\"ops_per_sec\":%.6g",
                   i == 0 ? "" : ",", r.name.c_str(),
                   static_cast<unsigned long long>(r.iterations), r.ns_per_op,
                   r.ops_per_sec);
      if (!r.extra.empty()) {
        std::fprintf(out, ",\"extra\":{");
        for (std::size_t j = 0; j < r.extra.size(); ++j) {
          std::fprintf(out, "%s\"%s\":%.6g", j == 0 ? "" : ",",
                       r.extra[j].first.c_str(), r.extra[j].second);
        }
        std::fprintf(out, "}");
      }
      std::fprintf(out, "}");
    }
    std::fprintf(out, "]}\n");
  }

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string, std::string>> string_fields_;
  std::vector<std::pair<std::string, double>> num_fields_;
  std::vector<std::string> flags_;
  // deque: references returned by add()/add_metric() stay valid across
  // later add() calls (a vector would invalidate them on reallocation).
  std::deque<BenchResult> results_;
};

/// Wall-clock ns per call of `fn`, self-calibrated to run ~`min_ms` total
/// (default 100 ms, or ~1 ms in smoke mode). Returns {ns_per_op,
/// iterations}.
template <typename F>
inline std::pair<double, std::uint64_t> measure_ns(F&& fn,
                                                   double min_ms = -1.0) {
  if (min_ms < 0.0) min_ms = smoke_mode() ? 1.0 : 100.0;
  using Clock = std::chrono::steady_clock;
  std::uint64_t iters = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (elapsed_ms >= min_ms || iters > (1ULL << 30)) {
      return {elapsed_ms * 1e6 / static_cast<double>(iters), iters};
    }
    const double scale =
        elapsed_ms > 0.0 ? (min_ms * 1.2) / elapsed_ms : 1000.0;
    iters = static_cast<std::uint64_t>(
        static_cast<double>(iters) * (scale > 1000.0 ? 1000.0 : scale) + 1);
  }
}

/// Keeps a value alive so the optimiser cannot delete the computation.
template <typename T>
inline void do_not_optimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

}  // namespace nnfv::bench
