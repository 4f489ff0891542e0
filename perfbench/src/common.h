#pragma once
// Shared plumbing of the benchmark program: run options, the result record
// every workload fills, order statistics, process counters and the golden
// table that feeds ok_frac.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the working directory) for journals and artifacts.
  std::string out_dir = ".bench_out";
  /// Print the golden values this build computes instead of checking them.
  bool emit_golden = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. main() prints `end_to_end` when the
/// run is untraced and `per_layer` when traced.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;
  /// name -> computed value, for --emit-golden.
  std::map<std::string, std::string> golden_out;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// Process-wide getrusage counters (all threads).
struct Usage {
  double max_rss_mb = 0.0;
  std::uint64_t minflt = 0;
  std::uint64_t nvcsw = 0;
  std::uint64_t nivcsw = 0;
};
[[nodiscard]] Usage usage_now();

/// Benchmark-owned CPU reference: a fixed, L1-resident integer loop that
/// calls no mcopt code.
/// On the 4-vCPU KVM guest the benchmark was built on, effective CPU speed
/// drifts by about ±12% over seconds (an L1-resident integer loop measured
/// 25.0-31.4 ms best-of-10 within one minute), which no repetition inside a
/// run removes. CPU-bound timings are therefore scaled by
/// kCpuReferenceNominalMs / (this loop's time measured next to them) and
/// read as milliseconds at a nominal host speed. Returns milliseconds.
[[nodiscard]] double cpu_reference_ms();
inline constexpr double kCpuReferenceNominalMs = 2.0;

/// The golden table: `name value` lines in perfbench/golden.txt.
class Golden {
 public:
  /// Loads the table; a missing file leaves it empty (every lookup fails).
  explicit Golden(const std::string& path);
  /// True when `name` is present with exactly `value`.
  [[nodiscard]] bool matches(const std::string& name,
                             const std::string& value) const;
  [[nodiscard]] bool loaded() const noexcept { return !table_.empty(); }

 private:
  std::map<std::string, std::string> table_;
};

[[nodiscard]] std::string hex32(std::uint32_t v);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// FNV-1a accumulator for result fingerprints.
class Fnv {
 public:
  void add(std::uint64_t v) noexcept;
  void add_double(double v) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Every run times at least this many items, however slow the host.
inline constexpr std::uint64_t kMinItems = 100;

/// Fills the six end-to-end metrics shared by every workload.
void set_end_to_end(Result& r, double setup_s, double peak_rss_mb,
                    double ok_frac, double work_per_s,
                    const std::vector<double>& item_ms);

Result run_des_sweep(const Options& opt, const Golden& golden, Spans& spans);
Result run_native_kernels(const Options& opt, const Golden& golden,
                          Spans& spans);
Result run_service_small_jobs(const Options& opt, const Golden& golden,
                              Spans& spans);

}  // namespace perfbench
