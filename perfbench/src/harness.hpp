#pragma once

// What every workload shares: the command-line options, host clocks, the
// timed loop of whole rounds, the per-layer metric table, and the one JSON
// result line.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seed of the synthetic dataset graphs. They stand in for the paper's
/// fixed datasets, so every run serves the same graphs and --seed draws the
/// traffic over them. A per-seed graph moved sampled_serve's ops_per_s by
/// 20% between seeds, which no bound could then resolve.
constexpr std::uint64_t kGraphSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a workload may write scratch files (the synthetic trace, the
  /// Chrome trace of a traced run).
  std::string work_dir = ".";
};

/// Host seconds since the process started main().
[[nodiscard]] double process_seconds();
/// Process CPU seconds, user + system, all threads.
[[nodiscard]] double cpu_seconds();
/// Peak resident set of the process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Host wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch();
  [[nodiscard]] double seconds() const;

 private:
  double start_;
};

/// Median (mean of the middle two for an even count); 0 for no values.
[[nodiscard]] double median(std::vector<double> values);

/// The fastest of a set of times; 0 for no values. Other tenants of a
/// shared host only ever slow a round down, in stretches of seconds to
/// minutes, so the fastest of many short rounds of the same work is the
/// figure that repeats between runs; a median moves with the host's load.
[[nodiscard]] double fastest(const std::vector<double>& seconds);

/// One pass over a workload's fixed set of operations.
struct Round {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Wall and CPU seconds of the parts of the round (its operations and any
  /// per-round preparation), in the same order every round. Left empty by
  /// workloads whose rounds are short; a workload whose round is too long to
  /// repeat often fills them, and the result then sums each part's fastest
  /// time across rounds.
  std::vector<double> part_wall_s;
  std::vector<double> part_cpu_s;
};

/// Runs whole rounds until `seconds` of host time have passed since the
/// first one started (at least one round).
[[nodiscard]] std::vector<Round> run_rounds(double seconds, const std::function<Round()>& round);

/// Per-layer metric values, keyed by the names of kLayerMetrics. Layers a
/// workload does not exercise stay 0.
using LayerValues = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in output order (BENCHMARK.json lists the same).
extern const std::vector<MetricDef> kLayerMetrics;

/// What one workload process hands back to main().
struct WorkloadResult {
  double setup_s = 0.0;
  std::vector<Round> rounds;
  /// Messages of the correctness checks that failed.
  std::vector<std::string> failures;
  /// Filled by traced runs.
  LayerValues layers;
};

/// Prints the result line: the end-to-end metrics of an untraced run, or
/// the per-layer metrics of a traced one.
void print_result(const Options& options, const WorkloadResult& result);

}  // namespace perfbench
