#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>

#include "util/json.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

}  // namespace

double process_seconds() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Stopwatch::Stopwatch() : start_(process_seconds()) {}

double Stopwatch::seconds() const { return process_seconds() - start_; }

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double fastest(const std::vector<double>& seconds) {
  return seconds.empty() ? 0.0 : *std::min_element(seconds.begin(), seconds.end());
}

std::vector<Round> run_rounds(double seconds, const std::function<Round()>& round) {
  std::vector<Round> rounds;
  const Stopwatch phase;
  do {
    rounds.push_back(round());
  } while (phase.seconds() < seconds);
  return rounds;
}

const std::vector<MetricDef> kLayerMetrics = {
    {"serve.workload.intake_s", "s"},
    {"serve.workload.rows", "count"},
    {"serve.server.loop_s", "s"},
    {"serve.server.events", "count"},
    {"serve.server.ns_per_event", "ns"},
    {"core.cost_oracle.runs", "count"},
    {"core.compiler.estimate_s", "s"},
    {"core.plan_cache.hits", "count"},
    {"core.plan_cache.misses", "count"},
    {"core.compiler.compile_s", "s"},
    {"core.compiler.compiles", "count"},
    {"graph.sample_s", "s"},
    {"graph.samples", "count"},
    {"sim.kernel.run_s", "s"},
    {"sim.kernel.cycles_ticked", "cycles"},
    {"sim.cycles", "cycles"},
    {"core.executor.functional_s", "s"},
    {"graph.make_dataset_s", "s"},
    {"obs.recorder_s", "s"},
    {"obs.chrome_trace_s", "s"},
    {"obs.chrome_trace_bytes", "bytes"},
    {"serve.sim.p50_ms", "ms"},
    {"serve.sim.p95_ms", "ms"},
    {"serve.sim.queue_p95_ms", "ms"},
    {"serve.sim.mean_batch", "requests"},
    {"serve.feature_cache.hit_rate", "ratio"},
    {"serve.feature_cache.bytes_saved", "bytes"},
    {"dense.compute_cycles", "cycles"},
    {"dense.stall_token_cycles", "cycles"},
    {"graph.compute_cycles", "cycles"},
    {"graph.stall_dma_cycles", "cycles"},
    {"dram.busy_cycles", "cycles"},
    {"dram.read_bytes", "bytes"},
};

namespace {

/// A run's round time as the result reports it: the fastest of the rounds'
/// `seconds`, or, when the rounds carry the times of their parts (`part`),
/// the sum over parts of each one's fastest time across rounds.
double round_seconds(const std::vector<Round>& rounds, double Round::*seconds,
                     std::vector<double> Round::*part) {
  const std::size_t parts = (rounds.front().*part).size();
  std::vector<double> across(rounds.size());
  if (parts == 0) {
    std::transform(rounds.begin(), rounds.end(), across.begin(),
                   [&](const Round& r) { return r.*seconds; });
    return fastest(across);
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < parts; ++i) {
    std::transform(rounds.begin(), rounds.end(), across.begin(),
                   [&](const Round& r) { return (r.*part).at(i); });
    sum += fastest(across);
  }
  return sum;
}

}  // namespace

void print_result(const Options& options, const WorkloadResult& result) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> wall_s;
  for (const Round& r : result.rounds) {
    attempted += r.ops;
    failed += r.failed;
    wall_s.push_back(r.wall_s);
  }
  // Every round runs the same operations, so each completes the same count.
  const Round& one = result.rounds.front();
  const auto completed = static_cast<double>(one.ops - one.failed);
  const double ops_per_s =
      completed / round_seconds(result.rounds, &Round::wall_s, &Round::part_wall_s);
  const double cpu_s = round_seconds(result.rounds, &Round::cpu_s, &Round::part_cpu_s);

  std::vector<std::pair<MetricDef, double>> metrics;
  if (options.trace) {
    for (const MetricDef& def : kLayerMetrics) {
      const auto it = result.layers.find(def.name);
      metrics.emplace_back(def, it == result.layers.end() ? 0.0 : it->second);
    }
  } else {
    metrics.emplace_back(MetricDef{"setup_s", "s"}, result.setup_s);
    metrics.emplace_back(MetricDef{"ops_per_s", "ops/s"}, ops_per_s);
    metrics.emplace_back(MetricDef{"cpu_s", "s"}, cpu_s);
    metrics.emplace_back(MetricDef{"peak_rss_mb", "MB"}, peak_rss_mb());
  }

  for (const std::string& f : result.failures) {
    std::cerr << "CHECK FAILED: " << f << "\n";
  }
  // The traced run's throughput goes to standard error only: set against
  // the untraced run's ops_per_s it gives the tracing overhead. The median
  // round's throughput beside it shows how far other tenants slowed the run.
  std::cerr << options.workload << ": " << result.rounds.size() << " rounds, " << attempted
            << " operations, setup " << result.setup_s << " s, " << ops_per_s
            << " ops/s (median round " << completed / median(wall_s) << ")\n";

  std::ostringstream os;
  gnnerator::util::JsonWriter w(os);
  w.begin_object();
  w.field("correct", result.failures.empty());
  w.field("attempted", attempted);
  w.field("failed", failed);
  w.key("metrics").begin_object();
  for (const auto& [def, value] : metrics) {
    w.key(def.name).begin_object().field("value", value).field("unit", def.unit).end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << os.str() << std::endl;
}

}  // namespace perfbench
