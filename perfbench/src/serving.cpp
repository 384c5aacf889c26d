#include "serving.hpp"

#include <algorithm>
#include <cmath>

#include "checks.hpp"

namespace perfbench {

namespace serve = gnnerator::serve;

std::size_t TimedStream::pull(std::size_t max, std::vector<serve::Request>& out) {
  const Stopwatch watch;
  const std::size_t n = inner_.pull(max, out);
  intake_s_ += watch.seconds();
  rows_ += n;
  return n;
}

std::vector<serve::Request> TimedStream::on_outcome(const serve::Outcome& outcome) {
  const Stopwatch watch;
  std::vector<serve::Request> next = inner_.on_outcome(outcome);
  intake_s_ += watch.seconds();
  rows_ += next.size();
  return next;
}

std::vector<serve::Request> TimedSource::initial_arrivals() {
  const Stopwatch watch;
  std::vector<serve::Request> arrivals = inner_.initial_arrivals();
  intake_s_ += watch.seconds();
  rows_ += arrivals.size();
  return arrivals;
}

std::vector<serve::Request> TimedSource::on_outcome(const serve::Outcome& outcome) {
  const Stopwatch watch;
  std::vector<serve::Request> next = inner_.on_outcome(outcome);
  intake_s_ += watch.seconds();
  rows_ += next.size();
  return next;
}

std::size_t unserved(const serve::ServeReport& report) {
  return report.metrics.shed + report.metrics.failed;
}

void check_report(const serve::ServeReport& report, std::size_t emitted,
                  std::vector<std::string>& failures) {
  const std::vector<Batch> batches = recover_batches(report.outcomes);
  // serve::Metrics holds this many latencies exactly before it samples.
  constexpr std::size_t kExactBound = 4096;
  for (const Failure& f :
       {check_accounting(emitted, report.outcomes), check_causality(report.outcomes),
        check_device_intervals(batches),
        check_quantile(report.outcomes, report.clock_ghz, 0.50, report.metrics.p50_ms,
                       kExactBound),
        check_quantile(report.outcomes, report.clock_ghz, 0.95, report.metrics.p95_ms,
                       kExactBound)}) {
    if (f) {
      failures.push_back(*f);
    }
  }
}

void add_simulated_metrics(const serve::ServeReport& report, LayerValues& layers) {
  std::vector<double> queue_ms;
  for (const serve::Outcome& o : report.outcomes) {
    if (!o.shed && !o.failed) {
      queue_ms.push_back(o.queue_ms(report.clock_ghz));
    }
  }
  std::sort(queue_ms.begin(), queue_ms.end());
  if (!queue_ms.empty()) {
    const double pos = 0.95 * static_cast<double>(queue_ms.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, queue_ms.size() - 1);
    layers["serve.sim.queue_p95_ms"] =
        queue_ms[lo] + (pos - static_cast<double>(lo)) * (queue_ms[hi] - queue_ms[lo]);
  }
  layers["serve.sim.p50_ms"] = report.metrics.p50_ms;
  layers["serve.sim.p95_ms"] = report.metrics.p95_ms;
  layers["serve.sim.mean_batch"] = report.metrics.mean_batch_size;
  layers["serve.feature_cache.hit_rate"] = report.feature_cache.hit_rate();
  layers["serve.feature_cache.bytes_saved"] =
      static_cast<double>(report.feature_cache.bytes_saved);
}

void add_loop_metrics(const std::vector<double>& serve_s, const std::vector<double>& intake_s,
                      double rows, double events, LayerValues& layers) {
  std::vector<double> loop_s;
  for (std::size_t i = 0; i < serve_s.size(); ++i) {
    loop_s.push_back(serve_s[i] - intake_s[i]);
  }
  layers["serve.workload.intake_s"] = fastest(intake_s);
  layers["serve.workload.rows"] = rows;
  layers["serve.server.loop_s"] = fastest(loop_s);
  layers["serve.server.events"] = events;
  layers["serve.server.ns_per_event"] = events > 0 ? fastest(loop_s) / events * 1e9 : 0.0;
}

}  // namespace perfbench
