#pragma once

// What the two serving workloads share: WorkloadSource decorators that time
// intake, the serving correctness checks, and the simulated per-layer
// metrics read off a report.

#include <cstddef>
#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/metrics.hpp"
#include "serve/workload.hpp"

namespace perfbench {

/// Times every pull() of a streaming source and counts the rows it yields.
class TimedStream final : public gnnerator::serve::StreamingWorkloadSource {
 public:
  explicit TimedStream(gnnerator::serve::StreamingWorkloadSource& inner) : inner_(inner) {}

  std::size_t pull(std::size_t max, std::vector<gnnerator::serve::Request>& out) override;
  std::vector<gnnerator::serve::Request> on_outcome(
      const gnnerator::serve::Outcome& outcome) override;

  [[nodiscard]] double intake_s() const { return intake_s_; }
  [[nodiscard]] std::size_t rows() const { return rows_; }

 private:
  gnnerator::serve::StreamingWorkloadSource& inner_;
  double intake_s_ = 0.0;
  std::size_t rows_ = 0;
};

/// Times a materializing source's initial_arrivals() and feedback calls.
class TimedSource final : public gnnerator::serve::WorkloadSource {
 public:
  explicit TimedSource(gnnerator::serve::WorkloadSource& inner) : inner_(inner) {}

  std::vector<gnnerator::serve::Request> initial_arrivals() override;
  std::vector<gnnerator::serve::Request> on_outcome(
      const gnnerator::serve::Outcome& outcome) override;

  [[nodiscard]] double intake_s() const { return intake_s_; }
  [[nodiscard]] std::size_t rows() const { return rows_; }

 private:
  gnnerator::serve::WorkloadSource& inner_;
  double intake_s_ = 0.0;
  std::size_t rows_ = 0;
};

/// Requests the report counts as shed or failed.
[[nodiscard]] std::size_t unserved(const gnnerator::serve::ServeReport& report);

/// Accounting, causality, device intervals, and p50/p95 against the
/// benchmark's own sort; appends a message per failed check.
void check_report(const gnnerator::serve::ServeReport& report, std::size_t emitted,
                  std::vector<std::string>& failures);

/// serve.sim.* and serve.feature_cache.* from a report.
void add_simulated_metrics(const gnnerator::serve::ServeReport& report, LayerValues& layers);

/// Per-layer serve loop metrics from the fastest of traced rounds, the
/// statistic of the end-to-end metrics.
void add_loop_metrics(const std::vector<double>& serve_s, const std::vector<double>& intake_s,
                      double rows, double events, LayerValues& layers);

}  // namespace perfbench
