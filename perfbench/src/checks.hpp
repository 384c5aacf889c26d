#pragma once

// Correctness checks of the benchmark. Each one compares the program's
// output with a computation made apart from the program, or tests a
// property the output must have; none compares with a recorded copy of
// earlier output. Each returns nullopt when the check holds and a message
// naming the first violation otherwise. They are pure functions of their
// arguments, so tests/checks_test.cpp can feed them corrupted inputs.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/accelerator.hpp"
#include "gnn/layers.hpp"
#include "gnn/tensor.hpp"
#include "graph/datasets.hpp"
#include "graph/sample.hpp"
#include "serve/request.hpp"

namespace perfbench {

using Failure = std::optional<std::string>;

/// tests/accelerator_test.cpp's tolerance of accelerator outputs against
/// gnn::ReferenceExecutor (summation order differs).
inline constexpr float kReferenceTolerance = 2e-4f;

/// One dispatched batch, recovered from the outcomes that share a
/// (device, dispatch) pair.
struct Batch {
  std::uint32_t device = 0;
  gnnerator::serve::Cycle dispatch = 0;
  gnnerator::serve::Cycle completion = 0;
  gnnerator::serve::Cycle service_cycles = 0;
  /// Request ids in ascending order.
  std::vector<std::uint64_t> ids;
};

/// Groups the completed outcomes by (device, dispatch), ordered by device
/// then dispatch cycle.
[[nodiscard]] std::vector<Batch> recover_batches(
    std::span<const gnnerator::serve::Outcome> outcomes);

/// Every emitted operation has exactly one outcome, ids are dense and in
/// order, and each outcome is either served or counted as shed or failed.
[[nodiscard]] Failure check_accounting(std::size_t emitted,
                                       std::span<const gnnerator::serve::Outcome> outcomes);

/// arrival <= dispatch < completion for every served request.
[[nodiscard]] Failure check_causality(std::span<const gnnerator::serve::Outcome> outcomes);

/// Members of one batch agree on completion and service time, completion is
/// dispatch + service, and no device's busy intervals overlap.
[[nodiscard]] Failure check_device_intervals(std::span<const Batch> batches);

/// The latency quantile the program reported against the benchmark's own
/// sort of the served latencies (numpy "linear" interpolation). While the
/// sample count is within `exact_bound` (serve::Metrics' exact-sample bound)
/// the values must agree to rounding. Beyond it serve::Metrics estimates
/// from a uniform reservoir of `exact_bound` samples, so the reported value
/// must sit within the DKW rank band of such a sample: its rank in the full
/// sort within q +- sqrt(ln(2/1e-9) / (2 * exact_bound)), a band a correct
/// reservoir leaves with probability below 1e-9.
[[nodiscard]] Failure check_quantile(std::span<const gnnerator::serve::Outcome> outcomes,
                                     double clock_ghz, double q, double reported_ms,
                                     std::size_t exact_bound);

/// Each batch's service time equals `expected[i]` for batch i.
[[nodiscard]] Failure check_service(std::span<const Batch> batches,
                                    std::span<const gnnerator::serve::Cycle> expected);

/// A k-hop frontier sample respects its fanout: vertex ids are ascending and
/// in range, every kept edge is a parent edge, and each vertex keeps at most
/// fanout[h] in-edges, where h is the hop at which the sample reached it
/// (breadth-first over kept in-edges from the seeds); vertices of the last
/// hop keep none.
[[nodiscard]] Failure check_fanout(const gnnerator::graph::Graph& parent,
                                   const gnnerator::graph::SampledSubgraph& sample,
                                   const gnnerator::graph::FanoutSpec& fanout);

/// Same shape, and every element within `tolerance` of the reference.
[[nodiscard]] Failure check_close(const gnnerator::gnn::Tensor& got,
                                  const gnnerator::gnn::Tensor& want, float tolerance);

/// The event-driven kernel and the exhaustive reference loop produced the
/// same cycle count and the same counters.
[[nodiscard]] Failure check_kernels_agree(const gnnerator::core::ExecutionResult& event_driven,
                                          const gnnerator::core::ExecutionResult& reference);

/// Closed forms from the paper's layer equations (Eq. 1/2, Table III),
/// computed from dataset and model sizes alone:
///   dense.macs            = V * sum over Dense stages of in * out
///   graph.edges_processed = (E + V) * sum over Aggregate stages of the
///                           feature blocks aggregated, ceil(dims / B) with
///                           feature blocking and 1 without.
/// `block_size` is the resolved B (the request's value, or the Dense Engine
/// array width when it is 0). Not valid under autotune, which picks B per
/// stage.
[[nodiscard]] std::uint64_t expected_dense_macs(const gnnerator::graph::DatasetSpec& spec,
                                                const gnnerator::gnn::ModelSpec& model);
[[nodiscard]] std::uint64_t expected_edges_processed(const gnnerator::graph::DatasetSpec& spec,
                                                     const gnnerator::gnn::ModelSpec& model,
                                                     bool feature_blocking,
                                                     std::size_t block_size);
[[nodiscard]] Failure check_closed_forms(const gnnerator::core::ExecutionResult& result,
                                         const gnnerator::graph::DatasetSpec& spec,
                                         const gnnerator::gnn::ModelSpec& model,
                                         bool feature_blocking, std::size_t block_size);

}  // namespace perfbench
