// Each correctness check of the benchmark accepts a consistent input and
// rejects the same input with one fault planted in it.
#include <gtest/gtest.h>

#include <vector>

#include "checks.hpp"
#include "graph/datasets.hpp"
#include "util/prng.hpp"

namespace perfbench {
namespace {

namespace graph = gnnerator::graph;
namespace gnn = gnnerator::gnn;
namespace serve = gnnerator::serve;

serve::Outcome served(std::uint64_t id, serve::Cycle arrival, serve::Cycle dispatch,
                      serve::Cycle service, std::uint32_t device) {
  serve::Outcome o;
  o.id = id;
  o.arrival = arrival;
  o.dispatch = dispatch;
  o.service_cycles = service;
  o.completion = dispatch + service;
  o.device = device;
  return o;
}

/// Two devices; device 0 serves a batch of two, then one more request.
std::vector<serve::Outcome> sample_outcomes() {
  return {served(0, 0, 10, 100, 0), served(1, 5, 10, 100, 0), served(2, 20, 20, 50, 1),
          served(3, 30, 110, 40, 0)};
}

TEST(Checks, AccountingRejectsADroppedOutcome) {
  std::vector<serve::Outcome> outcomes = sample_outcomes();
  EXPECT_FALSE(check_accounting(4, outcomes));
  outcomes.pop_back();
  EXPECT_TRUE(check_accounting(4, outcomes));
}

TEST(Checks, AccountingRejectsAnIdOutOfOrder) {
  std::vector<serve::Outcome> outcomes = sample_outcomes();
  outcomes[2].id = 7;
  EXPECT_TRUE(check_accounting(4, outcomes));
}

TEST(Checks, CausalityRejectsDispatchBeforeArrival) {
  std::vector<serve::Outcome> outcomes = sample_outcomes();
  EXPECT_FALSE(check_causality(outcomes));
  outcomes[3].arrival = outcomes[3].dispatch + 1;
  EXPECT_TRUE(check_causality(outcomes));
}

TEST(Checks, CausalityRejectsZeroServiceTime) {
  std::vector<serve::Outcome> outcomes = sample_outcomes();
  outcomes[2].completion = outcomes[2].dispatch;
  EXPECT_TRUE(check_causality(outcomes));
}

TEST(Checks, IntervalsRecoverBatchesAndRejectAnOverlap) {
  std::vector<serve::Outcome> outcomes = sample_outcomes();
  const std::vector<Batch> batches = recover_batches(outcomes);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].ids, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_FALSE(check_device_intervals(batches));

  outcomes[3].dispatch = 109;  // starts one cycle before device 0 is free
  outcomes[3].completion = 149;
  EXPECT_TRUE(check_device_intervals(recover_batches(outcomes)));
}

TEST(Checks, IntervalsRejectCompletionOffByOne) {
  std::vector<serve::Outcome> outcomes = sample_outcomes();
  outcomes[2].completion += 1;
  EXPECT_TRUE(check_device_intervals(recover_batches(outcomes)));
}

TEST(Checks, ServiceRejectsACycleOffByOne) {
  const std::vector<Batch> batches = recover_batches(sample_outcomes());
  std::vector<serve::Cycle> expected = {100, 40, 50};
  EXPECT_FALSE(check_service(batches, expected));
  expected[1] += 1;
  EXPECT_TRUE(check_service(batches, expected));
}

std::vector<serve::Outcome> latencies(std::size_t n) {
  std::vector<serve::Outcome> outcomes;
  for (std::size_t i = 0; i < n; ++i) {
    // Latency of request i is (i * 7919 mod n) + 1 cycles: a permutation.
    outcomes.push_back(served(i, 0, 0, (i * 7919) % n + 1, 0));
  }
  return outcomes;
}

TEST(Checks, ExactQuantileRejectsAPerturbedValue) {
  const std::vector<serve::Outcome> outcomes = latencies(101);
  const double clock_ghz = 1e-6;  // one cycle == one ms
  EXPECT_FALSE(check_quantile(outcomes, clock_ghz, 0.95, 96.0, 4096));
  EXPECT_FALSE(check_quantile(outcomes, clock_ghz, 0.50, 51.0, 4096));
  EXPECT_TRUE(check_quantile(outcomes, clock_ghz, 0.95, 96.001, 4096));
}

TEST(Checks, SampledQuantileRejectsAValueOutsideTheRankBand) {
  const std::vector<serve::Outcome> outcomes = latencies(20'000);
  const double clock_ghz = 1e-6;
  EXPECT_FALSE(check_quantile(outcomes, clock_ghz, 0.95, 19'100.0, 4096));
  EXPECT_TRUE(check_quantile(outcomes, clock_ghz, 0.95, 16'000.0, 4096));
}

/// A hub (vertex 0) with five in-neighbors, each with two of its own.
graph::Graph hub_graph() {
  std::vector<graph::Edge> edges;
  for (graph::NodeId u = 1; u <= 5; ++u) {
    edges.push_back({u, 0});
    edges.push_back({static_cast<graph::NodeId>(5 + u), u});
    edges.push_back({static_cast<graph::NodeId>(10 + u), u});
  }
  std::sort(edges.begin(), edges.end());
  return graph::Graph(16, std::move(edges));
}

TEST(Checks, FanoutAcceptsASampleAndRejectsOneHopTooWide) {
  const graph::Graph parent = hub_graph();
  gnnerator::util::Prng prng(3);
  const graph::SampledSubgraph sample =
      graph::sample_frontier(parent, {0}, graph::parse_fanout("3/1"), prng);
  EXPECT_FALSE(check_fanout(parent, sample, graph::parse_fanout("3/1")));
  EXPECT_TRUE(check_fanout(parent, sample, graph::parse_fanout("2/1")));
}

TEST(Checks, FanoutRejectsAnEdgeTheParentLacks) {
  const graph::Graph parent = hub_graph();
  gnnerator::util::Prng prng(3);
  graph::SampledSubgraph sample =
      graph::sample_frontier(parent, {0}, graph::parse_fanout("3/1"), prng);
  // Relabel the seed as a leaf: its kept in-edges no longer exist upstream.
  sample.vertices[0] = 15;
  std::sort(sample.vertices.begin(), sample.vertices.end());
  EXPECT_TRUE(check_fanout(parent, sample, graph::parse_fanout("3/1")));
}

TEST(Checks, CloseRejectsOnePerturbedElement) {
  const gnn::Tensor want(2, 3, {1, 2, 3, 4, 5, 6});
  gnn::Tensor got = want;
  EXPECT_FALSE(check_close(got, want, kReferenceTolerance));
  got.row(1)[2] += 1e-3f;
  EXPECT_TRUE(check_close(got, want, kReferenceTolerance));
}

TEST(Checks, KernelsRejectACycleCountOffByOne) {
  gnnerator::core::ExecutionResult a;
  a.cycles = 1000;
  a.stats.add("graph.busy_cycles", 10);
  gnnerator::core::ExecutionResult b = a;
  EXPECT_FALSE(check_kernels_agree(a, b));
  b.cycles += 1;
  EXPECT_TRUE(check_kernels_agree(a, b));
  b = a;
  b.stats.add("graph.busy_cycles");
  EXPECT_TRUE(check_kernels_agree(a, b));
}

TEST(Checks, ClosedFormsMatchTheCoraGcnFiguresAndRejectAnOffByOne) {
  const graph::DatasetSpec cora = *graph::find_dataset("cora");
  const gnn::ModelSpec model = gnnerator::core::table3_model(gnn::LayerKind::kGcn, cora);
  EXPECT_EQ(expected_dense_macs(cora, model), 62'392'320u);
  EXPECT_EQ(expected_edges_processed(cora, model, true, 64), 318'336u);

  gnnerator::core::ExecutionResult result;
  result.stats.add("dense.macs", 62'392'320);
  result.stats.add("graph.edges_processed", 318'336);
  EXPECT_FALSE(check_closed_forms(result, cora, model, true, 64));
  result.stats.add("graph.edges_processed");
  EXPECT_TRUE(check_closed_forms(result, cora, model, true, 64));
}

}  // namespace
}  // namespace perfbench
