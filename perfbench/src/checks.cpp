#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <tuple>

namespace perfbench {

namespace serve = gnnerator::serve;
namespace graph = gnnerator::graph;
namespace gnn = gnnerator::gnn;

namespace {

template <typename... Parts>
std::string message(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

bool served(const serve::Outcome& o) { return !o.shed && !o.failed; }

}  // namespace

std::vector<Batch> recover_batches(std::span<const serve::Outcome> outcomes) {
  std::map<std::pair<std::uint32_t, serve::Cycle>, Batch> by_key;
  for (const serve::Outcome& o : outcomes) {
    if (!served(o)) {
      continue;
    }
    Batch& b = by_key[{o.device, o.dispatch}];
    if (b.ids.empty()) {
      b.device = o.device;
      b.dispatch = o.dispatch;
      b.completion = o.completion;
      b.service_cycles = o.service_cycles;
    }
    b.ids.push_back(o.id);
  }
  std::vector<Batch> batches;
  batches.reserve(by_key.size());
  for (auto& [key, batch] : by_key) {
    std::sort(batch.ids.begin(), batch.ids.end());
    batches.push_back(std::move(batch));
  }
  return batches;
}

Failure check_accounting(std::size_t emitted, std::span<const serve::Outcome> outcomes) {
  if (outcomes.size() != emitted) {
    return message("accounting: ", emitted, " operations emitted but ", outcomes.size(),
                   " outcomes reported");
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].id != i) {
      return message("accounting: outcome ", i, " carries id ", outcomes[i].id);
    }
    if (outcomes[i].shed && outcomes[i].failed) {
      return message("accounting: request ", i, " is both shed and failed");
    }
  }
  return std::nullopt;
}

Failure check_causality(std::span<const serve::Outcome> outcomes) {
  for (const serve::Outcome& o : outcomes) {
    if (served(o) && !(o.arrival <= o.dispatch && o.dispatch < o.completion)) {
      return message("causality: request ", o.id, " arrival ", o.arrival, " dispatch ",
                     o.dispatch, " completion ", o.completion);
    }
  }
  return std::nullopt;
}

Failure check_device_intervals(std::span<const Batch> batches) {
  std::map<std::uint32_t, std::vector<const Batch*>> per_device;
  for (const Batch& b : batches) {
    if (b.completion != b.dispatch + b.service_cycles) {
      return message("intervals: batch at device ", b.device, " cycle ", b.dispatch,
                     " completes at ", b.completion, " after ", b.service_cycles,
                     " service cycles");
    }
    per_device[b.device].push_back(&b);
  }
  for (auto& [device, list] : per_device) {
    std::sort(list.begin(), list.end(), [](const Batch* a, const Batch* b) {
      return std::tie(a->dispatch, a->completion) < std::tie(b->dispatch, b->completion);
    });
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i]->dispatch < list[i - 1]->completion) {
        return message("intervals: device ", device, " busy [", list[i - 1]->dispatch, ", ",
                       list[i - 1]->completion, ") overlaps [", list[i]->dispatch, ", ",
                       list[i]->completion, ")");
      }
    }
  }
  return std::nullopt;
}

Failure check_quantile(std::span<const serve::Outcome> outcomes, double clock_ghz, double q,
                       double reported_ms, std::size_t exact_bound) {
  std::vector<double> latencies;
  for (const serve::Outcome& o : outcomes) {
    if (served(o)) {
      latencies.push_back(o.latency_ms(clock_ghz));
    }
  }
  if (latencies.empty()) {
    return message("quantile: no served requests");
  }
  std::sort(latencies.begin(), latencies.end());
  const auto n = latencies.size();
  if (n <= exact_bound) {
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double own = latencies[lo] + (pos - static_cast<double>(lo)) *
                                           (latencies[hi] - latencies[lo]);
    if (std::abs(reported_ms - own) > 1e-9 * std::max(1.0, std::abs(own))) {
      return message("quantile: p", q * 100, " reported ", reported_ms, " ms, own sort of ", n,
                     " latencies gives ", own, " ms");
    }
    return std::nullopt;
  }
  const double eps = std::sqrt(std::log(2.0 / 1e-9) / (2.0 * static_cast<double>(exact_bound)));
  const auto below = static_cast<double>(
      std::lower_bound(latencies.begin(), latencies.end(), reported_ms) - latencies.begin());
  const auto at_or_below = static_cast<double>(
      std::upper_bound(latencies.begin(), latencies.end(), reported_ms) - latencies.begin());
  const double nd = static_cast<double>(n);
  if (at_or_below / nd < q - eps || below / nd > q + eps) {
    return message("quantile: p", q * 100, " reported ", reported_ms, " ms sits at rank [",
                   below / nd, ", ", at_or_below / nd, "] of ", n, " latencies, outside ", q,
                   " +- ", eps);
  }
  return std::nullopt;
}

Failure check_service(std::span<const Batch> batches, std::span<const serve::Cycle> expected) {
  if (batches.size() != expected.size()) {
    return message("service: ", batches.size(), " batches but ", expected.size(),
                   " expected service times");
  }
  for (std::size_t i = 0; i < batches.size(); ++i) {
    if (batches[i].service_cycles != expected[i]) {
      return message("service: batch of ", batches[i].ids.size(), " at device ",
                     batches[i].device, " cycle ", batches[i].dispatch, " took ",
                     batches[i].service_cycles, " cycles, direct engine runs give ",
                     expected[i]);
    }
  }
  return std::nullopt;
}

Failure check_fanout(const graph::Graph& parent, const graph::SampledSubgraph& sample,
                     const graph::FanoutSpec& fanout) {
  const graph::Graph& g = sample.graph;
  const std::size_t n = g.num_nodes();
  if (sample.vertices.size() != n) {
    return message("fanout: ", sample.vertices.size(), " vertex ids for ", n, " vertices");
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (sample.vertices[v] >= parent.num_nodes() ||
        (v > 0 && sample.vertices[v] <= sample.vertices[v - 1])) {
      return message("fanout: vertex ids not ascending and in range at ", v);
    }
  }
  for (const graph::Edge& e : g.edges()) {
    if (!parent.has_edge(sample.vertices[e.src], sample.vertices[e.dst])) {
      return message("fanout: kept edge ", sample.vertices[e.src], " -> ",
                     sample.vertices[e.dst], " is not a parent edge");
    }
  }
  constexpr std::size_t kUnreached = ~static_cast<std::size_t>(0);
  std::vector<std::size_t> hop(n, kUnreached);
  std::vector<graph::NodeId> queue;
  for (const graph::NodeId s : sample.seeds) {
    if (s >= n) {
      return message("fanout: seed ", s, " outside the sample");
    }
    if (hop[s] == kUnreached) {
      hop[s] = 0;
      queue.push_back(s);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const graph::NodeId v = queue[head];
    for (const graph::NodeId u : g.in_neighbors(v)) {
      if (hop[u] == kUnreached) {
        hop[u] = hop[v] + 1;
        queue.push_back(u);
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    const auto vid = static_cast<graph::NodeId>(v);
    if (hop[v] == kUnreached || hop[v] > fanout.hops()) {
      return message("fanout: vertex ", sample.vertices[v], " is not within ", fanout.hops(),
                     " hops of a seed");
    }
    const std::size_t kept = g.in_degree(vid);
    const std::size_t limit =
        hop[v] == fanout.hops()
            ? 0
            : (fanout.per_hop[hop[v]] == 0 ? parent.in_degree(sample.vertices[v])
                                           : fanout.per_hop[hop[v]]);
    if (kept > limit) {
      return message("fanout: vertex ", sample.vertices[v], " reached at hop ", hop[v],
                     " keeps ", kept, " in-edges, limit ", limit);
    }
  }
  return std::nullopt;
}

Failure check_close(const gnn::Tensor& got, const gnn::Tensor& want, float tolerance) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return message("output: shape ", got.rows(), "x", got.cols(), ", reference ", want.rows(),
                   "x", want.cols());
  }
  const float diff = gnn::Tensor::max_abs_diff(got, want);
  if (!(diff <= tolerance)) {
    return message("output: max |accelerator - reference| = ", diff, " > ", tolerance);
  }
  return std::nullopt;
}

Failure check_kernels_agree(const gnnerator::core::ExecutionResult& event_driven,
                            const gnnerator::core::ExecutionResult& reference) {
  if (event_driven.cycles != reference.cycles) {
    return message("kernel: event-driven ", event_driven.cycles, " cycles, reference loop ",
                   reference.cycles);
  }
  if (event_driven.stats.counters() != reference.stats.counters()) {
    return message("kernel: counters differ between event-driven and reference loops");
  }
  return std::nullopt;
}

std::uint64_t expected_dense_macs(const graph::DatasetSpec& spec, const gnn::ModelSpec& model) {
  std::uint64_t per_vertex = 0;
  for (const gnn::LayerSpec& l : model.layers) {
    switch (l.kind) {
      case gnn::LayerKind::kGcn:  // W (in x out) after aggregation
        per_vertex += l.in_dim * l.out_dim;
        break;
      case gnn::LayerKind::kSageMean:  // W (2 in x out) over [mean || h]
        per_vertex += 2 * l.in_dim * l.out_dim;
        break;
      case gnn::LayerKind::kSagePool:  // Wp (in x out), then W ((out + in) x out)
        per_vertex += l.in_dim * l.out_dim + (l.out_dim + l.in_dim) * l.out_dim;
        break;
    }
  }
  return per_vertex * spec.num_nodes;
}

std::uint64_t expected_edges_processed(const graph::DatasetSpec& spec,
                                       const gnn::ModelSpec& model, bool feature_blocking,
                                       std::size_t block_size) {
  std::uint64_t blocks = 0;
  for (const gnn::LayerSpec& l : model.layers) {
    // GCN and GraphSAGE aggregate the layer input; GraphSAGE-pool aggregates
    // the pooled z, which has the layer's output width.
    const std::size_t dims = l.kind == gnn::LayerKind::kSagePool ? l.out_dim : l.in_dim;
    blocks += feature_blocking ? (dims + block_size - 1) / block_size : 1;
  }
  return (spec.num_edges + spec.num_nodes) * blocks;
}

Failure check_closed_forms(const gnnerator::core::ExecutionResult& result,
                           const graph::DatasetSpec& spec, const gnn::ModelSpec& model,
                           bool feature_blocking, std::size_t block_size) {
  const std::uint64_t macs = expected_dense_macs(spec, model);
  if (result.stats.get("dense.macs") != macs) {
    return message("closed form: ", spec.name, " ", model.name, " dense.macs ",
                   result.stats.get("dense.macs"), ", V * sum(in * out) = ", macs);
  }
  const std::uint64_t edges =
      expected_edges_processed(spec, model, feature_blocking, block_size);
  if (result.stats.get("graph.edges_processed") != edges) {
    return message("closed form: ", spec.name, " ", model.name, " graph.edges_processed ",
                   result.stats.get("graph.edges_processed"),
                   ", (E + V) * feature blocks = ", edges);
  }
  return std::nullopt;
}

}  // namespace perfbench
