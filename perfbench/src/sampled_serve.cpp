// sampled_serve: degree-skewed k-hop sampled queries served through the
// batch policy with plan fusion and the feature cache on, at about twice
// the fleet's per-request capacity. Every fused batch is a new subgraph, so
// the sampler, cost-oracle pricing, compiler and kernel do most of the work
// and intake does almost none.
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>

#include "checks.hpp"
#include "core/cost_oracle.hpp"
#include "core/plan_cache.hpp"
#include "gnn/reference.hpp"
#include "gnn/weights.hpp"
#include "obs/chrome_trace.hpp"
#include "serve/server.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = gnnerator::core;
namespace graph = gnnerator::graph;
namespace gnn = gnnerator::gnn;
namespace obs = gnnerator::obs;
namespace serve = gnnerator::serve;

constexpr const char* kDataset = "cora";
constexpr const char* kFanout = "10/5";
constexpr std::size_t kQueries = 4000;
constexpr std::size_t kDevices = 2;
/// One simulation thread, as on trace_stream. In five interleaved pairs, 4
/// threads ran 15% faster but ranged over 19.5-24.4k ops/s while 1 thread
/// held 18.7-19.7k; a bound cannot resolve changes through that noise.
constexpr std::size_t kSimThreads = 1;
constexpr double kLoadOverCapacity = 2.0;
/// Queries of the capacity calibration (per-request dispatch, light load).
constexpr std::size_t kCalibrationQueries = 500;
constexpr double kCalibrationRps = 2000.0;
/// Queries of the functional slice compared with gnn::ReferenceExecutor.
constexpr std::size_t kFunctionalQueries = 48;
constexpr std::size_t kRecordedRounds = 10;

serve::ServerOptions server_options(std::size_t max_batch, bool feature_cache,
                                    std::shared_ptr<obs::Recorder> recorder) {
  serve::ServerOptions options;
  options.num_devices = kDevices;
  options.policy = serve::SchedulingPolicy::kDynamicBatch;
  options.limits.batch_window = serve::ms_to_cycles(0.1, options.clock_ghz);
  options.limits.max_batch = max_batch;
  options.sim_threads = kSimThreads;
  if (feature_cache) {
    options.feature_cache = serve::FeatureCacheOptions{.budget_bytes = 8ull << 20};
  }
  options.recorder = std::move(recorder);
  return options;
}

serve::SampledQueryWorkload make_workload(const graph::Dataset& dataset, double rate_rps,
                                          std::size_t queries, std::uint64_t seed,
                                          core::SimMode mode) {
  std::vector<serve::SampledQueryWorkload::Entry> entries;
  for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
    serve::RequestTemplate t;
    t.sim.dataset = dataset.spec.name;
    t.sim.model = core::table3_model(kind, dataset.spec);
    t.sim.mode = mode;
    entries.push_back(serve::SampledQueryWorkload::Entry{t, &dataset, kFanout});
  }
  return serve::SampledQueryWorkload(std::move(entries), rate_rps, queries, 1.0, seed);
}

/// The workload's requests in the server's admission order (stable by
/// arrival), so requests[id] is the request behind outcome id.
std::vector<serve::Request> admitted(serve::SampledQueryWorkload workload) {
  std::vector<serve::Request> requests = workload.initial_arrivals();
  std::stable_sort(requests.begin(), requests.end(),
                   [](const serve::Request& a, const serve::Request& b) {
                     return a.arrival < b.arrival;
                   });
  return requests;
}

/// The sampling PRNG seed Server documents for a sampled request: FNV-1a
/// over the dataset's structural fingerprint, the seed vertex and the
/// per-hop fanouts. The functional check confirms the frontiers drawn from
/// it are the ones the server served.
std::uint64_t sampling_seed(const std::string& dataset_fingerprint, std::uint64_t vertex,
                            const graph::FanoutSpec& fanout) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const char c : dataset_fingerprint) {
    mix(static_cast<unsigned char>(c));
  }
  mix(vertex);
  for (const std::uint32_t f : fanout.per_hop) {
    mix(f);
  }
  return h;
}

graph::SampledSubgraph sample(const graph::Dataset& dataset, const std::string& fingerprint,
                              std::uint64_t vertex, const graph::FanoutSpec& fanout) {
  gnnerator::util::Prng prng(sampling_seed(fingerprint, vertex, fanout));
  return graph::sample_frontier(dataset.graph, {static_cast<graph::NodeId>(vertex)}, fanout,
                                prng);
}

serve::ServeReport serve_fresh(const serve::ServerOptions& options,
                               const graph::Dataset& dataset, serve::WorkloadSource& source) {
  serve::Server server(options);
  server.add_dataset(dataset);
  return server.serve(source);
}

/// Capacity calibration: mean service time of a sampled query dispatched
/// alone under light load, in simulated seconds.
double per_request_service_s(const graph::Dataset& dataset, std::uint64_t seed) {
  serve::SampledQueryWorkload workload =
      make_workload(dataset, kCalibrationRps, kCalibrationQueries, seed, core::SimMode::kTiming);
  const serve::ServeReport report =
      serve_fresh(server_options(1, false, nullptr), dataset, workload);
  double service = 0.0;
  std::size_t served = 0;
  for (const serve::Outcome& o : report.outcomes) {
    if (!o.shed && !o.failed) {
      service += static_cast<double>(o.service_cycles);
      ++served;
    }
  }
  return service / static_cast<double>(served) / (report.clock_ghz * 1e9);
}

/// Serves a functional slice with collect_results and compares each seed's
/// output row with gnn::ReferenceExecutor run on that seed's own frontier.
void check_functional(const Options& options, double rate_rps,
                      std::vector<std::string>& failures) {
  const graph::Dataset dataset =
      graph::make_dataset_by_name(kDataset, kGraphSeed, /*with_features=*/true);
  const std::string fingerprint = core::graph_fingerprint(dataset.graph);
  const graph::FanoutSpec fanout = graph::parse_fanout(kFanout);
  const auto workload = [&] {
    return make_workload(dataset, rate_rps, kFunctionalQueries, options.seed,
                         core::SimMode::kFunctional);
  };
  serve::ServerOptions server = server_options(16, true, nullptr);
  server.collect_results = true;
  serve::SampledQueryWorkload source = workload();
  const serve::ServeReport report = serve_fresh(server, dataset, source);
  const std::vector<serve::Request> requests = admitted(workload());
  if (const Failure f = check_accounting(requests.size(), report.outcomes)) {
    failures.push_back("functional slice " + *f);
    return;
  }
  for (const serve::Outcome& o : report.outcomes) {
    const serve::Request& request = requests[o.id];
    if (o.shed || o.failed || !o.result || !o.result->output) {
      failures.push_back("functional slice: request " + std::to_string(o.id) +
                         " returned no output");
      return;
    }
    const graph::SampledSubgraph frontier = sample(
        dataset, fingerprint, static_cast<std::uint64_t>(request.seed), fanout);
    const graph::Dataset sub = graph::subgraph_dataset(dataset, frontier);
    const gnn::ModelSpec& model = request.sim.model;
    const gnn::Tensor features(sub.spec.num_nodes, sub.spec.feature_dim, sub.features);
    const gnn::Tensor full = gnn::ReferenceExecutor(sub.graph).run_model(
        model, gnn::init_weights(model, request.sim.weight_seed), features);
    gnn::Tensor want(1, full.cols());
    const auto row = full.row(frontier.seeds.front());
    std::copy(row.begin(), row.end(), want.row(0).begin());
    if (const Failure f = check_close(*o.result->output, want, kReferenceTolerance)) {
      failures.push_back("functional slice, seed " + std::to_string(request.seed) + ": " + *f);
      return;
    }
  }
}

/// Replays one round's sampling, pricing, fusion, compilation and kernel
/// runs through the public layer functions, timing each.
void replay_layers(const graph::Dataset& dataset, const std::vector<serve::Request>& requests,
                   const serve::ServeReport& report, std::vector<std::string>& failures,
                   LayerValues& layers) {
  const std::string fingerprint = core::graph_fingerprint(dataset.graph);
  const graph::FanoutSpec fanout = graph::parse_fanout(kFanout);

  // Sampling: one frontier per distinct (model, seed vertex), as the server
  // memoizes them.
  double sample_s = 0.0;
  std::size_t samples = 0;
  std::map<std::int64_t, graph::SampledSubgraph> frontiers;
  std::map<std::int64_t, graph::Dataset> subgraphs;
  std::map<std::pair<std::string, std::int64_t>, const serve::Request*> queries;
  for (const serve::Request& r : requests) {
    if (!queries.try_emplace({r.sim.model.name, r.seed}, &r).second) {
      continue;
    }
    const Stopwatch watch;
    graph::SampledSubgraph frontier =
        sample(dataset, fingerprint, static_cast<std::uint64_t>(r.seed), fanout);
    graph::Dataset sub = graph::subgraph_dataset(dataset, frontier);
    sample_s += watch.seconds();
    ++samples;
    frontiers.try_emplace(r.seed, std::move(frontier));
    subgraphs.try_emplace(r.seed, std::move(sub));
  }
  for (const auto& [seed, frontier] : frontiers) {
    if (const Failure f = check_fanout(dataset.graph, frontier, fanout)) {
      failures.push_back(*f);
      break;
    }
  }

  // Pricing: the analytic cost oracle once per distinct query.
  const core::CostOracle oracle;
  double estimate_s = 0.0;
  for (const auto& [key, request] : queries) {
    const Stopwatch watch;
    (void)oracle.compute(subgraphs.at(request->seed), request->sim);
    estimate_s += watch.seconds();
  }

  // Fused batches: compose, compile and run each distinct composition once.
  double compile_s = 0.0;
  double run_s = 0.0;
  std::uint64_t compiles = 0;
  std::uint64_t ticked = 0;
  std::uint64_t cycles = 0;
  gnnerator::sim::StatSet stats;
  std::set<std::pair<std::string, std::uint64_t>> compiled;
  for (const Batch& b : recover_batches(report.outcomes)) {
    const serve::Request& head = requests[b.ids.front()];
    std::vector<const graph::SampledSubgraph*> parts;
    for (const std::uint64_t id : b.ids) {
      const graph::SampledSubgraph* part = &frontiers.at(requests[id].seed);
      if (std::find(parts.begin(), parts.end(), part) == parts.end()) {
        parts.push_back(part);
      }
    }
    const Stopwatch fuse_watch;
    const graph::SampledSubgraph fused = graph::fuse_subgraphs(parts);
    if (!compiled.insert({head.sim.model.name, fused.fingerprint_value}).second) {
      sample_s += fuse_watch.seconds();
      continue;
    }
    const graph::Dataset fused_dataset = graph::subgraph_dataset(dataset, fused);
    sample_s += fuse_watch.seconds();

    const Stopwatch compile_watch;
    const core::LoweredModel plan =
        core::compile_for(fused_dataset, head.sim.model, head.sim);
    compile_s += compile_watch.seconds();
    ++compiles;
    const Stopwatch run_watch;
    const core::ExecutionResult result = core::Accelerator::run_timing(plan);
    run_s += run_watch.seconds();
    ticked += result.kernel_cycles_ticked;
    cycles += result.cycles;
    for (const auto& [name, value] : result.stats.counters()) {
      stats.add(name, value);
    }
  }

  layers["graph.sample_s"] = sample_s;
  layers["graph.samples"] = static_cast<double>(samples);
  layers["core.compiler.estimate_s"] = estimate_s;
  layers["core.compiler.compile_s"] = compile_s;
  layers["core.compiler.compiles"] = static_cast<double>(compiles);
  layers["sim.kernel.run_s"] = run_s;
  layers["sim.kernel.cycles_ticked"] = static_cast<double>(ticked);
  layers["sim.cycles"] = static_cast<double>(cycles);
  for (const char* name : {"dense.compute_cycles", "dense.stall_token_cycles",
                           "graph.compute_cycles", "graph.stall_dma_cycles", "dram.busy_cycles",
                           "dram.read_bytes"}) {
    layers[name] = static_cast<double>(stats.get(name));
  }
}

}  // namespace

WorkloadResult run_sampled_serve(const Options& options) {
  WorkloadResult out;
  LayerValues& layers = out.layers;

  // ---- Set-up: the base graph and the load calibration. ----
  const Stopwatch make_dataset;
  const graph::Dataset dataset =
      graph::make_dataset_by_name(kDataset, kGraphSeed, /*with_features=*/false);
  layers["graph.make_dataset_s"] = make_dataset.seconds();
  const double capacity_rps =
      static_cast<double>(kDevices) / per_request_service_s(dataset, options.seed);
  const double rate_rps = kLoadOverCapacity * capacity_rps;
  const serve::ServerOptions server = server_options(16, true, nullptr);
  out.setup_s = process_seconds();

  // ---- Timed phase: each round serves the queries on a fresh server. ----
  std::optional<serve::ServeReport> first;
  std::vector<double> serve_s;
  std::vector<double> intake_s;
  double rows = 0.0;
  std::size_t oracle_runs = 0;
  core::PlanCacheStats cache;
  out.rounds = run_rounds(options.seconds, [&] {
    serve::SampledQueryWorkload workload =
        make_workload(dataset, rate_rps, kQueries, options.seed, core::SimMode::kTiming);
    std::optional<TimedSource> timed;
    serve::WorkloadSource* source = &workload;
    if (options.trace) {
      source = &timed.emplace(workload);
    }
    const double cpu_before = cpu_seconds();
    const Stopwatch watch;
    serve::Server fresh(server);
    fresh.add_dataset(dataset);
    serve::ServeReport report = fresh.serve(*source);
    Round r;
    r.wall_s = watch.seconds();
    r.cpu_s = cpu_seconds() - cpu_before;
    r.ops = kQueries;
    r.failed = unserved(report);
    if (timed) {
      serve_s.push_back(r.wall_s);
      intake_s.push_back(timed->intake_s());
      rows = static_cast<double>(timed->rows());
      oracle_runs = fresh.cost_oracle_runs();
      cache = fresh.cache_stats();
    }
    if (!first) {
      first = std::move(report);
    }
    return r;
  });

  // ---- Checks. ----
  const std::vector<serve::Request> requests =
      admitted(make_workload(dataset, rate_rps, kQueries, options.seed, core::SimMode::kTiming));
  check_report(*first, requests.size(), out.failures);
  LayerValues replayed;
  replay_layers(dataset, requests, *first, out.failures, replayed);
  check_functional(options, rate_rps, out.failures);
  std::cerr << "sampled_serve: rate " << rate_rps << " rps, mean batch "
            << first->metrics.mean_batch_size << ", feature cache hit rate "
            << first->feature_cache.hit_rate() << "\n";

  if (options.trace) {
    layers.insert(replayed.begin(), replayed.end());
    add_loop_metrics(serve_s, intake_s, rows, static_cast<double>(first->events), layers);
    layers["core.cost_oracle.runs"] = static_cast<double>(oracle_runs);
    layers["core.plan_cache.hits"] = static_cast<double>(cache.hits);
    layers["core.plan_cache.misses"] = static_cast<double>(cache.misses);
    add_simulated_metrics(*first, layers);

    std::vector<double> recorded_s;
    std::string chrome;
    for (std::size_t i = 0; i < kRecordedRounds; ++i) {
      auto recorder = std::make_shared<obs::Recorder>();
      serve::SampledQueryWorkload workload =
          make_workload(dataset, rate_rps, kQueries, options.seed, core::SimMode::kTiming);
      TimedSource timed(workload);
      const Stopwatch watch;
      serve::Server fresh(server_options(16, true, recorder));
      fresh.add_dataset(dataset);
      (void)fresh.serve(timed);
      recorded_s.push_back(watch.seconds());
      if (i + 1 == kRecordedRounds) {
        const Stopwatch export_watch;
        chrome = obs::chrome_trace_string(*recorder);
        layers["obs.chrome_trace_s"] = export_watch.seconds();
      }
    }
    layers["obs.recorder_s"] = fastest(recorded_s) - fastest(serve_s);
    layers["obs.chrome_trace_bytes"] = static_cast<double>(chrome.size());
  }
  return out;
}

}  // namespace perfbench
